#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload native-suite|serve-light|serve-heavy \
        --seed N --seconds S --trace 0|1 [--tiny] [--plant-fault native|serve]

Run from the repository root. The first run configures and builds the
repository's library, laminard and the perfbench program with CMake into
.bench_build/perfbench (a few minutes); later runs only check that the
build is current. The program runs in a work directory under
.bench_build, which is removed afterwards. Its stdout is passed through:
the last line is the JSON result. Build output goes to stderr. Exits
non-zero when the sources are missing, the build fails, or any output
check fails. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def source_id():
    """The commit when the checkout is a git repository, else a digest
    of the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "tools", "include", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def build():
    def step(cmd):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", BUILD, "--target", "perfbench", "laminard",
          "-j", "4"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["native-suite", "serve-light", "serve-heavy"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shortest timed runs (self-test)")
    ap.add_argument("--plant-fault", choices=["native", "serve"],
                    help="corrupt one reference output (self-test)")
    args = ap.parse_args()

    for need in ["src/CMakeLists.txt", "tools/laminard.cpp"]:
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found; run from a checkout of "
                  "the repository", file=sys.stderr)
            return 2
    # cc and the build keep their temporary files inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    try:
        build()
    except (subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant_fault:
        cmd += ["--plant-fault", args.plant_fault]
    work = os.path.join(BUILD, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    sys.stdout.flush()
    # Its own process group, so laminard and any binary it runs are
    # stopped with it, whatever way it ends.
    proc = subprocess.Popen(cmd, cwd=work, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 3
    finally:
        stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)
    return code


def stop_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    sys.exit(main())
