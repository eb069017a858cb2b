#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root (about three minutes after the first
build). It checks that:
  * each workload, at a tiny size, exits 0 and prints every end-to-end
    metric of BENCHMARK.json with its unit, and nothing else;
  * a traced run prints every per-layer metric with its unit;
  * a planted wrong reference token, native or served, fails the run
    with a non-zero exit and "correct": false;
  * without the repository's sources the benchmark exits non-zero and
    prints no result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    cmd = ["python3", os.path.join(cwd, "perfbench", "run.py"), "--seed", "5",
           "--seconds", "1", "--tiny"] + args
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stdout + proc.stderr


def expect(cond, what, log=""):
    if not cond:
        print(f"FAIL: {what}\n{log[-3000:]}")
        sys.exit(1)
    print(f"ok: {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    def units(key):
        return {m["name"]: m["unit"] for m in spec[key]}

    for w in spec["workloads"]:
        code, result, log = run(["--workload", w["name"], "--trace", "0"])
        expect(code == 0 and result and result["correct"]
               and result["failed"] == 0 and result["attempted"] > 0,
               f"{w['name']} runs clean", log)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == units("end_to_end"),
               f"{w['name']} prints every end-to-end metric with its unit",
               log)

    code, result, log = run(["--workload", "serve-light", "--trace", "1"])
    expect(code == 0 and result and result["correct"], "traced run is clean",
           log)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == units("per_layer"),
           "traced run prints every per-layer metric with its unit", log)

    for plant in ["native", "serve"]:
        code, result, log = run(["--workload", "serve-light", "--trace", "0",
                                 "--plant-fault", plant])
        expect(code != 0 and result and not result["correct"]
               and result["failed"] > 0,
               f"a planted {plant} output mismatch fails the run", log)

    # Only the benchmark's own files: it must refuse, not measure.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    code, result, log = run(["--workload", "serve-light", "--trace", "0"],
                            cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None,
           "without the repository's sources it exits non-zero", log)
    print("selftest passed")


if __name__ == "__main__":
    main()
