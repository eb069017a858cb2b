//===--- Main.cpp - perfbench: the repository benchmark --------------------===//
//
//   perfbench --workload native-suite|serve-light|serve-heavy --seed N
//             --seconds S --trace 0|1 [--commit ID] [--tiny]
//             [--plant-fault native|serve]
//
// Every workload is a set of programs and a serving shape. A run sets
// up (interpreter references, laminard start, warm compiles and spawns;
// several times, the median is setup_s), then measures the native tier
// on the workload's programs (compile -> emitC -> cc -O2 -> the binary)
// and the serving tier (a closed loop of laminard sessions), each for
// half of --seconds. The end-to-end times are CPU times, which leave
// out what the hypervisor takes from a virtual machine's cores. Every
// output is checked before a time is kept; any mismatch fails the run
// with exit code 1. The last line of stdout is the JSON result:
// end-to-end metrics untraced, per-layer ones traced. See README.md.
//
//===----------------------------------------------------------------------===//

#include "Native.h"
#include "Serve.h"
#include "suite/Suite.h"
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace perfbench;

namespace {

struct Workload {
  const char *Name;
  std::vector<std::string> Programs;
  const char *Shape;
};

std::vector<Workload> workloads() {
  std::vector<std::string> All;
  for (const laminar::suite::Benchmark &B : laminar::suite::allBenchmarks())
    All.push_back(B.Name);
  return {
      // The native tier is the point here; the serving tier runs
      // serve-heavy's shape, whose four programs are in the suite, so
      // every end-to-end metric has a value on every workload.
      {"native-suite", All, "heavy"},
      {"serve-light",
       {"MovingAverage", "Echo", "Lattice", "RateConvert", "DES",
        "BeamFormer"},
       "light"},
      {"serve-heavy", {"ChannelVocoder", "FMRadio", "DCT", "FilterBank"},
       "heavy"},
  };
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload native-suite|serve-light|"
               "serve-heavy --seed N --seconds S --trace 0|1\n"
               "                 [--commit ID] [--tiny] "
               "[--plant-fault native|serve]\n");
  return 2;
}

std::string firstLine(const std::string &S) {
  return S.substr(0, S.find('\n'));
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName, Commit = "unknown", Plant;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  bool Tiny = false;
  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    const bool HasValue = I + 1 < argc;
    if (A == "--tiny")
      Tiny = true;
    else if (!HasValue)
      return usage();
    else if (A == "--workload")
      WorkloadName = argv[++I];
    else if (A == "--seed")
      Seed = std::strtoull(argv[++I], nullptr, 10);
    else if (A == "--seconds")
      Seconds = std::atof(argv[++I]);
    else if (A == "--trace")
      Trace = std::atoi(argv[++I]);
    else if (A == "--commit")
      Commit = argv[++I];
    else if (A == "--plant-fault")
      Plant = argv[++I];
    else
      return usage();
  }
  const std::vector<Workload> All = workloads();
  auto W = std::find_if(All.begin(), All.end(), [&](const Workload &X) {
    return WorkloadName == X.Name;
  });
  if (W == All.end() || Seconds <= 0 || (Trace != 0 && Trace != 1) ||
      (!Plant.empty() && Plant != "native" && Plant != "serve"))
    return usage();
  const bool Traced = Trace == 1;

  // The load: one process, four parallel cc jobs, and two client
  // connections served by two daemon workers. A closed loop keeps one
  // thread per connection runnable at a time, so serving leaves half
  // of a four-core host idle and a slow or taken core does not stall
  // every session.
  const unsigned Cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned Parallelism = std::min(4u, Cores);
  const unsigned Serving = std::min(2u, Cores);
  const int SetupReps = Tiny || Traced ? 1 : 5;

  NativeOptions NO;
  NO.Programs = W->Programs;
  NO.InputSeed = mixSeed(Seed, 1);
  NO.Jobs = Parallelism;
  NO.Traced = Traced;
  NO.PlantFault = Plant == "native";
  // The traced run breaks every layer down, so it covers the whole
  // suite whatever the workload.
  if (Traced)
    NO.Programs = workloads().front().Programs;
  // The native timing takes half of --seconds, the serving loop the
  // other half (in a traced run, half of that over the wire and half
  // in process).
  NO.TimingS = Seconds / 2;
  if (Tiny) {
    NO.TargetLongS = 0.005;
    NO.TimingS = 0;
  }
  ServeShape Shape = makeShape(W->Shape, Seed);
  Shape.Connections = Serving;

#ifdef NDEBUG
  const char *Asserts = "off";
#else
  const char *Asserts = "on";
#endif
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n", W->Name,
              static_cast<unsigned long long>(Seed), Seconds, Trace,
              Tiny ? " (tiny)" : "");
  std::printf("provenance: commit=%s cores=%u build=%s asserts=%s "
              "cc=\"%s\" setup-reps=%d connections=%u "
              "daemon-workers=%u cc-jobs=%u\n",
              Commit.c_str(), Cores, PERFBENCH_BUILD_TYPE, Asserts,
              firstLine(runProcess({"cc", "--version"}, true, 30).Out)
                  .c_str(),
              SetupReps, Shape.Connections, Serving, Parallelism);
  std::fflush(stdout);

  Tally T;
  Report Out;
  Daemon D;
  std::vector<NativeRef> Refs;
  // setup_s is CPU time: this process's, all threads, plus the fresh
  // daemon's. Like every timed metric here it leaves out what the
  // hypervisor takes, which on a shared virtual machine can be a
  // quarter of the CPU time in some minutes and none in others.
  std::vector<double> SetupS, SetupWallS;
  for (int Rep = 0; Rep < SetupReps && !T.Failed; ++Rep) {
    D.stop();
    const double T0 = nowS(), Cpu0 = processCpuS();
    Refs = nativeReferences(NO, T);
    serveReferences(Shape, Seed, Plant == "serve", T);
    T.check(D.start(Shape, Serving), "laminard did not start");
    warmDaemon(D, Shape, T);
    SetupS.push_back(processCpuS() - Cpu0 + D.cpuS());
    SetupWallS.push_back(nowS() - T0);
  }
  std::printf("setup: %s CPU s, %s s wall (medians of %zu)\n",
              std::to_string(median(SetupS)).c_str(),
              std::to_string(median(SetupWallS)).c_str(), SetupS.size());

  if (!T.Failed) {
    runNative(NO, Refs, Out, T);
    if (!Traced) {
      runServe(D, Shape, Seed, Seconds / 2, false, Out, T);
      Out.set("setup_s", median(SetupS), "s");
      if (std::string(W->Name) == "native-suite") {
        D.stop();
        Out.set("peak_rss_mb", selfAndChildrenPeakRssMb(), "MB");
      } else {
        Out.set("peak_rss_mb", D.peakRssMb(), "MB");
      }
    } else {
      double BatchP50Us = 0;
      runServe(D, Shape, Seed, Seconds / 4, true, Out, T, &BatchP50Us);
      replayInProcess(Shape, Seed, Seconds / 4, Serving, BatchP50Us, Out, T);
      Out.set("trace.overhead_pct",
              compileTraceOverheadPct(NO, Tiny ? 1 : 5), "%");
    }
  }
  D.stop();

  std::printf("error_rate: %llu failed / %llu attempted operations\n",
              static_cast<unsigned long long>(T.Failed),
              static_cast<unsigned long long>(T.Attempted));
  std::printf("metrics:\n%s", Out.table().c_str());
  std::printf("%s\n", Out.json(T).c_str());
  return T.Failed ? 1 : 0;
}
