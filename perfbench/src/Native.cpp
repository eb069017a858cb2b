//===--- Native.cpp - the native tier: emitted C built with cc -O2 ---------===//

#include "Native.h"
#include "codegen/CEmitter.h"
#include "perfmodel/PlatformModel.h"
#include "suite/Suite.h"
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace laminar;

namespace perfbench {

const std::vector<NativeConfig> &nativeConfigs() {
  static const std::vector<NativeConfig> Configs = {
      {"fifo-O2", driver::LoweringMode::Fifo, 0},
      {"laminar-O2", driver::LoweringMode::Laminar, 0},
      {"laminar-O2-par2", driver::LoweringMode::Laminar, 2},
  };
  return Configs;
}

namespace {

constexpr double ProcTimeoutS = 120;

driver::Compilation compileConfig(const suite::Benchmark &B,
                                  const NativeConfig &Cfg,
                                  TraceContext *Trace) {
  driver::CompileOptions CO;
  CO.TopName = B.Top;
  CO.Mode = Cfg.Mode;
  CO.OptLevel = 2;
  CO.Parallel = Cfg.Parallel;
  CO.Trace = Trace;
  return driver::compile(B.Source, CO);
}

/// Emitted C may print only from the lam_output bodies: the sink
/// header redefines printf, and any other printf would be silently
/// folded into the checksum.
bool onlyOutputPrintf(const std::string &C) {
  std::istringstream In(C);
  for (std::string Line; std::getline(In, Line);)
    for (size_t At = Line.find("printf("); At != std::string::npos;
         At = Line.find("printf(", At + 1)) {
      const unsigned char Prev = At ? Line[At - 1] : ' ';
      const bool Bare = !std::isalnum(Prev) && Prev != '_';
      if (Bare && Line.rfind("static void lam_output(", 0) != 0)
        return false;
    }
  return true;
}

bool parseSink(const std::string &Out, Checksum &C) {
  const size_t At = Out.rfind("perfbench-sink ");
  unsigned long long N = 0, H = 0;
  if (At == std::string::npos ||
      std::sscanf(Out.c_str() + At, "perfbench-sink %llu %llx", &N, &H) != 2)
    return false;
  C.Count = N;
  C.Hash = H;
  return true;
}

struct Build {
  const suite::Benchmark *B = nullptr;
  const NativeConfig *Cfg = nullptr;
  const NativeRef *Ref = nullptr;
  std::string Stem;
  bool Ok = false;
  unsigned Partitions = 1;
  uint64_t CBytes = 0, TextBytes = 0;
  /// CPU seconds of cc and everything it ran.
  double CcS = 0;
  /// Output tokens: InitOut + N * PerIterOut after N iterations.
  uint64_t InitOut = 0, PerIterOut = 0;
  int64_t NLong = 0, NShort = 0;
  double NsPerIter = 0;
};

std::string argIters(int64_t N) { return std::to_string(N); }

/// `cc -O2` of STEM.c into STEM.bin (sink build) or STEM.stdout.bin.
std::vector<std::string> ccCommand(const NativeConfig &Cfg,
                                   const std::string &Stem, bool Sink) {
  std::vector<std::string> Cmd = {"cc", "-O2"};
  if (Cfg.Parallel)
    Cmd.push_back("-pthread");
  if (Sink) {
    Cmd.push_back("-include");
    Cmd.push_back(PERFBENCH_SINK_HEADER);
  }
  Cmd.push_back(Stem + ".c");
  Cmd.push_back("-lm");
  Cmd.push_back("-o");
  Cmd.push_back(Stem + (Sink ? ".bin" : ".stdout.bin"));
  return Cmd;
}

/// Runs a sink binary for \p N iterations and checks its token count.
/// Returns its CPU seconds per worker thread, or a negative value on
/// failure. CPU time leaves out what the hypervisor took from a virtual
/// machine's cores, which wall time does not. A threaded build runs one
/// worker per partition, and its workers never block: they spin
/// (sched_yield) while they wait for each other, so each is on a core
/// from start to end, and CPU time over the partition count is its wall
/// time without the steal. A plan that falls back to one partition
/// emits sequential code.
double timedRun(const Build &Bd, int64_t N, Tally &T,
                const std::vector<int> &Cpus = {}) {
  ProcResult R = runProcess({"./" + Bd.Stem + ".bin", argIters(N)}, true,
                            ProcTimeoutS, Cpus);
  Checksum C;
  const bool Ok = R.Status == 0 && parseSink(R.Out, C) &&
                  C.Count == Bd.InitOut + uint64_t(N) * Bd.PerIterOut;
  T.check(Ok, Bd.Stem + ": timed run of " + argIters(N) +
                  " iterations: exit " + std::to_string(R.Status) +
                  ", tokens " + std::to_string(C.Count));
  if (!Ok)
    return -1;
  return R.CpuSeconds / std::max(1u, Bd.Partitions);
}

/// Picks the long run's iteration count: about O.TargetLongS seconds,
/// scaled from the first reading over 10 ms, which can be up to eight
/// times longer. That reading is the fastest of three: a host stall in
/// one run would make N so small that the difference method drowns in
/// process-start noise.
int64_t calibrate(Build &Bd, const NativeOptions &O, Tally &T) {
  for (int64_t N = 1024;; N *= 8) {
    double Sec = timedRun(Bd, N, T);
    for (int K = 0; K < 2 && Sec > 0.01; ++K)
      Sec = std::min(Sec, timedRun(Bd, N, T));
    if (Sec < 0)
      return -1;
    if (Sec > 0.01 || N > (int64_t(1) << 34))
      return std::max<int64_t>(N / 8,
                               static_cast<int64_t>(N * O.TargetLongS / Sec));
  }
}

const char *const kSpanMetrics[][2] = {
    {"parse", "frontend.parse_ms"},
    {"sema", "frontend.sema_ms"},
    {"graph", "graph.build_ms"},
    {"schedule", "schedule.ms"},
    {"lower", "lower.ms"},
    {"optimize", "opt.ms"},
    {"certify-plan", "verify.ms"},
    {"verify-lowered", "verify.ms"},
    {"verify-invariants", "verify.ms"},
    {"verify-optimized", "verify.ms"},
    {"calibrate", "parallel.partition_ms"},
    {"partition", "parallel.partition_ms"},
};

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

} // namespace

std::vector<NativeRef> nativeReferences(const NativeOptions &O, Tally &T) {
  std::vector<NativeRef> Refs;
  for (const std::string &Name : O.Programs) {
    const suite::Benchmark *B = suite::findBenchmark(Name);
    for (const NativeConfig &Cfg : nativeConfigs()) {
      NativeRef Ref;
      driver::Compilation C = compileConfig(*B, Cfg, nullptr);
      T.check(C.Ok, Name + "." + Cfg.Name + ": compile: " + C.ErrorLog);
      if (C.Ok) {
        interp::RunResult S =
            driver::runWithRandomInput(C, CheckIters, O.InputSeed);
        interp::RunResult L =
            driver::runWithRandomInput(C, 2 * CheckIters, O.InputSeed);
        T.check(S.Ok && L.Ok, Name + "." + Cfg.Name + ": interpret: " +
                                  S.Error + L.Error);
        Ref.Short.add(S.Outputs);
        Ref.Long.add(L.Outputs);
        Ref.ShortText = renderTokens(S.Outputs);
        Ref.Steady = L.SteadyCounters;
      }
      Refs.push_back(std::move(Ref));
    }
  }
  if (O.PlantFault && !Refs.empty())
    Refs.front().Short.Hash ^= 1;
  return Refs;
}

void runNative(const NativeOptions &O, const std::vector<NativeRef> &Refs,
               Report &Out, Tally &T) {
  std::vector<Build> Builds;
  std::map<std::string, double> Layer;
  // build_cpu_s: CPU time of compile + emitC on this thread plus that of
  // every cc child, so neither the jobs' overlap nor steal counts.
  const double BuildT0 = nowS(), BuildCpu0 = threadCpuS();
  std::vector<std::vector<std::string>> Cmds;
  std::vector<std::pair<uint64_t, size_t>> BySize; // (C bytes, command)
  for (const std::string &Name : O.Programs) {
    const suite::Benchmark *B = suite::findBenchmark(Name);
    for (const NativeConfig &Cfg : nativeConfigs()) {
      Build Bd;
      Bd.B = B;
      Bd.Cfg = &Cfg;
      Bd.Ref = &Refs[Builds.size()];
      Bd.Stem = Name + "." + Cfg.Name;
      TraceContext Trace;
      Trace.setEnabled(O.Traced);
      driver::Compilation C = compileConfig(*B, Cfg, &Trace);
      T.check(C.Ok, Bd.Stem + ": compile: " + C.ErrorLog);
      if (!C.Ok) {
        Builds.push_back(Bd);
        continue;
      }
      codegen::CEmitOptions CE;
      CE.InputSeed = O.InputSeed;
      if (C.Plan) {
        CE.Plan = &*C.Plan;
        Bd.Partitions = C.Plan->NumPartitions;
      }
      const double EmitT0 = nowS();
      const std::string Src = codegen::emitC(*C.Module, CE);
      Layer["codegen.emit_ms"] += (nowS() - EmitT0) * 1e3;
      Bd.CBytes = Src.size();
      Bd.Ok = onlyOutputPrintf(Src);
      T.check(Bd.Ok, Bd.Stem + ": emitted C prints outside lam_output");
      std::ofstream(Bd.Stem + ".c") << Src;
      for (const TraceContext::Event &E : Trace.events())
        for (const auto &[Span, Metric] : kSpanMetrics)
          if (E.Depth == 1 && E.Name == Span)
            Layer[Metric] += E.DurNs / 1e6;
      for (const auto &[Key, N] : C.Stats.all()) {
        if (Key.rfind("lower.", 0) == 0 && endsWith(Key, ".insts"))
          Layer["lower.insts"] += N;
        if (Key.rfind("opt.", 0) == 0 && endsWith(Key, ".removed"))
          Layer["opt.removed"] += N;
      }
      BySize.push_back({Bd.CBytes, Cmds.size()});
      Cmds.push_back(ccCommand(Cfg, Bd.Stem, true));
      if (O.Traced) {
        // The unmodified program, printing every token: the oracle for
        // the sink header and the measure of what printing costs.
        BySize.push_back({Bd.CBytes, Cmds.size()});
        Cmds.push_back(ccCommand(Cfg, Bd.Stem, false));
      }
      Builds.push_back(Bd);
    }
  }

  // Longest first keeps the parallel build's tail short and steady.
  std::stable_sort(BySize.begin(), BySize.end(),
                   [](auto &A, auto &B) { return A.first > B.first; });
  std::vector<std::vector<std::string>> Ordered;
  for (const auto &P : BySize)
    Ordered.push_back(Cmds[P.second]);
  const std::vector<ProcResult> CcRes =
      runProcesses(Ordered, O.Jobs, ProcTimeoutS);
  const double BuildS = nowS() - BuildT0;
  double BuildCpuS = threadCpuS() - BuildCpu0;
  for (size_t K = 0; K < Ordered.size(); ++K) {
    const std::string &Target = Ordered[K].back();
    const bool Ok = CcRes[K].Status == 0;
    BuildCpuS += CcRes[K].CpuSeconds;
    T.check(Ok, "cc " + Target + ": exit " + std::to_string(CcRes[K].Status));
    for (Build &Bd : Builds)
      if (Target == Bd.Stem + ".bin") {
        Bd.Ok = Bd.Ok && Ok;
        Bd.CcS = CcRes[K].CpuSeconds;
        Layer["cc.ms"] += Bd.CcS * 1e3;
      } else if (Target == Bd.Stem + ".stdout.bin") {
        Bd.Ok = Bd.Ok && Ok;
      }
  }

  // Oracle at a short run, then the timed runs.
  for (Build &Bd : Builds) {
    if (!Bd.Ok)
      continue;
    Checksum S, L;
    ProcResult RS = runProcess({"./" + Bd.Stem + ".bin", argIters(CheckIters)},
                               true, ProcTimeoutS);
    ProcResult RL = runProcess(
        {"./" + Bd.Stem + ".bin", argIters(2 * CheckIters)}, true,
        ProcTimeoutS);
    Bd.Ok = RS.Status == 0 && RL.Status == 0 && parseSink(RS.Out, S) &&
            parseSink(RL.Out, L) && S == Bd.Ref->Short && L == Bd.Ref->Long;
    T.check(Bd.Ok, Bd.Stem + ": sink checksum differs from the interpreter");
    if (O.Traced) {
      ProcResult Txt = runProcess(
          {"./" + Bd.Stem + ".stdout.bin", argIters(CheckIters)}, true,
          ProcTimeoutS);
      const bool TxtOk = Txt.Status == 0 && Txt.Out == Bd.Ref->ShortText;
      T.check(TxtOk, Bd.Stem + ": stdout differs from the interpreter");
      Bd.Ok = Bd.Ok && TxtOk;
    }
    if (!Bd.Ok)
      continue;
    Bd.PerIterOut = (L.Count - S.Count) / CheckIters;
    Bd.InitOut = S.Count - CheckIters * Bd.PerIterOut;
    Bd.TextBytes = elfTextBytes(Bd.Stem + ".bin");
    Bd.NLong = calibrate(Bd, O, T);
    Bd.NShort = std::max<int64_t>(1, Bd.NLong / 8);
    Bd.Ok = Bd.NLong > 0;
  }

  // Steady ns/iter by the difference method, (T(long) - T(short)) over
  // the iteration difference, so process start and @init cancel. The
  // host's cores run at two speeds almost a factor of two apart, as
  // other machines' work comes and goes on their hyperthread siblings:
  // one binary ran 35 ms on one core and 65 ms on another. So round R
  // confines every binary to core R mod the core count (a threaded one
  // to that many cores from there), and the rounds come in blocks of
  // one round per core: each binary meets every core equally often,
  // instead of by the luck of the scheduler. The first block's time
  // sets how many blocks fit in O.TimingS. Each binary reports the
  // interquartile mean of its rounds, which follows the cores' speeds
  // over the whole phase.
  const std::vector<int> Cpus = allowedCpus();
  const size_t NCpus = std::max<size_t>(1, Cpus.size());
  std::vector<std::vector<double>> Diff(Builds.size());
  size_t Rounds = 0, Planned = NCpus;
  const double TimingT0 = nowS();
  for (; Rounds < Planned; ++Rounds) {
    for (size_t K = 0; K < Builds.size(); ++K) {
      Build &Bd = Builds[K];
      if (!Bd.Ok)
        continue;
      std::vector<int> On;
      for (size_t P = 0; P < std::min<size_t>(Bd.Partitions, Cpus.size()); ++P)
        On.push_back(Cpus[(Rounds + P) % Cpus.size()]);
      const double Long = timedRun(Bd, Bd.NLong, T, On);
      const double Short = timedRun(Bd, Bd.NShort, T, On);
      Bd.Ok = Long > 0 && Short > 0;
      Diff[K].push_back(Long - Short);
    }
    if (Rounds + 1 == NCpus) {
      const double BlockS = nowS() - TimingT0;
      Planned = NCpus * std::max<size_t>(1, size_t(O.TimingS / BlockS + 0.5));
    }
  }
  for (size_t K = 0; K < Builds.size(); ++K)
    if (Builds[K].Ok)
      Builds[K].NsPerIter = std::max(interquartileMean(Diff[K]), 1e-9) * 1e9 /
                            double(Builds[K].NLong - Builds[K].NShort);

  // Per-config geomeans and per-program rows.
  const size_t NC = nativeConfigs().size();
  std::vector<std::vector<double>> PerCfg(NC);
  std::vector<double> FifoOverLam, ModelErr;
  const perfmodel::PlatformModel &PM = *perfmodel::findPlatform("i7-2600K");
  uint64_t LamText = 0;
  std::printf("native tier (cc -O2, sink builds, input seed %llu): built "
              "in %.2f s, %.2f CPU s; %zu timed rounds in %.1f s\n"
              "  %-15s %-16s %12s %9s %9s %9s\n",
              static_cast<unsigned long long>(O.InputSeed), BuildS, BuildCpuS,
              Rounds, nowS() - TimingT0, "program", "config", "ns/iter",
              "C KB", ".text KB", "cc CPU ms");
  for (size_t K = 0; K < Builds.size(); ++K) {
    const Build &Bd = Builds[K];
    std::printf("  %-15s %-16s %12.2f %9.1f %9.1f %9.0f\n",
                Bd.B->Name.c_str(), Bd.Cfg->Name, Bd.NsPerIter,
                Bd.CBytes / 1024.0, Bd.TextBytes / 1024.0, Bd.CcS * 1e3);
    if (Bd.Ok)
      PerCfg[K % NC].push_back(Bd.NsPerIter);
    if (O.Traced)
      Out.set("native.ns_per_iter." + Bd.B->Name + "." + Bd.Cfg->Name,
              Bd.NsPerIter, "ns");
    Layer["codegen.c_bytes"] += Bd.CBytes;
    if (K % NC == 1) {
      LamText += Bd.TextBytes;
      const Build &Fifo = Builds[K - 1], &Par = Builds[K + 1];
      if (Fifo.Ok && Bd.Ok) {
        const double Meas = Fifo.NsPerIter / Bd.NsPerIter;
        const double Pred = PM.cycles(Fifo.Ref->Steady) /
                            PM.cycles(Bd.Ref->Steady);
        FifoOverLam.push_back(Meas);
        ModelErr.push_back(std::abs(Pred / Meas - 1) * 100);
        std::printf("  %-15s laminar speedup %.2fx measured, %.2fx "
                    "predicted by the %s model (error %.0f%%)\n",
                    Bd.B->Name.c_str(), Meas, Pred, PM.Name.c_str(),
                    ModelErr.back());
      }
      if (O.Traced)
        Out.set("parallel.speedup_vs_seq." + Bd.B->Name,
                Par.Ok && Bd.Ok ? Bd.NsPerIter / Par.NsPerIter : 0, "x");
    }
    if (K % NC == 2) {
      Layer["parallel.partitions"] += Bd.Partitions;
      Layer["parallel.fallbacks"] += Bd.Partitions <= 1;
    }
  }
  const double LamGeo = geomean(PerCfg[1]), FifoGeo = geomean(PerCfg[0]);
  std::printf("  geomean laminar speedup over fifo: %.3fx (fifo %.2f ns/iter "
              "/ laminar %.2f ns/iter, %zu programs)\n",
              FifoGeo / LamGeo, FifoGeo, LamGeo, PerCfg[1].size());

  if (!O.Traced) {
    Out.set("build_cpu_s", BuildCpuS, "s");
    Out.set("native_ns_per_iter", LamGeo, "ns");
    Out.set("fifo_native_ns_per_iter", FifoGeo, "ns");
    Out.set("parallel_native_ns_per_iter", geomean(PerCfg[2]), "ns");
    Out.set("code_bytes", double(LamText), "bytes");
    return;
  }

  // Print cost: the unmodified binary against the sink build at the
  // same iteration count, stdout to /dev/null.
  double PrintNs = 0, PrintTokens = 0;
  std::vector<double> StdoutSpeedup;
  for (size_t K = 1; K < Builds.size(); K += NC) {
    const Build &Lam = Builds[K], &Fifo = Builds[K - 1];
    if (!Lam.Ok || !Fifo.Ok)
      continue;
    auto Time = [&](const Build &Bd, const char *Suffix) {
      return runProcess({"./" + Bd.Stem + Suffix, argIters(Lam.NShort)},
                        false, ProcTimeoutS)
          .Seconds;
    };
    const double LamStdout = Time(Lam, ".stdout.bin");
    PrintNs += (LamStdout - Time(Lam, ".bin")) * 1e9;
    PrintTokens += double(Lam.InitOut + Lam.NShort * Lam.PerIterOut);
    StdoutSpeedup.push_back(Time(Fifo, ".stdout.bin") / LamStdout);
  }
  std::printf("  geomean laminar speedup with printf to stdout: %.3fx\n",
              geomean(StdoutSpeedup));
  for (const auto &[Span, Metric] : kSpanMetrics)
    Out.set(Metric, Layer[Metric], "ms");
  Out.set("codegen.emit_ms", Layer["codegen.emit_ms"], "ms");
  Out.set("lower.insts", Layer["lower.insts"], "count");
  Out.set("opt.removed", Layer["opt.removed"], "count");
  Out.set("codegen.c_bytes", Layer["codegen.c_bytes"], "bytes");
  Out.set("cc.ms", Layer["cc.ms"], "ms");
  Out.set("native.text_bytes", double(LamText), "bytes");
  Out.set("native.laminar_speedup", FifoGeo / LamGeo, "x");
  Out.set("native.print_ns_per_token",
          PrintTokens > 0 ? PrintNs / PrintTokens : 0, "ns");
  Out.set("perfmodel.speedup_error_pct", median(ModelErr), "%");
  Out.set("parallel.partitions", Layer["parallel.partitions"], "count");
  Out.set("parallel.fallbacks", Layer["parallel.fallbacks"], "count");
}

double compileTraceOverheadPct(const NativeOptions &O, int Rounds) {
  std::vector<double> Pct;
  for (int R = 0; R < Rounds; ++R) {
    double Plain = 0, Traced = 0;
    size_t Pair = 0;
    for (const std::string &Name : O.Programs)
      for (const NativeConfig &Cfg : nativeConfigs()) {
        // Which of the pair goes first alternates, so drift within a
        // round does not read as overhead.
        const bool TracedFirst = (Pair++ + R) % 2 == 1;
        for (int Half = 0; Half < 2; ++Half) {
          const bool On = (Half == 0) == TracedFirst;
          TraceContext Trace;
          Trace.setEnabled(On);
          const double T0 = nowS();
          compileConfig(*suite::findBenchmark(Name), Cfg, &Trace);
          (On ? Traced : Plain) += nowS() - T0;
        }
      }
    Pct.push_back((Traced / Plain - 1) * 100);
  }
  return median(Pct);
}

} // namespace perfbench
