//===--- Native.h - the native tier: emitted C built with cc -O2 -*- C++ -*-===//
//
// Each suite program goes driver::compile -> codegen::emitC -> cc -O2
// -> a run of the binary, in three configurations. Binaries are sink
// builds (cc -include sink.h): output tokens fold into a checksum
// instead of being printed, so the time measured is the program's and
// not printf's. Every binary's checksum and token count are checked
// against the interpreter before any time is kept.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_NATIVE_H
#define PERFBENCH_NATIVE_H

#include "Util.h"
#include "driver/Driver.h"

namespace perfbench {

struct NativeConfig {
  const char *Name;
  laminar::driver::LoweringMode Mode;
  unsigned Parallel;
};

/// fifo-O2 (the StreamIt FIFO baseline), laminar-O2, laminar-O2-par2.
const std::vector<NativeConfig> &nativeConfigs();

struct NativeOptions {
  std::vector<std::string> Programs;
  /// Input seed of the emitted generator and of the interpreter runs.
  uint64_t InputSeed = 1;
  unsigned Jobs = 4;
  /// Target seconds of the long timed run of each binary.
  double TargetLongS = 0.015;
  /// Seconds of timed rounds, at least one per core; every round runs
  /// each binary's long and short run once.
  double TimingS = 10;
  /// Traced run: compiler spans, stdout builds and per-layer metrics.
  bool Traced = false;
  /// Self-test: corrupt one reference checksum.
  bool PlantFault = false;
};

/// Interpreter reference of one (program, config): the checksums of
/// the outputs after CheckIters and 2 * CheckIters iterations.
struct NativeRef {
  Checksum Short, Long;
  std::string ShortText;
  /// Steady-state operation counts (the performance model's input).
  laminar::interp::Counters Steady;
};

constexpr int64_t CheckIters = 16;

/// Set-up: compiles every (program, config) and interprets it.
std::vector<NativeRef> nativeReferences(const NativeOptions &O, Tally &T);

/// Builds, checks and times every (program, config). Untraced runs
/// fill \p Out with the end-to-end native metrics; traced runs with
/// the per-layer ones.
void runNative(const NativeOptions &O, const std::vector<NativeRef> &Refs,
               Report &Out, Tally &T);

/// Cost of compiler tracing, in percent: driver::compile over every
/// (program, config) with its TraceContext enabled against disabled,
/// alternated per compile for \p Rounds rounds (median of the rounds).
double compileTraceOverheadPct(const NativeOptions &O, int Rounds);

} // namespace perfbench

#endif // PERFBENCH_NATIVE_H
