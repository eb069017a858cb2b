//===--- Util.h - perfbench plumbing: clocks, processes, stats --*- C++ -*-===//
//
// Shared by the native and serve halves of the benchmark: wall clocks,
// child processes with timeouts, order statistics, the output checksum
// the sink header computes, and the metric report.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_UTIL_H
#define PERFBENCH_UTIL_H

#include "interp/Interpreter.h"
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

double nowS();
/// CPU seconds the calling thread, or this whole process, has run;
/// the kernel leaves out what the hypervisor took (steal).
double threadCpuS();
double processCpuS();

/// splitmix64: derives independent nonzero seeds from the run seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Salt);

struct ProcResult {
  /// Exit code, or 128 + signal; -1 when the process could not start.
  int Status = -1;
  std::string Out;
  double Seconds = 0;
  /// User plus system time of the child. The kernel leaves out the
  /// time the hypervisor took from a virtual machine's cores (steal).
  double CpuSeconds = 0;
};

/// Runs \p Argv (argv[0] looked up in PATH) to completion, capturing
/// stdout when \p Capture and discarding it otherwise; stderr is
/// inherited. Killed after \p TimeoutS. A non-empty \p Cpus confines
/// the child to those CPUs.
ProcResult runProcess(const std::vector<std::string> &Argv, bool Capture,
                      double TimeoutS, const std::vector<int> &Cpus = {});

/// The CPUs this process may run on.
std::vector<int> allowedCpus();

/// Runs every command, at most \p Jobs at a time, longest first in the
/// given order. Results are index-aligned with \p Cmds.
std::vector<ProcResult>
runProcesses(const std::vector<std::vector<std::string>> &Cmds,
             unsigned Jobs, double TimeoutS);

double median(std::vector<double> V);
/// Nearest-rank quantile, Q in [0, 1].
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);
/// Mean of the middle half of \p V (the quartiles and what lies
/// between them): robust to stalls like a median, but it moves
/// smoothly when a sample set mixes a fast and a slow mode.
double interquartileMean(std::vector<double> V);

/// The sink header's checksum: FNV-1a over each token's 64-bit pattern,
/// NaNs folded as one canonical pattern.
struct Checksum {
  uint64_t Count = 0;
  uint64_t Hash = 0xcbf29ce484222325ULL;
  void add(const laminar::interp::TokenStream &S);
  void addBits(uint64_t B);
  bool operator==(const Checksum &O) const {
    return Count == O.Count && Hash == O.Hash;
  }
};

/// The emitted program's own stdout rendering of \p S (printf "%.17g"
/// or PRId64, one token per line).
std::string renderTokens(const laminar::interp::TokenStream &S);

/// Size in bytes of the .text section of an ELF64 file; 0 on error.
uint64_t elfTextBytes(const std::string &Path);

/// Peak resident set in MB of this process and of its reaped children.
double selfAndChildrenPeakRssMb();

/// CPU time the host took from this machine (/proc/stat steal) and the
/// time tasks here waited for a CPU (/proc/pressure/cpu), both in
/// seconds since boot: the difference over a phase tells how contended
/// it ran.
struct HostContention {
  double StealS = 0, CpuWaitS = 0;
  static HostContention now();
};

/// Counts operations that were checked and those that failed; every
/// failure is also printed with its reason.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  void check(bool Ok, const std::string &What);
};

/// Ordered metric set printed as the final JSON line.
class Report {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  /// Writes `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
  std::string json(const Tally &T) const;
  /// One `name value unit` line per metric, for humans.
  std::string table() const;

private:
  std::vector<std::string> Order;
  std::map<std::string, std::pair<double, std::string>> Values;
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_H
