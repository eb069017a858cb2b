//===--- Serve.h - the serving tier: laminard under a closed loop -*- C++ -*-===//
//
// A closed loop of client connections, each running back-to-back
// tenant sessions against laminard: compile -> spawn -> push/pull
// round trips -> free-instance -> release-plan. Every pulled batch is
// checked bit-exactly against a solo interpreter run of the same input,
// computed in set-up. The traced run replays the same sessions against
// an in-process server::StreamServer to split a round trip into wire,
// queue and execute time.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVE_H
#define PERFBENCH_SERVE_H

#include "Util.h"
#include "driver/Driver.h"
#include <sys/types.h>

namespace perfbench {

/// One source the clients compile, with the sessions that use it.
struct PoolEntry {
  std::string Label;
  /// What the latency metrics group by: the suite program and mode, or
  /// "Variant" for every constant variant.
  std::string Class;
  std::string Source;
  std::string Top;
  bool Fifo = false;
  /// `{"op":"compile",...}` request line.
  std::string CompileLine;
  /// A session's round trips: iterations, input tokens (for the
  /// in-process replay), the push request's data text, and the solo
  /// run's expected output tokens.
  struct Round {
    int64_t Iters = 0;
    laminar::interp::TokenStream In;
    std::string DataText;
    laminar::interp::TokenStream Expect;
  };
  std::vector<std::vector<Round>> Sessions;
};

struct ServeShape {
  std::string Name;
  std::vector<PoolEntry> Pool;
  /// laminard --cache-entries.
  size_t CacheEntries = 64;
  int Rounds = 8;
  int MinIters = 1, MaxIters = 4;
  /// Zipf(1) over a seeded ranking of the pool; otherwise each
  /// connection rotates through the pool.
  bool Zipf = false;
  unsigned Connections = 4;
};

/// Pool and session plans of a serving shape ("light" or "heavy"),
/// without the references.
ServeShape makeShape(const std::string &Name, uint64_t Seed);

/// Set-up: solo interpreter runs that give every round's expected
/// output. \p PlantFault flips one expected token.
void serveReferences(ServeShape &S, uint64_t Seed, bool PlantFault,
                     Tally &T);

/// A laminard child process on a socket in the working directory.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(const ServeShape &S, unsigned Workers);
  /// Shuts the daemon down and reaps it (killed if it does not exit).
  void stop();
  /// CPU seconds the daemon has run, all threads, steal left out.
  double cpuS() const;
  /// The daemon's peak resident set (VmHWM), in MB.
  double peakRssMb() const;
  const std::string &socket() const { return Sock; }

private:
  pid_t Pid = -1;
  std::string Sock;
};

/// Compiles, spawns and frees every pool entry once (warm-up).
void warmDaemon(const Daemon &D, const ServeShape &S, Tally &T);

/// Runs the closed loop for \p Seconds. Untraced runs set the
/// end-to-end tokens_per_cpu_s (output tokens per second of daemon CPU
/// time); traced runs record a span per RPC and set the layer metrics,
/// wall-clock rate and latencies among them. Latency quantiles are
/// geometric means over the pool's classes of each class's quantile.
/// \p BatchP50Us, when given, receives the batch p50 in microseconds.
void runServe(const Daemon &D, const ServeShape &S, uint64_t Seed,
              double Seconds, bool Traced, Report &Out, Tally &T,
              double *BatchP50Us = nullptr);

/// Traced run: the same sessions against an in-process StreamServer,
/// plus solo interpreter timings; fills the server.*, interp.* and
/// laminard.wire_us layer metrics.
void replayInProcess(const ServeShape &S, uint64_t Seed, double Seconds,
                     unsigned Workers, double DaemonBatchUs, Report &Out,
                     Tally &T);

} // namespace perfbench

#endif // PERFBENCH_SERVE_H
