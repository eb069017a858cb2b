//===--- Serve.cpp - the serving tier: laminard under a closed loop --------===//

#include "Serve.h"
#include "server/Json.h"
#include "server/Server.h"
#include "suite/Suite.h"
#include "support/RNG.h"
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <time.h>
#include <unistd.h>

using namespace laminar;

namespace perfbench {

namespace {

constexpr int SessionsPerEntry = 2;

const char *const kLightPrograms[] = {"MovingAverage", "Echo",
                                      "Lattice",       "RateConvert",
                                      "DES",           "BeamFormer"};
const char *const kHeavyPrograms[] = {"ChannelVocoder", "FMRadio", "DCT",
                                      "FilterBank"};

/// A cheap program that differs from its siblings only in a constant,
/// so each variant is its own cache key.
std::string variantSource(int K, RNG &R) {
  return "float->float filter Scaler(float gain) {\n"
         "  work push 1 pop 1 { push(pop() * gain); }\n"
         "}\n"
         "float->float pipeline Variant {\n"
         "  add Scaler(" +
         std::to_string(K + 2) + "." + std::to_string(R.nextInt(1000)) +
         ");\n}\n";
}

std::string renderCsv(const interp::TokenStream &S) {
  std::string Out;
  char Buf[40];
  for (size_t K = 0; K < S.size(); ++K) {
    if (S.Ty == lir::TypeKind::Int)
      std::snprintf(Buf, sizeof Buf, "%" PRId64, S.I[K]);
    else
      std::snprintf(Buf, sizeof Buf, "%.17g", S.F[K]);
    if (K)
      Out += ',';
    Out += Buf;
  }
  return Out;
}

interp::TokenStream slice(const interp::TokenStream &S, size_t From,
                          size_t To) {
  interp::TokenStream Out;
  Out.Ty = S.Ty;
  if (S.Ty == lir::TypeKind::Int)
    Out.I.assign(S.I.begin() + From, S.I.begin() + To);
  else
    Out.F.assign(S.F.begin() + From, S.F.begin() + To);
  return Out;
}

/// Wire values against the solo run. The daemon prints integral doubles
/// as integers, so -0.0 arrives as 0; every other value is bit-exact.
bool sameTokens(const json::Value &Arr, const interp::TokenStream &Expect) {
  const auto &E = Arr.elements();
  if (Arr.kind() != json::Value::Kind::Array || E.size() != Expect.size())
    return false;
  for (size_t K = 0; K < E.size(); ++K) {
    const double Want = Expect.Ty == lir::TypeKind::Int
                            ? static_cast<double>(Expect.I[K])
                            : Expect.F[K];
    if (E[K]->kind() != json::Value::Kind::Number ||
        !(E[K]->asNumber() == Want))
      return false;
  }
  return true;
}

bool sameTokens(const interp::TokenStream &Got,
                const interp::TokenStream &Expect) {
  return Got.Ty == Expect.Ty && Got.I == Expect.I &&
         Got.F.size() == Expect.F.size() &&
         (Got.F.empty() || std::memcmp(Got.F.data(), Expect.F.data(),
                                       Got.F.size() * sizeof(double)) == 0);
}

/// Chooses the next session of one client: which pool entry, which of
/// its session plans.
class SessionPicker {
public:
  SessionPicker(const ServeShape &S, uint64_t Seed, unsigned Conn)
      : S(S), R(mixSeed(Seed, 500 + Conn)), Next(Conn) {
    if (!S.Zipf)
      return;
    // Zipf(1) over the pool in its order. The ranking is fixed, not
    // seeded: which sources miss the cache sets the workload's cost.
    double Sum = 0;
    for (size_t K = 0; K < S.Pool.size(); ++K)
      Cdf.push_back(Sum += 1.0 / double(K + 1));
    for (double &C : Cdf)
      C /= Sum;
  }

  std::pair<size_t, size_t> next() {
    size_t Entry;
    if (S.Zipf) {
      const double U = R.nextDouble();
      Entry = std::min<size_t>(
          std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin(),
          S.Pool.size() - 1);
    } else {
      Entry = Next++ % S.Pool.size();
    }
    return {Entry, static_cast<size_t>(R.nextInt(SessionsPerEntry))};
  }

private:
  const ServeShape &S;
  RNG R;
  size_t Next;
  std::vector<double> Cdf;
};

/// One client connection speaking line-delimited JSON.
class Conn {
public:
  explicit Conn(const std::string &Sock) {
    sockaddr_un A{};
    A.sun_family = AF_UNIX;
    std::strncpy(A.sun_path, Sock.c_str(), sizeof(A.sun_path) - 1);
    Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    // No call may hang the benchmark: a wedged daemon fails the RPC.
    const timeval Limit{60, 0};
    if (Fd >= 0 &&
        (::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Limit, sizeof Limit) !=
             0 ||
         ::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof A) != 0)) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  bool ok() const { return Fd >= 0; }

  /// Sends one request line and reads one reply line.
  bool call(const std::string &Line, std::string &Reply) {
    for (size_t Off = 0; Off < Line.size();) {
      const ssize_t W = ::write(Fd, Line.data() + Off, Line.size() - Off);
      if (W < 0 && errno == EINTR)
        continue;
      if (W <= 0)
        return false;
      Off += size_t(W);
    }
    Bytes += Line.size();
    size_t Nl;
    while ((Nl = Buf.find('\n')) == std::string::npos) {
      char Chunk[1 << 16];
      const ssize_t N = ::read(Fd, Chunk, sizeof Chunk);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Buf.append(Chunk, size_t(N));
    }
    Reply.assign(Buf, 0, Nl);
    Buf.erase(0, Nl + 1);
    Bytes += Nl + 1;
    return true;
  }

  /// Request and reply bytes so far.
  uint64_t Bytes = 0;

private:
  int Fd = -1;
  std::string Buf;
};

/// A call whose reply must be `"ok": true`; null otherwise.
json::ValuePtr rpc(Conn &C, const std::string &Line, const char *What,
                   Tally &T) {
  std::string Reply, Err;
  json::ValuePtr V;
  if (C.call(Line, Reply))
    V = json::parse(Reply, Err);
  const bool Ok = V && V->get("ok")->asBool(false);
  T.check(Ok, std::string(What) + ": " + Reply.substr(0, 200));
  return Ok ? V : nullptr;
}

std::string idLine(const char *Op, const char *Key, int64_t Id) {
  return std::string("{\"op\":\"") + Op + "\",\"" + Key +
         "\":" + std::to_string(Id) + "}\n";
}

/// Latency samples in microseconds, by pool entry class.
using Samples = std::map<std::string, std::vector<double>>;

std::vector<double> pooled(const Samples &S) {
  std::vector<double> All;
  for (const auto &[Class, V] : S)
    All.insert(All.end(), V.begin(), V.end());
  return All;
}

/// The geometric mean over classes of each class's \p Q quantile. The
/// heavy pool's programs differ in cost by up to 4x, so a quantile of
/// all samples together falls between two programs' modes and jumps
/// from run to run; within a class the samples have one mode.
double classQuantile(const Samples &S, double Q) {
  std::vector<double> PerClass;
  for (const auto &[Class, V] : S)
    PerClass.push_back(quantile(V, Q));
  return geomean(PerClass);
}

/// Per-client measurements, merged after the clients join.
struct ClientLog {
  Tally T;
  Samples BatchUs, SessionUs;
  uint64_t Tokens = 0, Batches = 0, Sessions = 0, BatchBytes = 0;
  /// Traced runs: one span per RPC, in issue order.
  struct Span {
    const char *Op;
    double DurS;
  };
  std::vector<Span> Spans;

  void merge(const ClientLog &O) {
    T.Attempted += O.T.Attempted;
    T.Failed += O.T.Failed;
    for (auto [Dst, Src] : {std::pair{&BatchUs, &O.BatchUs},
                            {&SessionUs, &O.SessionUs}})
      for (const auto &[Class, V] : *Src)
        (*Dst)[Class].insert((*Dst)[Class].end(), V.begin(), V.end());
    Tokens += O.Tokens;
    Batches += O.Batches;
    Sessions += O.Sessions;
    BatchBytes += O.BatchBytes;
    Spans.insert(Spans.end(), O.Spans.begin(), O.Spans.end());
  }
};

/// One tenant session over the wire.
void daemonSession(Conn &C, const PoolEntry &E,
                   const std::vector<PoolEntry::Round> &Rounds,
                   bool Traced, ClientLog &Log) {
  auto Call = [&](const char *Op, const std::string &Line) {
    const double T0 = nowS();
    json::ValuePtr V = rpc(C, Line, Op, Log.T);
    if (Traced)
      Log.Spans.push_back({Op, nowS() - T0});
    return V;
  };
  const double S0 = nowS();
  json::ValuePtr Plan = Call("compile", E.CompileLine);
  if (!Plan)
    return;
  const int64_t PlanId = Plan->get("plan")->asInt();
  if (json::ValuePtr Inst = Call("spawn", idLine("spawn", "plan", PlanId))) {
    const int64_t Id = Inst->get("instance")->asInt();
    const std::string PushHead =
        "{\"op\":\"push\",\"instance\":" + std::to_string(Id) +
        ",\"iterations\":";
    const std::string PullLine = idLine("pull", "instance", Id);
    for (const PoolEntry::Round &R : Rounds) {
      const uint64_t Bytes0 = C.Bytes;
      const double B0 = nowS();
      if (!Call("push", PushHead + std::to_string(R.Iters) + ",\"data\":[" +
                            R.DataText + "]}\n"))
        break;
      json::ValuePtr Out = Call("pull", PullLine);
      if (!Out)
        break;
      Log.BatchUs[E.Class].push_back((nowS() - B0) * 1e6);
      Log.BatchBytes += C.Bytes - Bytes0;
      ++Log.Batches;
      Log.Tokens += R.Expect.size();
      Log.T.check(sameTokens(*Out->get("data"), R.Expect),
                  E.Label + ": batch differs from the solo interpreter run");
    }
    Call("free-instance", idLine("free-instance", "instance", Id));
  }
  Call("release-plan", idLine("release-plan", "plan", PlanId));
  Log.SessionUs[E.Class].push_back((nowS() - S0) * 1e6);
  ++Log.Sessions;
}

uint64_t counter(const json::ValuePtr &Stats, const char *Name) {
  return Stats ? uint64_t(
                     Stats->get("stats")->get("counters")->get(Name)->asInt())
               : 0;
}

json::ValuePtr daemonStats(const Daemon &D) {
  Conn C(D.socket());
  std::string Reply, Err;
  if (!C.ok() || !C.call("{\"op\":\"stats\"}\n", Reply))
    return nullptr;
  return json::parse(Reply, Err);
}

driver::Compilation compileEntry(const PoolEntry &E) {
  driver::CompileOptions CO;
  CO.TopName = E.Top;
  CO.Mode = E.Fifo ? driver::LoweringMode::Fifo
                   : driver::LoweringMode::Laminar;
  CO.OptLevel = 2;
  return driver::compile(E.Source, CO);
}

/// Steady interpreter ns/iter of \p C by the difference method.
double interpNsPerIter(const driver::Compilation &C) {
  auto Time = [&](int64_t N) {
    const double T0 = nowS();
    driver::runWithRandomInput(C, N, 1);
    return nowS() - T0;
  };
  const int64_t NShort = 4;
  int64_t N = 64;
  double TL = Time(N);
  while (TL < 0.02 && N < (int64_t(1) << 24))
    TL = Time(N *= 4);
  std::vector<double> Est;
  for (int R = 0; R < 3; ++R)
    Est.push_back(std::max(Time(N) - Time(NShort), 1e-9) * 1e9 /
                  double(N - NShort));
  return median(Est);
}

} // namespace

ServeShape makeShape(const std::string &Name, uint64_t Seed) {
  ServeShape S;
  S.Name = Name;
  auto Add = [&](const std::string &Label, const std::string &Source,
                 const std::string &Top, bool Fifo) {
    PoolEntry E;
    E.Label = Label;
    E.Class = Label.rfind("Variant", 0) == 0 ? "Variant" : Label;
    E.Source = Source;
    E.Top = Top;
    E.Fifo = Fifo;
    E.CompileLine = "{\"op\":\"compile\",\"source\":\"" +
                    json::escape(Source) + "\",\"top\":\"" + Top +
                    "\",\"fifo\":" + (Fifo ? "true" : "false") + "}\n";
    S.Pool.push_back(std::move(E));
  };
  auto AddSuite = [&](const std::string &Prog, bool Fifo) {
    const suite::Benchmark *B = suite::findBenchmark(Prog);
    Add(Prog + (Fifo ? ".fifo" : ""), B->Source, B->Top, Fifo);
  };
  if (Name == "light") {
    // Suite programs and variants alternate down the Zipf ranking, so
    // hits and misses both land on each kind.
    RNG R(mixSeed(Seed, 7));
    int Variant = 0;
    auto AddVariant = [&] {
      Add("Variant" + std::to_string(Variant), variantSource(Variant, R),
          "Variant", false);
      ++Variant;
    };
    for (const char *P : kLightPrograms)
      for (bool Fifo : {false, true}) {
        AddSuite(P, Fifo);
        AddVariant();
      }
    while (Variant < 20)
      AddVariant();
    // Fewer cache entries than sources: misses and evictions run
    // beside hits.
    S.CacheEntries = 16;
    S.Rounds = 32;
    S.Zipf = true;
  } else {
    for (const char *P : kHeavyPrograms)
      AddSuite(P, false);
    S.Rounds = 4;
    S.MinIters = S.MaxIters = 64;
  }
  return S;
}

void serveReferences(ServeShape &S, uint64_t Seed, bool PlantFault,
                     Tally &T) {
  for (size_t EI = 0; EI < S.Pool.size(); ++EI) {
    PoolEntry &E = S.Pool[EI];
    E.Sessions.clear();
    driver::Compilation C = compileEntry(E);
    T.check(C.Ok, E.Label + ": compile: " + C.ErrorLog);
    if (!C.Ok)
      continue;
    for (int V = 0; V < SessionsPerEntry; ++V) {
      const uint64_t In = mixSeed(Seed, 1000 + EI * SessionsPerEntry + V);
      RNG R(In);
      std::vector<int64_t> Iters;
      int64_t Total = 0;
      for (int K = 0; K < S.Rounds; ++K) {
        Iters.push_back(S.MinIters + R.nextInt(S.MaxIters - S.MinIters + 1));
        Total += Iters.back();
      }
      const interp::TokenStream Input = interp::makeRandomInput(
          C.Module->getInputType(), driver::requiredInputTokens(C, Total),
          In);
      const interp::RunResult Solo = driver::runWithRandomInput(C, Total, In);
      const interp::RunResult One = driver::runWithRandomInput(C, 1, In);
      const interp::RunResult Two = driver::runWithRandomInput(C, 2, In);
      T.check(Solo.Ok && One.Ok && Two.Ok,
              E.Label + ": interpret: " + Solo.Error);
      const size_t PerIter = Two.Outputs.size() - One.Outputs.size();
      const size_t InitOut = One.Outputs.size() - PerIter;
      std::vector<PoolEntry::Round> Rounds;
      int64_t Cum = 0;
      for (int64_t N : Iters) {
        PoolEntry::Round Rd;
        Rd.Iters = N;
        const size_t InFrom =
            Cum ? driver::requiredInputTokens(C, Cum) : 0;
        const size_t OutFrom = Cum ? InitOut + Cum * PerIter : 0;
        Cum += N;
        Rd.In = slice(Input, InFrom, driver::requiredInputTokens(C, Cum));
        Rd.DataText = renderCsv(Rd.In);
        Rd.Expect = slice(Solo.Outputs, OutFrom, InitOut + Cum * PerIter);
        Rounds.push_back(std::move(Rd));
      }
      T.check(InitOut + Total * PerIter == Solo.Outputs.size(),
              E.Label + ": output rate is not constant");
      E.Sessions.push_back(std::move(Rounds));
    }
  }
  if (PlantFault)
    for (PoolEntry &E : S.Pool)
      for (PoolEntry::Round &Rd : E.Sessions.at(0))
        if (Rd.Expect.size()) {
          if (Rd.Expect.Ty == lir::TypeKind::Int)
            Rd.Expect.I[0] += 1;
          else
            Rd.Expect.F[0] += 1.0;
          return;
        }
}

bool Daemon::start(const ServeShape &S, unsigned Workers) {
  stop();
  // A relative path: the working directory can be deeper than an
  // AF_UNIX address allows.
  Sock = "laminard-" + std::to_string(getpid()) + ".sock";
  const std::vector<std::string> Argv = {
      PERFBENCH_LAMINARD, "--socket", Sock, "--workers",
      std::to_string(Workers), "--cache-entries",
      std::to_string(S.CacheEntries)};
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  Pid = fork();
  if (Pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (int Null = open("/dev/null", O_WRONLY); Null >= 0) {
      dup2(Null, STDOUT_FILENO);
      dup2(Null, STDERR_FILENO);
    }
    execv(Args[0], Args.data());
    _exit(127);
  }
  if (Pid < 0)
    return false;
  for (double Deadline = nowS() + 30; nowS() < Deadline;) {
    Conn C(Sock);
    std::string Reply;
    if (C.ok() && C.call("{\"op\":\"ping\"}\n", Reply))
      return true;
    if (waitpid(Pid, nullptr, WNOHANG) == Pid) {
      Pid = -1;
      return false;
    }
    usleep(2000);
  }
  return false;
}

void Daemon::stop() {
  if (Pid < 0)
    return;
  {
    Conn C(Sock);
    std::string Reply;
    if (C.ok())
      C.call("{\"op\":\"shutdown\"}\n", Reply);
  }
  int St = 0;
  for (double Deadline = nowS() + 10; nowS() < Deadline; usleep(2000))
    if (waitpid(Pid, &St, WNOHANG) == Pid) {
      Pid = -1;
      return;
    }
  kill(Pid, SIGKILL);
  waitpid(Pid, &St, 0);
  Pid = -1;
  unlink(Sock.c_str());
}

double Daemon::cpuS() const {
  clockid_t Clock;
  timespec T{};
  if (Pid < 0 || clock_getcpuclockid(Pid, &Clock) != 0 ||
      clock_gettime(Clock, &T) != 0)
    return 0;
  return double(T.tv_sec) + double(T.tv_nsec) / 1e9;
}

double Daemon::peakRssMb() const {
  std::ifstream F("/proc/" + std::to_string(Pid) + "/status");
  for (std::string Line; std::getline(F, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

void warmDaemon(const Daemon &D, const ServeShape &S, Tally &T) {
  Conn C(D.socket());
  T.check(C.ok(), "connect to laminard");
  if (!C.ok())
    return;
  for (const PoolEntry &E : S.Pool) {
    json::ValuePtr Plan = rpc(C, E.CompileLine, "compile", T);
    if (!Plan)
      continue;
    const int64_t PlanId = Plan->get("plan")->asInt();
    if (json::ValuePtr I = rpc(C, idLine("spawn", "plan", PlanId), "spawn", T))
      rpc(C, idLine("free-instance", "instance", I->get("instance")->asInt()),
          "free-instance", T);
    rpc(C, idLine("release-plan", "plan", PlanId), "release-plan", T);
  }
}

void runServe(const Daemon &D, const ServeShape &S, uint64_t Seed,
              double Seconds, bool Traced, Report &Out, Tally &T,
              double *BatchP50Us) {
  const json::ValuePtr Before = Traced ? daemonStats(D) : nullptr;
  std::vector<ClientLog> Logs(S.Connections);
  std::vector<std::thread> Clients;
  const HostContention H0 = HostContention::now();
  const double DaemonCpu0 = D.cpuS();
  const double T0 = nowS(), End = T0 + Seconds;
  for (unsigned K = 0; K < S.Connections; ++K)
    Clients.emplace_back([&, K] {
      ClientLog &Log = Logs[K];
      Conn C(D.socket());
      Log.T.check(C.ok(), "connect to laminard");
      SessionPicker Pick(S, Seed, K);
      while (C.ok() && nowS() < End) {
        const auto [E, V] = Pick.next();
        if (S.Pool[E].Sessions.size() != SessionsPerEntry)
          continue;
        daemonSession(C, S.Pool[E], S.Pool[E].Sessions[V], Traced, Log);
        if (Log.T.Failed)
          break;
      }
    });
  for (std::thread &C : Clients)
    C.join();
  const double Wall = nowS() - T0, DaemonCpuS = D.cpuS() - DaemonCpu0;
  const HostContention H1 = HostContention::now();
  T.check(DaemonCpuS > 0, "laminard CPU clock");

  ClientLog All;
  for (const ClientLog &L : Logs)
    All.merge(L);
  T.Attempted += All.T.Attempted;
  T.Failed += All.T.Failed;
  const double TokensPerS = double(All.Tokens) / Wall;
  const double TokensPerCpuS =
      DaemonCpuS > 0 ? double(All.Tokens) / DaemonCpuS : 0;
  std::printf("serve %s: %u connections, %llu sessions, %llu batches in "
              "%.2f s; %.0f tokens/s, %.0f tokens per laminard CPU s "
              "(%.2f cores)\n",
              S.Name.c_str(), S.Connections,
              static_cast<unsigned long long>(All.Sessions),
              static_cast<unsigned long long>(All.Batches), Wall, TokensPerS,
              TokensPerCpuS, DaemonCpuS / Wall);
  std::printf("  host: %.1f%% of CPU time stolen, tasks waited for a CPU "
              "%.1f%% of the time\n",
              100 * (H1.StealS - H0.StealS) /
                  (Wall * std::max(1u, std::thread::hardware_concurrency())),
              100 * (H1.CpuWaitS - H0.CpuWaitS) / Wall);
  std::printf("  %-22s %8s %9s %9s %9s %9s %9s\n", "class (ms)", "batches",
              "p50", "p90", "sessions", "p50", "p90");
  for (const auto &[Class, V] : All.BatchUs) {
    const std::vector<double> &SV = All.SessionUs[Class];
    std::printf("  %-22s %8zu %9.4f %9.4f %9zu %9.3f %9.3f\n", Class.c_str(),
                V.size(), median(V) / 1e3, quantile(V, 0.9) / 1e3, SV.size(),
                median(SV) / 1e3, quantile(SV, 0.9) / 1e3);
  }
  std::printf("  all classes: batch p99 %.4f ms, session p99 %.4f ms\n",
              quantile(pooled(All.BatchUs), 0.99) / 1e3,
              quantile(pooled(All.SessionUs), 0.99) / 1e3);
  if (BatchP50Us)
    *BatchP50Us = classQuantile(All.BatchUs, 0.5);
  // Wall-clock rates and latencies follow the host: with a quarter of
  // its CPU time taken (steal), a closed loop's p90 latency doubles. So
  // the end-to-end serving metric is the daemon's CPU cost, which
  // leaves steal out; the wall-clock figures are layer metrics of the
  // traced run.
  if (!Traced) {
    Out.set("tokens_per_cpu_s", TokensPerCpuS, "tokens/s");
    return;
  }
  Out.set("laminard.tokens_per_s", TokensPerS, "tokens/s");
  Out.set("laminard.batch_p50_ms", classQuantile(All.BatchUs, 0.5) / 1e3,
          "ms");
  Out.set("laminard.batch_p90_ms", classQuantile(All.BatchUs, 0.9) / 1e3,
          "ms");
  Out.set("laminard.session_p50_ms",
          classQuantile(All.SessionUs, 0.5) / 1e3, "ms");
  Out.set("laminard.session_p90_ms",
          classQuantile(All.SessionUs, 0.9) / 1e3, "ms");

  // Traced: per-op wire latency from the spans, cache counters from
  // the daemon's stats op.
  std::printf("  laminard RPC p50 (us):");
  for (const char *Op : {"compile", "spawn", "push", "pull",
                         "free-instance", "release-plan"}) {
    std::vector<double> Us;
    for (const ClientLog::Span &Sp : All.Spans)
      if (std::strcmp(Sp.Op, Op) == 0)
        Us.push_back(Sp.DurS * 1e6);
    std::printf(" %s %.1f", Op, median(Us));
  }
  std::printf(" (%zu spans)\n", All.Spans.size());
  const json::ValuePtr After = daemonStats(D);
  const double Hits = double(counter(After, "server.cache.hit") -
                             counter(Before, "server.cache.hit"));
  const double Misses = double(counter(After, "server.cache.miss") -
                               counter(Before, "server.cache.miss"));
  Out.set("server.cache.hit_ratio",
          Hits + Misses > 0 ? Hits / (Hits + Misses) : 0, "ratio");
  Out.set("server.cache.evictions",
          double(counter(After, "server.cache.evict") -
                 counter(Before, "server.cache.evict")),
          "count");
  Out.set("laminard.bytes_per_batch",
          All.Batches ? double(All.BatchBytes) / double(All.Batches) : 0,
          "bytes");
}

void replayInProcess(const ServeShape &S, uint64_t Seed, double Seconds,
                     unsigned Workers, double DaemonBatchUs, Report &Out,
                     Tally &T) {
  server::ServerConfig Cfg;
  Cfg.Workers = Workers;
  Cfg.CacheEntries = S.CacheEntries;
  server::StreamServer Srv(Cfg);
  auto Options = [](const PoolEntry &E) {
    server::PlanOptions PO;
    PO.TopName = E.Top;
    PO.Mode = E.Fifo ? driver::LoweringMode::Fifo
                     : driver::LoweringMode::Laminar;
    return PO;
  };

  struct Log {
    Tally T;
    std::vector<double> HitUs, ColdMs, SpawnUs, PushUs, PullUs, FreeUs;
    Samples RoundUs;
    /// (pool entry, iterations, pull wait us) per batch.
    std::vector<std::tuple<size_t, int64_t, double>> Batches;
  };
  std::vector<Log> Logs(S.Connections);
  std::vector<std::thread> Clients;
  const double End = nowS() + Seconds;
  for (unsigned K = 0; K < S.Connections; ++K)
    Clients.emplace_back([&, K] {
      Log &L = Logs[K];
      SessionPicker Pick(S, Seed, K);
      while (nowS() < End && !L.T.Failed) {
        const auto [EI, V] = Pick.next();
        const PoolEntry &E = S.Pool[EI];
        if (E.Sessions.size() != SessionsPerEntry)
          continue;
        std::string Err;
        bool Hit = false;
        double T0 = nowS();
        auto Plan = Srv.compile(E.Source, Options(E), Err, &Hit);
        (Hit ? L.HitUs : L.ColdMs).push_back((nowS() - T0) * (Hit ? 1e6 : 1e3));
        L.T.check(Plan != nullptr, E.Label + ": in-process compile: " + Err);
        if (!Plan)
          continue;
        T0 = nowS();
        auto I = Srv.spawn(Plan);
        L.SpawnUs.push_back((nowS() - T0) * 1e6);
        for (const PoolEntry::Round &Rd : E.Sessions[V]) {
          T0 = nowS();
          const server::BatchStatus P = Srv.pushBatch(*I, Rd.In.view(), Rd.Iters);
          const double T1 = nowS();
          interp::TokenStream Got;
          const server::BatchStatus Q =
              P == server::BatchStatus::Ok ? I->pullBatch(Got) : P;
          const double T2 = nowS();
          L.T.check(Q == server::BatchStatus::Ok && sameTokens(Got, Rd.Expect),
                    E.Label + ": in-process batch differs from the solo run");
          L.PushUs.push_back((T1 - T0) * 1e6);
          L.PullUs.push_back((T2 - T1) * 1e6);
          L.RoundUs[E.Class].push_back((T2 - T0) * 1e6);
          L.Batches.emplace_back(EI, Rd.Iters, (T2 - T1) * 1e6);
        }
        T0 = nowS();
        Srv.freeInstance(I->id());
        L.FreeUs.push_back((nowS() - T0) * 1e6);
      }
    });
  for (std::thread &C : Clients)
    C.join();
  Log All;
  for (Log &L : Logs) {
    T.Attempted += L.T.Attempted;
    T.Failed += L.T.Failed;
    for (auto [Dst, Src] :
         {std::pair{&All.HitUs, &L.HitUs}, {&All.ColdMs, &L.ColdMs},
          {&All.SpawnUs, &L.SpawnUs}, {&All.PushUs, &L.PushUs},
          {&All.PullUs, &L.PullUs}, {&All.FreeUs, &L.FreeUs}})
      Dst->insert(Dst->end(), Src->begin(), Src->end());
    for (const auto &[Class, V] : L.RoundUs)
      All.RoundUs[Class].insert(All.RoundUs[Class].end(), V.begin(), V.end());
    All.Batches.insert(All.Batches.end(), L.Batches.begin(), L.Batches.end());
  }
  T.check(Srv.verifyPlansImmutable(), "in-process plans changed while shared");

  // Solo execute time per batch, from each entry's interpreter ns/iter.
  std::vector<double> NsPerIter(S.Pool.size(), 0);
  std::vector<bool> Used(S.Pool.size(), false);
  for (const auto &B : All.Batches)
    Used[std::get<0>(B)] = true;
  for (size_t K = 0; K < S.Pool.size(); ++K)
    if (Used[K])
      NsPerIter[K] = interpNsPerIter(compileEntry(S.Pool[K]));
  std::vector<double> QueueUs;
  for (const auto &[EI, Iters, PullUs] : All.Batches)
    QueueUs.push_back(PullUs - Iters * NsPerIter[EI] / 1e3);

  std::printf("in-process replay: %zu batches, %zu cold compiles\n",
              All.PushUs.size(), All.ColdMs.size());
  Out.set("server.push_us", median(All.PushUs), "us");
  Out.set("server.pull_wait_us", median(All.PullUs), "us");
  Out.set("server.queue_us", median(QueueUs), "us");
  Out.set("server.compile_hit_us", median(All.HitUs), "us");
  Out.set("server.compile_cold_ms", median(All.ColdMs), "ms");
  Out.set("server.spawn_us", median(All.SpawnUs), "us");
  Out.set("server.free_us", median(All.FreeUs), "us");
  Out.set("laminard.wire_us",
          DaemonBatchUs - classQuantile(All.RoundUs, 0.5), "us");

  // The interpreter alone on the heavy and light plans (laminar-O2).
  std::vector<const char *> Plans(std::begin(kHeavyPrograms),
                                  std::end(kHeavyPrograms));
  Plans.insert(Plans.end(), std::begin(kLightPrograms),
               std::end(kLightPrograms));
  for (const char *P : Plans) {
    PoolEntry E;
    E.Source = suite::findBenchmark(P)->Source;
    E.Top = suite::findBenchmark(P)->Top;
    Out.set(std::string("interp.ns_per_iter.") + P,
            interpNsPerIter(compileEntry(E)), "ns");
  }
}

} // namespace perfbench
