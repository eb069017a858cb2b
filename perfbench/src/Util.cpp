//===--- Util.cpp - perfbench plumbing --------------------------------------===//

#include "Util.h"
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <time.h>
#include <unistd.h>

using namespace laminar;

namespace perfbench {

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static double cpuClockS(clockid_t Clock) {
  timespec T{};
  clock_gettime(Clock, &T);
  return double(T.tv_sec) + double(T.tv_nsec) / 1e9;
}

double threadCpuS() { return cpuClockS(CLOCK_THREAD_CPUTIME_ID); }
double processCpuS() { return cpuClockS(CLOCK_PROCESS_CPUTIME_ID); }

uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ULL * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  Z ^= Z >> 31;
  return Z ? Z : 1;
}

ProcResult runProcess(const std::vector<std::string> &Argv, bool Capture,
                      double TimeoutS, const std::vector<int> &Cpus) {
  ProcResult R;
  int Pipe[2] = {-1, -1};
  if (pipe2(Pipe, O_CLOEXEC) != 0)
    return R;
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  const double T0 = nowS();
  const pid_t Pid = fork();
  if (Pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (!Cpus.empty()) {
      cpu_set_t Set;
      CPU_ZERO(&Set);
      for (int C : Cpus)
        CPU_SET(C, &Set);
      sched_setaffinity(0, sizeof Set, &Set);
    }
    // Without capture the pipe still rides along (inherited across
    // exec), so its EOF marks the child's exit for the timeout loop.
    if (Capture)
      dup2(Pipe[1], STDOUT_FILENO);
    else if (int Null = open("/dev/null", O_WRONLY); Null >= 0) {
      dup2(Null, STDOUT_FILENO);
      fcntl(Pipe[1], F_SETFD, 0);
    }
    execvp(Args[0], Args.data());
    _exit(127);
  }
  close(Pipe[1]);
  if (Pid < 0) {
    close(Pipe[0]);
    return R;
  }
  // Drain stdout until EOF (the child exited or closed it) or timeout.
  char Buf[1 << 16];
  const double Deadline = T0 + TimeoutS;
  for (;;) {
    const double Left = Deadline - nowS();
    if (Left <= 0) {
      kill(Pid, SIGKILL);
      break;
    }
    pollfd P{Pipe[0], POLLIN, 0};
    const int N = poll(&P, 1, static_cast<int>(std::min(Left, 1.0) * 1000));
    if (N < 0 && errno != EINTR)
      break;
    if (N <= 0)
      continue;
    const ssize_t Got = read(Pipe[0], Buf, sizeof Buf);
    if (Got > 0)
      R.Out.append(Buf, static_cast<size_t>(Got));
    else if (Got == 0 || errno != EINTR)
      break;
  }
  close(Pipe[0]);
  int St = 0;
  rusage Ru{};
  while (wait4(Pid, &St, 0, &Ru) < 0 && errno == EINTR)
    ;
  R.Seconds = nowS() - T0;
  R.CpuSeconds = double(Ru.ru_utime.tv_sec + Ru.ru_stime.tv_sec) +
                 double(Ru.ru_utime.tv_usec + Ru.ru_stime.tv_usec) / 1e6;
  R.Status = WIFEXITED(St) ? WEXITSTATUS(St) : 128 + WTERMSIG(St);
  return R;
}

std::vector<int> allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof Set, &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

std::vector<ProcResult>
runProcesses(const std::vector<std::vector<std::string>> &Cmds,
             unsigned Jobs, double TimeoutS) {
  std::vector<ProcResult> Results(Cmds.size());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < std::max(1u, Jobs); ++W)
    Workers.emplace_back([&] {
      for (size_t K; (K = Next++) < Cmds.size();)
        Results[K] = runProcess(Cmds[K], false, TimeoutS);
    });
  for (std::thread &T : Workers)
    T.join();
  return Results;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double interquartileMean(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t Lo = V.size() / 4, Hi = V.size() - V.size() / 4;
  double Sum = 0;
  for (size_t K = Lo; K < Hi; ++K)
    Sum += V[K];
  return Sum / double(Hi - Lo);
}

double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return V.empty() ? 0 : std::exp(LogSum / V.size());
}

void Checksum::addBits(uint64_t B) {
  Hash = (Hash ^ B) * 0x100000001b3ULL;
  ++Count;
}

void Checksum::add(const interp::TokenStream &S) {
  for (size_t K = 0; K < S.size(); ++K) {
    uint64_t B = 0x7ff8000000000000ULL;
    if (S.Ty == lir::TypeKind::Int)
      B = static_cast<uint64_t>(S.I[K]);
    else if (!std::isnan(S.F[K]))
      std::memcpy(&B, &S.F[K], sizeof B);
    addBits(B);
  }
}

std::string renderTokens(const interp::TokenStream &S) {
  std::string Out;
  char Buf[64];
  for (size_t K = 0; K < S.size(); ++K) {
    if (S.Ty == lir::TypeKind::Int)
      std::snprintf(Buf, sizeof Buf, "%" PRId64 "\n", S.I[K]);
    else
      std::snprintf(Buf, sizeof Buf, "%.17g\n", S.F[K]);
    Out += Buf;
  }
  return Out;
}

uint64_t elfTextBytes(const std::string &Path) {
  std::ifstream F(Path, std::ios::binary);
  std::string Img((std::istreambuf_iterator<char>(F)),
                  std::istreambuf_iterator<char>());
  auto Read = [&](size_t Off, auto &Out) {
    if (Off + sizeof Out > Img.size())
      return false;
    std::memcpy(&Out, Img.data() + Off, sizeof Out);
    return true;
  };
  if (Img.size() < 64 || Img.compare(0, 4, "\x7f" "ELF") != 0 ||
      Img[4] != 2)
    return 0;
  uint64_t ShOff = 0;
  uint16_t ShEntSize = 0, ShNum = 0, ShStrNdx = 0;
  if (!Read(0x28, ShOff) || !Read(0x3A, ShEntSize) || !Read(0x3C, ShNum) ||
      !Read(0x3E, ShStrNdx) || ShEntSize < 64)
    return 0;
  uint64_t StrOff = 0;
  if (!Read(ShOff + uint64_t(ShStrNdx) * ShEntSize + 0x18, StrOff))
    return 0;
  for (uint16_t K = 0; K < ShNum; ++K) {
    const uint64_t Sh = ShOff + uint64_t(K) * ShEntSize;
    uint32_t NameOff = 0;
    uint64_t Size = 0;
    if (!Read(Sh, NameOff) || !Read(Sh + 0x20, Size))
      return 0;
    const size_t At = StrOff + NameOff;
    if (At < Img.size() && std::strcmp(Img.c_str() + At, ".text") == 0)
      return Size;
  }
  return 0;
}

double selfAndChildrenPeakRssMb() {
  rusage Self{}, Kids{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Kids);
  return std::max(Self.ru_maxrss, Kids.ru_maxrss) / 1024.0;
}

HostContention HostContention::now() {
  HostContention H;
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  uint64_t Ticks[8] = {};
  Stat >> Cpu;
  for (uint64_t &T : Ticks)
    Stat >> T;
  H.StealS = double(Ticks[7]) / double(sysconf(_SC_CLK_TCK));
  std::ifstream Psi("/proc/pressure/cpu");
  for (std::string Word; Psi >> Word;)
    if (Word.rfind("total=", 0) == 0) {
      H.CpuWaitS = std::atof(Word.c_str() + 6) / 1e6;
      break;
    }
  return H;
}

void Tally::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::printf("FAIL: %s\n", What.c_str());
    std::fflush(stdout);
  }
}

void Report::set(const std::string &Name, double Value,
                 const std::string &Unit) {
  if (!Values.count(Name))
    Order.push_back(Name);
  Values[Name] = {Value, Unit};
}

std::string Report::json(const Tally &T) const {
  std::string Out = "{\"correct\": ";
  Out += T.Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(T.Attempted) +
         ", \"failed\": " + std::to_string(T.Failed) + ", \"metrics\": {";
  char Buf[64];
  for (size_t K = 0; K < Order.size(); ++K) {
    const auto &[V, Unit] = Values.at(Order[K]);
    std::snprintf(Buf, sizeof Buf, "%.17g", std::isfinite(V) ? V : 0.0);
    Out += (K ? ", \"" : "\"") + Order[K] + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Unit + "\"}";
  }
  return Out + "}}";
}

std::string Report::table() const {
  std::string Out;
  char Buf[256];
  for (const std::string &N : Order) {
    const auto &[V, Unit] = Values.at(N);
    std::snprintf(Buf, sizeof Buf, "  %-44s %16.6g %s\n", N.c_str(), V,
                  Unit.c_str());
    Out += Buf;
  }
  return Out;
}

} // namespace perfbench
