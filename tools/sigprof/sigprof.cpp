//===- tools/sigprof/sigprof.cpp - LD_PRELOAD CPU sampler -------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sampling CPU profiler for hosts without `perf`. Preload it into any
/// binary; an ITIMER_PROF timer then interrupts whichever thread is
/// burning CPU, and the handler records the interrupted PC and a
/// backtrace into a preallocated buffer. At exit the samples and a copy
/// of /proc/self/maps go to one text file, which
/// scripts/sigprof_report.py symbolizes into self and inclusive shares:
///
///   cmake --build build --target sigprof
///   LD_PRELOAD=build/libsigprof.so SIGPROF_OUT=prof.txt ./some_binary
///   python3 scripts/sigprof_report.py prof.txt
///
/// Environment: SIGPROF_OUT, the output path (default sigprof.out). The
/// timer fires 1000 times per CPU-second, and the buffer holds 200,000
/// samples (200 CPU-seconds; it is mapped lazily, so unused slots cost
/// no memory). Later samples are counted as dropped.
///
/// Output format: "# sigprof samples N dropped D", one line per sample
/// with hex addresses innermost first (the first one is the interrupted
/// PC, the rest are return addresses), then "# maps" and the maps text.
///
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <execinfo.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

namespace {

constexpr int MaxDepth = 48;
constexpr size_t Capacity = 200000;
constexpr long IntervalUsec = 1000; // 1 kHz of CPU time.

struct Sample {
  uint32_t Depth;
  uintptr_t Frames[MaxDepth];
};

Sample *Samples = nullptr;
std::atomic<size_t> Next{0};
std::atomic<size_t> Dropped{0};

uintptr_t interruptedPc(void *Ctx) {
  auto *UC = static_cast<ucontext_t *>(Ctx);
#if defined(__x86_64__)
  return static_cast<uintptr_t>(UC->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<uintptr_t>(UC->uc_mcontext.pc);
#else
  (void)UC;
  return 0;
#endif
}

void onProf(int, siginfo_t *, void *Ctx) {
  int SavedErrno = errno;
  // relaxed: slot claims need only be unique; the exit dump runs after
  // the timer is stopped.
  size_t Slot = Next.fetch_add(1, std::memory_order_relaxed);
  if (Slot >= Capacity) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    errno = SavedErrno;
    return;
  }
  Sample &S = Samples[Slot];
  void *Raw[MaxDepth + 4];
  int N = backtrace(Raw, MaxDepth + 4);
  uintptr_t Pc = interruptedPc(Ctx);
  // The unwinder walks the handler and the signal trampoline first; keep
  // the frames from the interrupted PC on.
  int First = 0;
  while (First < N && reinterpret_cast<uintptr_t>(Raw[First]) != Pc)
    ++First;
  uint32_t Depth = 0;
  if (First == N) {
    S.Frames[Depth++] = Pc; // Unwinding failed: keep the PC alone.
  } else {
    for (int I = First; I < N && Depth < MaxDepth; ++I)
      S.Frames[Depth++] = reinterpret_cast<uintptr_t>(Raw[I]);
  }
  S.Depth = Depth;
  errno = SavedErrno;
}

void writeAll(int Fd, const char *Buf, size_t Len) {
  while (Len > 0) {
    ssize_t W = write(Fd, Buf, Len);
    if (W <= 0)
      return;
    Buf += W;
    Len -= static_cast<size_t>(W);
  }
}

__attribute__((constructor)) void start() {
  void *Mem = mmap(nullptr, Capacity * sizeof(Sample), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (Mem == MAP_FAILED)
    return;
  Samples = static_cast<Sample *>(Mem);

  // The first backtrace() loads the unwinder, which may allocate; do it
  // here rather than inside the signal handler.
  void *Warm[2];
  backtrace(Warm, 2);

  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_sigaction = onProf;
  SA.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&SA.sa_mask);
  sigaction(SIGPROF, &SA, nullptr);

  itimerval T;
  T.it_interval.tv_sec = 0;
  T.it_interval.tv_usec = IntervalUsec;
  T.it_value = T.it_interval;
  setitimer(ITIMER_PROF, &T, nullptr);
}

__attribute__((destructor)) void finish() {
  if (!Samples)
    return;
  itimerval Off;
  std::memset(&Off, 0, sizeof(Off));
  setitimer(ITIMER_PROF, &Off, nullptr);
  signal(SIGPROF, SIG_IGN);

  const char *Path = std::getenv("SIGPROF_OUT");
  if (!Path || !*Path)
    Path = "sigprof.out";
  FILE *Out = std::fopen(Path, "w");
  if (!Out)
    return;
  size_t Taken = Next.load(std::memory_order_relaxed);
  size_t Kept = Taken < Capacity ? Taken : Capacity;
  std::fprintf(Out, "# sigprof samples %zu dropped %zu\n", Kept,
               Dropped.load(std::memory_order_relaxed));
  for (size_t I = 0; I != Kept; ++I) {
    const Sample &S = Samples[I];
    for (uint32_t D = 0; D != S.Depth; ++D)
      std::fprintf(Out, D ? " %zx" : "%zx", static_cast<size_t>(S.Frames[D]));
    std::fputc('\n', Out);
  }
  std::fputs("# maps\n", Out);
  std::fflush(Out);

  int Maps = open("/proc/self/maps", O_RDONLY);
  if (Maps >= 0) {
    char Buf[4096];
    ssize_t N;
    while ((N = read(Maps, Buf, sizeof(Buf))) > 0)
      writeAll(fileno(Out), Buf, static_cast<size_t>(N));
    close(Maps);
  }
  std::fclose(Out);
}

} // namespace
