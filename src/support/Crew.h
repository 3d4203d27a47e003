//===- support/Crew.h - Parked per-thread crews for nested work -*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way nested work runs: a Crew is a set of threads owned by one
/// thread and serving only it. The owner hands the crew a round of N
/// bodies with run(); crew thread I runs body I, and the owner waits for
/// all N before run() returns. Between rounds the threads park on a
/// condition variable, so a round creates no threads once the crew has
/// grown to N.
///
/// Every thread that runs nested work owns exactly one crew, reached
/// through Crew::local(): a function-local `thread_local` created on
/// first use and destroyed, joining its threads, when the owner exits.
/// It grows to the widest round its owner has run and never shrinks. A
/// crew thread is itself a thread, so a body that runs nested work of
/// its own uses *that* thread's crew, never its owner's. Two layers use
/// it (see "Nested work and the pool" in engine/Engine.h):
///  - SynthEngine::runOneJob runs the members of a multi-member portfolio
///    job as one round on the worker thread's crew, the worker waiting;
///  - runSearch (synth/OrderUpdate.cpp) runs the extra DFS shards of a
///    search as one round on its thread's crew, the thread running the
///    primary shard meanwhile.
/// So a member's shards run on the member's crew thread's own crew.
///
/// The protocol cannot deadlock as long as a body never calls run() on
/// the crew that is running it: the owner is the only caller of run(),
/// it waits only for its own round, and crew threads run bodies and
/// nothing else. That is why the owner of a member round runs no member
/// itself: a sharded member would call run() on the same crew mid-round.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SUPPORT_CREW_H
#define NETUPD_SUPPORT_CREW_H

#include "support/ThreadAnnotations.h"

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace netupd {

class Crew {
public:
  Crew() = default;
  Crew(const Crew &) = delete;
  Crew &operator=(const Crew &) = delete;

  ~Crew() {
    {
      MutexLock Lock(M);
      Exiting = true;
    }
    Wake.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  /// The calling thread's crew, created on its first round and joined
  /// when the thread exits.
  static Crew &local() {
    thread_local Crew C;
    return C;
  }

  /// Runs Body(I) for every I in [0, N) on crew threads while the caller
  /// runs \p Own, growing the crew first if needed. Returns once every
  /// body has returned, also when Own unwinds, so Body and whatever it
  /// references may live on the caller's stack. Only the owner may call
  /// it, and never from inside one of its own bodies.
  template <class OwnFn>
  void run(unsigned N, const std::function<void(unsigned)> &Body, OwnFn Own) {
    start(N, Body);
    struct Waiter {
      Crew &C;
      ~Waiter() { C.wait(); }
    } W{*this};
    Own();
  }

private:
  void start(unsigned N, const std::function<void(unsigned)> &Body) {
    // A thread spawned here waits for the round published below: its
    // index is past every earlier round's Active.
    while (Threads.size() < N) {
      unsigned Idx = static_cast<unsigned>(Threads.size());
      Threads.emplace_back([this, Idx] { serve(Idx); });
    }
    {
      MutexLock Lock(M);
      RoundBody = &Body;
      Active = N;
      Pending = N;
      ++Round;
    }
    Wake.notify_all();
  }

  void wait() {
    MutexLock Lock(M);
    while (Pending != 0)
      Done.wait(M);
    RoundBody = nullptr;
  }

  /// Crew thread \p Idx: runs Body(Idx) once per round with Idx < Active.
  void serve(unsigned Idx) {
    uint64_t Seen = 0;
    M.lock();
    for (;;) {
      while (!Exiting && (Round == Seen || Idx >= Active))
        Wake.wait(M);
      if (Exiting)
        break;
      Seen = Round;
      const std::function<void(unsigned)> *Body = RoundBody;
      M.unlock();
      (*Body)(Idx);
      M.lock();
      if (--Pending == 0)
        Done.notify_one();
    }
    M.unlock();
  }

  Mutex M;
  CondVar Wake; // Signals a new round or exit to the crew.
  CondVar Done; // Signals the owner that the round's last body returned.
  const std::function<void(unsigned)> *RoundBody NETUPD_GUARDED_BY(M) =
      nullptr;
  unsigned Active NETUPD_GUARDED_BY(M) = 0;  // Bodies in the current round.
  unsigned Pending NETUPD_GUARDED_BY(M) = 0; // Of those, still running.
  uint64_t Round NETUPD_GUARDED_BY(M) = 0;
  bool Exiting NETUPD_GUARDED_BY(M) = false;
  std::vector<std::thread> Threads; // Touched by the owner only.
};

} // namespace netupd

#endif // NETUPD_SUPPORT_CREW_H
