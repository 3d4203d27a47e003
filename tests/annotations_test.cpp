//===- tests/annotations_test.cpp - capability wrapper tests ---*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime behavior of the capability-wrapped primitives in
/// support/ThreadAnnotations.h — the wrappers must be functionally
/// identical to the std types they hold — plus compile-time pins that
/// the annotation macros expand to nothing on non-Clang compilers.
///
/// The *negative* side (locking-discipline violations must fail to
/// compile under clang -Wthread-safety -Werror) cannot live in a
/// runtime test; cmake/AnnotationChecks.cmake covers it with
/// try_compile over tests/annotations/*.cpp at configure time.
///
//===----------------------------------------------------------------------===//

#include "support/ThreadAnnotations.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

using namespace netupd;

// ---- Macro no-op pin -------------------------------------------------------
//
// On a non-Clang compiler every NETUPD_* annotation must vanish entirely:
// stringifying the expansion yields the empty string (sizeof 1 — just
// the NUL). On Clang the expansion is the attribute, so the sizeof is
// larger. Either way the macros must never change codegen; this pins the
// off-Clang half, and the CI clang lane exercises the on-Clang half by
// building this same test with the attributes live.

#define NETUPD_TEST_STR_INNER(x) #x
#define NETUPD_TEST_STR(x) NETUPD_TEST_STR_INNER(x)

#if !defined(__clang__)
static_assert(sizeof(NETUPD_TEST_STR(NETUPD_GUARDED_BY(M))) == 1,
              "NETUPD_GUARDED_BY must expand to nothing off-Clang");
static_assert(sizeof(NETUPD_TEST_STR(NETUPD_REQUIRES(M))) == 1,
              "NETUPD_REQUIRES must expand to nothing off-Clang");
static_assert(sizeof(NETUPD_TEST_STR(NETUPD_ACQUIRE(M))) == 1,
              "NETUPD_ACQUIRE must expand to nothing off-Clang");
static_assert(sizeof(NETUPD_TEST_STR(NETUPD_RELEASE(M))) == 1,
              "NETUPD_RELEASE must expand to nothing off-Clang");
static_assert(sizeof(NETUPD_TEST_STR(NETUPD_CAPABILITY("mutex"))) == 1,
              "NETUPD_CAPABILITY must expand to nothing off-Clang");
static_assert(sizeof(NETUPD_TEST_STR(NETUPD_SCOPED_CAPABILITY)) == 1,
              "NETUPD_SCOPED_CAPABILITY must expand to nothing off-Clang");
static_assert(sizeof(NETUPD_TEST_STR(NETUPD_EXCLUDES(M))) == 1,
              "NETUPD_EXCLUDES must expand to nothing off-Clang");
#endif

// The wrappers must add no storage beyond the std primitive they hold.
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "Mutex wrapper must be layout-identical to std::mutex");

// ---- Mutex / MutexLock -----------------------------------------------------

TEST(AnnotationsTest, MutexExcludesConcurrentCriticalSections) {
  Mutex M;
  int Guarded = 0;
  constexpr int NumThreads = 8, PerThread = 2000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I < PerThread; ++I) {
        MutexLock Lock(M);
        ++Guarded;
      }
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Guarded, NumThreads * PerThread);
}

TEST(AnnotationsTest, MutexTryLockReflectsOwnership) {
  Mutex M;
  EXPECT_TRUE(M.try_lock());
  // Held: a second claim from another thread must fail.
  bool Second = true;
  std::thread([&] { Second = M.try_lock(); }).join();
  EXPECT_FALSE(Second);
  M.unlock();
  EXPECT_TRUE(M.try_lock());
  M.unlock();
}

// ---- CondVar: the Engine queue handshake in miniature ----------------------

TEST(AnnotationsTest, CondVarWakesWaiterAndKeepsCapability) {
  Mutex M;
  CondVar CV;
  bool Ready = false;
  int Observed = -1;
  std::thread Waiter([&] {
    MutexLock Lock(M);
    while (!Ready)
      CV.wait(M);
    // The capability must still be held here: this read is racy
    // otherwise, and the ASan/TSan lanes would flag it.
    Observed = Ready ? 1 : 0;
  });
  {
    MutexLock Lock(M);
    Ready = true;
  }
  CV.notify_one();
  Waiter.join();
  EXPECT_EQ(Observed, 1);
}

TEST(AnnotationsTest, CondVarNotifyAllWakesEveryWaiter) {
  Mutex M;
  CondVar CV;
  bool Go = false;
  std::atomic<int> Awake{0};
  constexpr int NumWaiters = 4;
  std::vector<std::thread> Waiters;
  for (int I = 0; I < NumWaiters; ++I)
    Waiters.emplace_back([&] {
      MutexLock Lock(M);
      while (!Go)
        CV.wait(M);
      Awake.fetch_add(1);
    });
  {
    MutexLock Lock(M);
    Go = true;
  }
  CV.notify_all();
  for (auto &T : Waiters)
    T.join();
  EXPECT_EQ(Awake.load(), NumWaiters);
}
