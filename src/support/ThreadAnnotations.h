//===- support/ThreadAnnotations.h - Clang TSA capability layer *- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clang Thread Safety Analysis annotations plus the capability-wrapped
/// synchronization primitives the whole concurrency surface uses. The
/// engine's locking discipline — which mutex guards which fields, which
/// methods require which capability — is declared here once and checked
/// at compile time by the `-Wthread-safety -Werror` CI lane; on GCC (and
/// any non-Clang compiler) every macro expands to nothing, so the
/// annotations are free and cannot change codegen
/// (tests/annotations_test.cpp pins both properties).
///
/// Usage pattern across the tree:
///
///   Mutex M;
///   int Guarded NETUPD_GUARDED_BY(M);
///   void touch() { MutexLock Lock(M); ++Guarded; }
///   void touchLocked() NETUPD_REQUIRES(M) { ++Guarded; }
///
/// Mutex mirrors the std::mutex it holds (lock / unlock / try_lock);
/// CondVar replaces std::condition_variable for waits on a wrapped
/// Mutex. Every acquisition in the tree is a MutexLock scope or a
/// CondVar wait.
///
/// Suppression policy (see docs/ARCHITECTURE.md, "Static analysis &
/// sanitizers"): there is none. No macro turns the analysis off for a
/// function, so every lock acquisition in the tree is checked.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SUPPORT_THREADANNOTATIONS_H
#define NETUPD_SUPPORT_THREADANNOTATIONS_H

#include <condition_variable>
#include <mutex>

// ---- Attribute macros ------------------------------------------------------
//
// The standard Clang TSA macro set (the naming follows the Clang docs and
// abseil's thread_annotations.h). Every macro is a no-op unless the
// compiler is Clang with thread-safety attributes available.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define NETUPD_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef NETUPD_THREAD_ANNOTATION
#define NETUPD_THREAD_ANNOTATION(x) // Expands to nothing off-Clang.
#endif

/// Marks a type as a capability (a lockable resource).
#define NETUPD_CAPABILITY(x) NETUPD_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define NETUPD_SCOPED_CAPABILITY NETUPD_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read/written while holding capability \p x.
#define NETUPD_GUARDED_BY(x) NETUPD_THREAD_ANNOTATION(guarded_by(x))

/// Pointee may only be accessed while holding capability \p x.
#define NETUPD_PT_GUARDED_BY(x) NETUPD_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability held (and does not release it).
#define NETUPD_REQUIRES(...)                                                 \
  NETUPD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability (caller must not hold it).
#define NETUPD_ACQUIRE(...)                                                  \
  NETUPD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (caller must hold it).
#define NETUPD_RELEASE(...)                                                  \
  NETUPD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attempts the capability; holds it iff the return value equals
/// the first macro argument.
#define NETUPD_TRY_ACQUIRE(...)                                              \
  NETUPD_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock prevention).
#define NETUPD_EXCLUDES(...)                                                 \
  NETUPD_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Declares the capability is held without acquiring (runtime-checked
/// fatal assertion elsewhere).
#define NETUPD_ASSERT_CAPABILITY(x)                                          \
  NETUPD_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the named capability.
#define NETUPD_RETURN_CAPABILITY(x)                                          \
  NETUPD_THREAD_ANNOTATION(lock_returned(x))

namespace netupd {

// ---- Capability-wrapped primitives -----------------------------------------

/// std::mutex as a TSA capability, with the same interface
/// (BasicLockable + Lockable).
class NETUPD_CAPABILITY("mutex") Mutex {
public:
  Mutex() = default;
  Mutex(const Mutex &) = delete;
  Mutex &operator=(const Mutex &) = delete;

  void lock() NETUPD_ACQUIRE() { M.lock(); }
  void unlock() NETUPD_RELEASE() { M.unlock(); }
  bool try_lock() NETUPD_TRY_ACQUIRE(true) { return M.try_lock(); }

private:
  friend class CondVar;
  std::mutex M;
};

/// Scoped exclusive lock on a Mutex.
class NETUPD_SCOPED_CAPABILITY MutexLock {
public:
  explicit MutexLock(Mutex &M) NETUPD_ACQUIRE(M) : Mu(M) { Mu.lock(); }
  ~MutexLock() NETUPD_RELEASE() { Mu.unlock(); }

  MutexLock(const MutexLock &) = delete;
  MutexLock &operator=(const MutexLock &) = delete;

private:
  Mutex &Mu;
};

/// Condition variable for waits on a wrapped Mutex. wait() keeps the
/// capability from the analysis's point of view (held on entry, held on
/// return); the internal release/reacquire is invisible, exactly like
/// std::condition_variable under a std::unique_lock.
class CondVar {
public:
  CondVar() = default;
  CondVar(const CondVar &) = delete;
  CondVar &operator=(const CondVar &) = delete;

  void wait(Mutex &M) NETUPD_REQUIRES(M) {
    std::unique_lock<std::mutex> Inner(M.M, std::adopt_lock);
    CV.wait(Inner);
    Inner.release(); // The caller's scope still owns the capability.
  }

  void notify_one() { CV.notify_one(); }
  void notify_all() { CV.notify_all(); }

private:
  std::condition_variable CV;
};

} // namespace netupd

#endif // NETUPD_SUPPORT_THREADANNOTATIONS_H
