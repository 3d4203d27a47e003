// Positive snippet (cmake/AnnotationChecks.cmake): the repo's locking
// idioms in miniature — scoped locks, REQUIRES helpers, CondVar waits.
// Must COMPILE under every compiler, including clang -Wthread-safety
// -Werror: if this breaks, the wrappers' annotations are wrong, not the
// user code.
#include "support/ThreadAnnotations.h"

using namespace netupd;

struct Store {
  Mutex M;
  CondVar CV;
  int Count NETUPD_GUARDED_BY(M) = 0;
  bool Ready NETUPD_GUARDED_BY(M) = false;

  void bumpLocked() NETUPD_REQUIRES(M) { ++Count; }

  void bump() {
    MutexLock Lock(M);
    bumpLocked();
  }

  void waitReady() {
    MutexLock Lock(M);
    while (!Ready)
      CV.wait(M); // Capability held across the wait.
    ++Count;
  }

  void publish() {
    {
      MutexLock Lock(M);
      Ready = true;
    }
    CV.notify_all();
  }
};

int main() {
  Store S;
  S.bump();
  S.publish();
  S.waitReady();
  return 0;
}
