//===- mc/MemoizingChecker.cpp - Memoizing checker decorator ---*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "mc/MemoizingChecker.h"

#include <cassert>

using namespace netupd;

const std::shared_ptr<CheckCache> &MemoizingChecker::processCache() {
  static const std::shared_ptr<CheckCache> Cache =
      std::make_shared<CheckCache>();
  return Cache;
}

MemoizingChecker::MemoizingChecker(std::unique_ptr<CheckerBackend> Inner,
                                   std::shared_ptr<CheckCache> Cache)
    : Inner(std::move(Inner)),
      Cache(Cache ? std::move(Cache) : processCache()) {
  assert(this->Inner && "memoizing a null backend");
  NameStr = std::string("Memo(") + this->Inner->name() + ")";
  DigestBuilder B;
  B.addString(this->Inner->name());
  InnerNameDigest = B.finish();
}

Digest MemoizingChecker::currentKey() const {
  DigestBuilder B;
  B.addDigest(K->digest());
  B.addDigest(PhiDigest);
  // The inner backend is part of the key: backends differ in the
  // counterexamples they produce (hsa yields none), and a result cached
  // from one must never steer the search driven through another.
  B.addDigest(InnerNameDigest);
  return B.finish();
}

CheckResult MemoizingChecker::bindImpl(KripkeStructure &Structure, Formula F) {
  K = &Structure;
  Phi = F;
  PhiDigest = digestOf(F);
  Frames.clear();

  if (std::optional<CheckResult> Cached = Cache->lookup(currentKey())) {
    ++Hits;
    SyncedDepth = -1; // Inner never saw this structure.
    return *Cached;
  }
  ++Misses;
  CheckResult Res = Inner->bind(Structure, F);
  // relaxed: statistics mirror of the inner backend's counter.
  Queries.store(Inner->numQueries(), std::memory_order_relaxed);
  SyncedDepth = 0;
  Cache->store(currentKey(), Res);
  return Res;
}

CheckResult MemoizingChecker::recheckImpl(const UpdateInfo &Update) {
  assert(K && "recheck before bind");
  // The structure was already mutated, so K->digest() names the new
  // configuration (the incremental maintenance in KripkeStructure).
  Digest Key = currentKey();
  size_t PrevDepth = Frames.size();

  if (std::optional<CheckResult> Cached = Cache->lookup(Key)) {
    ++Hits;
    Frames.push_back(FrameKind::Hit); // Inner untouched; SyncedDepth keeps
                                      // naming the frame it reflects.
    return *Cached;
  }
  ++Misses;

  CheckResult Res;
  if (innerSyncedAt(PrevDepth)) {
    Res = Inner->recheckAfterUpdate(Update);
    Frames.push_back(FrameKind::Recheck);
  } else {
    // Inner lags behind (cache hits were served past it) or matches no
    // depth at all: resynchronize with a full bind against the current
    // structure. That wipes the inner backend's own undo stack, so every
    // live frame it contributed below this point is now dead.
    for (FrameKind &FK : Frames)
      if (FK == FrameKind::Recheck)
        FK = FrameKind::DeadRecheck;
    Res = Inner->bind(*K, Phi);
    Frames.push_back(FrameKind::Rebind);
  }
  // relaxed: statistics mirror of the inner backend's counter.
  Queries.store(Inner->numQueries(), std::memory_order_relaxed);
  SyncedDepth = static_cast<long>(Frames.size());
  Cache->store(Key, Res);
  return Res;
}

void MemoizingChecker::notifyRollback() {
  assert(!Frames.empty() && "rollback without a matching recheck");
  FrameKind Top = Frames.back();
  Frames.pop_back();
  switch (Top) {
  case FrameKind::Hit:
    // Inner backend never advanced; nothing to roll back. SyncedDepth is
    // at most the new depth already.
    break;
  case FrameKind::Recheck:
    // A live inner frame: its undo stack top matches this rollback.
    assert(SyncedDepth == static_cast<long>(Frames.size()) + 1 &&
           "live recheck frame without a synced inner backend");
    Inner->notifyRollback();
    SyncedDepth = static_cast<long>(Frames.size());
    break;
  case FrameKind::DeadRecheck:
    // Inner's matching frame was wiped by a later re-bind (whose own
    // rollback already invalidated SyncedDepth); absorb silently.
    break;
  case FrameKind::Rebind:
    // Inner was rebuilt at the depth we are leaving, with an empty undo
    // stack: after this rollback it matches no reachable depth.
    SyncedDepth = -1;
    break;
  }
}
