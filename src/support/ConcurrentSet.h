//===- support/ConcurrentSet.h - Pruning containers ------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pruning containers behind the synthesis search
/// (synth/OrderUpdate.cpp): a striped open-addressed hash set for the
/// visited (V) configurations, a watch-list–indexed wrong-set (W) for
/// counterexample constraints, and a flat sequential set for unit-local
/// V state. All hold *monotone* state — entries are only ever added,
/// never modified or removed during a search — which is what makes
/// sharing them across DFS shards sound: a V claim or a W constraint
/// mined on one shard is a fact about the problem instance, valid for
/// every other shard the moment it becomes visible.
///
/// ConcurrentSet::insert doubles as the claim operation of the sharded
/// search: exactly one caller receives true per value, so two shards
/// reaching the same intermediate configuration agree on which of them
/// explores the subtree below it (the other prunes). The sharded search
/// probes W before it claims, so configurations W already refutes never
/// enter the table.
///
/// WatchedWrongSet replaces a scan-the-whole-list W set. Each (Mask,
/// Value) constraint is filed under the first set bit of Value; probing
/// a configuration walks only the buckets of its set bits, so seeded
/// constraint stores are consulted O(relevant) instead of O(all) — and
/// the probe takes no lock at all (buckets are lock-free push lists).
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SUPPORT_CONCURRENTSET_H
#define NETUPD_SUPPORT_CONCURRENTSET_H

#include "obs/Metrics.h"
#include "support/Bitset.h"
#include "support/ThreadAnnotations.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

namespace netupd {

/// A thread-safe grow-only hash set: 64 lock stripes, each guarding an
/// open-addressed slot table. One hash computation and one mutex
/// acquisition per operation; linear probing touches a handful of
/// contiguous slots instead of chasing unordered_set buckets, and
/// insert-only semantics mean the table never tombstones.
///
/// The stripe comes from the top bits of the hash and the slot from the
/// low bits. Taking both from the low bits would leave only one slot in
/// 64 reachable as a home slot within a stripe, and probe chains would
/// grow into long clusters. \p Hash must therefore mix into every bit,
/// as BitsetHash does; there is no std::hash default, whose identity
/// hash over small ints would put them all in stripe 0.
///
/// Lock acquisitions on the claim path feed the synth.vset_lock_ns wait
/// histogram when the obs detail tier is on — and cost one relaxed load
/// when it is off.
template <typename T, typename Hash> class ConcurrentSet {
public:
  /// Inserts \p V; returns true iff it was not already present. The
  /// true-return is unique per value across all threads (the claim).
  bool insert(const T &V) {
    size_t H = Hash()(V);
    Stripe &S = Stripes[H >> StripeShift];
    obs::timedLock(S.M, lockWait());
    MutexLock Lock(S.M, std::adopt_lock);
    return S.insert(H, V);
  }

  size_t size() const {
    size_t N = 0;
    for (const Stripe &S : Stripes) {
      MutexLock Lock(S.M);
      N += S.Count;
    }
    return N;
  }

  void clear() {
    for (Stripe &S : Stripes) {
      MutexLock Lock(S.M);
      S.Slots.clear();
      S.Count = 0;
    }
  }

private:
  static constexpr unsigned StripeBits = 6;
  static constexpr unsigned NumStripes = 1u << StripeBits;
  static constexpr unsigned StripeShift =
      std::numeric_limits<size_t>::digits - StripeBits;

  struct Slot {
    size_t H = 0;
    bool Used = false;
    T Value{};
  };

  struct Stripe {
    mutable Mutex M;
    std::vector<Slot> Slots NETUPD_GUARDED_BY(M);
    size_t Count NETUPD_GUARDED_BY(M) = 0;

    bool insert(size_t H, const T &V) NETUPD_REQUIRES(M) {
      if (Slots.size() < 16 || Count * 10 >= Slots.size() * 7)
        grow();
      size_t Mask = Slots.size() - 1;
      for (size_t I = H & Mask;; I = (I + 1) & Mask) {
        Slot &S = Slots[I];
        if (!S.Used) {
          S.H = H;
          S.Used = true;
          S.Value = V;
          ++Count;
          return true;
        }
        if (S.H == H && S.Value == V)
          return false;
      }
    }

    void grow() NETUPD_REQUIRES(M) {
      size_t NewSize = Slots.empty() ? 16 : Slots.size() * 2;
      std::vector<Slot> Old = std::move(Slots);
      Slots.assign(NewSize, Slot{});
      size_t Mask = NewSize - 1;
      for (Slot &S : Old) {
        if (!S.Used)
          continue;
        size_t I = S.H & Mask;
        while (Slots[I].Used)
          I = (I + 1) & Mask;
        Slots[I] = std::move(S);
      }
    }
  };

  static obs::Histogram &lockWait() {
    static obs::Histogram &H =
        obs::MetricsRegistry::instance().histogram("synth.vset_lock_ns");
    return H;
  }

  Stripe Stripes[NumStripes];
};

/// The wrong-set: counterexample constraints (Mask, Value) meaning "any
/// configuration C with (C & Mask) == Value is refuted". Probes are
/// lock-free and watch-list–indexed; appends are lock-free CAS pushes.
///
/// Indexing invariant: a constraint can only match C if Value ⊆ C (a
/// set bit of Value that C lacks fails the equality). So each
/// constraint is filed under the *first set bit* of its Value, and
/// matches(C) walks only the buckets of C's set bits — every matching
/// constraint's watch bit is set in C, so the probe is complete.
/// Constraints with an all-zero Value (which match everything with
/// Bits∩Mask=∅; the search's learner never emits them but seeds could)
/// go to an always-scanned fallback list.
class WatchedWrongSet {
public:
  WatchedWrongSet() = default;
  ~WatchedWrongSet() { destroy(); }

  WatchedWrongSet(const WatchedWrongSet &) = delete;
  WatchedWrongSet &operator=(const WatchedWrongSet &) = delete;

  /// Drops all constraints and re-shapes for \p NumBits-wide
  /// configurations. Not thread-safe; call before the search fans out.
  void reset(size_t NumBits) {
    destroy();
    Buckets = std::vector<std::atomic<Node *>>(NumBits);
    // relaxed: reset is documented single-threaded; no concurrent readers.
    for (auto &B : Buckets)
      B.store(nullptr, std::memory_order_relaxed);
    Fallback.store(nullptr, std::memory_order_relaxed);
    Count.store(0, std::memory_order_relaxed);
  }

  /// Adds a constraint. Thread-safe, lock-free, monotone.
  void add(Bitset Mask, Bitset Value) {
    // lint: naked-new-ok — lock-free CAS push list; nodes are owned by the
    // intrusive bucket chains and reclaimed in destroy().
    Node *N = new Node{std::move(Mask), std::move(Value), nullptr};
    size_t B = N->Value.firstSetBit();
    std::atomic<Node *> &Head =
        B < Buckets.size() ? Buckets[B] : Fallback;
    // relaxed: the CAS loop re-reads Next on failure; only the successful
    // release publish orders the node's payload for acquire readers.
    N->Next = Head.load(std::memory_order_relaxed);
    while (!Head.compare_exchange_weak(N->Next, N, std::memory_order_release,
                                       std::memory_order_relaxed)) {
    }
    // relaxed: Count is an advisory size for reserve(); no ordering needed.
    Count.fetch_add(1, std::memory_order_relaxed);
  }

  /// True if some constraint refutes \p Bits. Lock-free; probes only
  /// the watch buckets of Bits's set bits (plus the fallback list).
  bool matches(const Bitset &Bits) const {
    for (size_t W = 0, NW = Bits.numWords(); W != NW; ++W) {
      uint64_t Word = Bits.word(W);
      while (Word != 0) {
        size_t B = W * 64 + static_cast<size_t>(__builtin_ctzll(Word));
        Word &= Word - 1;
        if (B < Buckets.size() && listMatches(Buckets[B], Bits))
          return true;
      }
    }
    return listMatches(Fallback, Bits);
  }

  // relaxed: advisory count; callers only use it to pre-size buffers.
  size_t size() const { return Count.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  /// A copy of the current constraints; the cross-job learning export
  /// uses it after every appender has joined, but a mid-flight snapshot
  /// is safe too (it sees some monotone prefix of the adds).
  std::vector<std::pair<Bitset, Bitset>> snapshot() const {
    std::vector<std::pair<Bitset, Bitset>> Out;
    Out.reserve(size());
    auto Walk = [&](const std::atomic<Node *> &Head) {
      for (Node *N = Head.load(std::memory_order_acquire); N; N = N->Next)
        Out.emplace_back(N->Mask, N->Value);
    };
    for (const auto &B : Buckets)
      Walk(B);
    Walk(Fallback);
    return Out;
  }

private:
  struct Node {
    Bitset Mask;
    Bitset Value;
    Node *Next;
  };

  static bool listMatches(const std::atomic<Node *> &Head,
                          const Bitset &Bits) {
    for (const Node *N = Head.load(std::memory_order_acquire); N;
         N = N->Next) {
      // (Bits & Mask) == Value, word-wise to avoid a temporary.
      bool Match = true;
      for (size_t W = 0, NW = Bits.numWords(); W != NW; ++W) {
        if ((Bits.word(W) & N->Mask.word(W)) != N->Value.word(W)) {
          Match = false;
          break;
        }
      }
      if (Match)
        return true;
    }
    return false;
  }

  void destroy() {
    // relaxed: destruction is single-threaded by contract (all appenders
    // and probers have joined before ~WatchedWrongSet / reset()).
    auto Free = [](std::atomic<Node *> &Head) {
      Node *N = Head.load(std::memory_order_relaxed);
      while (N) {
        Node *Next = N->Next;
        delete N;
        N = Next;
      }
      Head.store(nullptr, std::memory_order_relaxed); // relaxed: same contract
    };
    for (auto &B : Buckets)
      Free(B);
    Free(Fallback);
  }

  std::vector<std::atomic<Node *>> Buckets;
  std::atomic<Node *> Fallback{nullptr};
  std::atomic<size_t> Count{0};
};

/// A single-threaded insert-only set of Bitsets, open-addressed so the
/// per-probe cost is a hash plus a few contiguous slot compares and the
/// per-insert cost is a buffer-reusing Bitset assignment — no node
/// allocations. Used for the sequential search's V set and the
/// budget-mode unit-local V set, both of which clear() per unit and
/// refill to a similar size (the slot buffers are kept across clears).
class FlatBitsetSet {
public:
  /// Inserts \p B; returns true iff it was not already present.
  bool insert(const Bitset &B) {
    size_t H = BitsetHash()(B);
    if (Slots.size() < 16 || Count * 10 >= Slots.size() * 7)
      grow();
    size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (!S.Used) {
        S.H = H;
        S.Used = true;
        S.Value = B;
        ++Count;
        return true;
      }
      if (S.H == H && S.Value == B)
        return false;
    }
  }

  bool contains(const Bitset &B) const {
    if (Slots.empty())
      return false;
    size_t H = BitsetHash()(B);
    size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (!S.Used)
        return false;
      if (S.H == H && S.Value == B)
        return true;
    }
  }

  size_t size() const { return Count; }

  /// Empties the set, keeping slot capacity and the Bitset heap buffers
  /// inside the slots for reuse by the next fill.
  void clear() {
    for (Slot &S : Slots)
      S.Used = false;
    Count = 0;
  }

private:
  struct Slot {
    size_t H = 0;
    bool Used = false;
    Bitset Value;
  };

  void grow() {
    size_t NewSize = Slots.empty() ? 16 : Slots.size() * 2;
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewSize, Slot{});
    size_t Mask = NewSize - 1;
    for (Slot &S : Old) {
      if (!S.Used)
        continue;
      size_t I = S.H & Mask;
      while (Slots[I].Used)
        I = (I + 1) & Mask;
      Slots[I] = std::move(S);
    }
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

} // namespace netupd

#endif // NETUPD_SUPPORT_CONCURRENTSET_H
