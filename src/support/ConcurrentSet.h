//===- support/ConcurrentSet.h - Pruning containers ------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pruning containers behind the synthesis search
/// (synth/OrderUpdate.cpp): a lock-free open-addressed claim table for
/// the visited (V) configurations, a watch-list–indexed wrong-set (W) for
/// counterexample constraints, and a flat sequential set for a V that
/// only one shard claims in. All hold *monotone* state — entries are
/// only ever added, never modified or removed during a search — which
/// is what makes sharing them across DFS shards sound: a V claim or a W
/// constraint mined on one shard is a fact about the problem instance,
/// valid for every other shard the moment it becomes visible.
///
/// ClaimTable::claim is the claim operation of the sharded search:
/// exactly one caller receives true per value, so two shards
/// reaching the same intermediate configuration agree on which of them
/// explores the subtree below it (the other prunes). The sharded search
/// probes W before it claims, so configurations W already refutes never
/// enter the table.
///
/// WatchedWrongSet replaces a scan-the-whole-list W set. Each (Mask,
/// Value) constraint is filed under the first set bit of Value; probing
/// a configuration walks only the buckets of its set bits, so W is
/// consulted O(relevant) instead of O(all) — and the probe takes no
/// lock at all (buckets are lock-free push lists).
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SUPPORT_CONCURRENTSET_H
#define NETUPD_SUPPORT_CONCURRENTSET_H

#include "support/Bitset.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

namespace netupd {

/// The shared V set of the sharded search: a lock-free, grow-only claim
/// table for fixed-width Bitset keys. The key width (a subset of the
/// search's ops) is fixed for the whole search, so reset() sizes every
/// slot once: one atomic tag word followed by the key's words, all in one
/// flat array, with no per-slot allocation and no Bitset copies.
///
/// A claim probes linearly from the slot given by the low hash bits. An
/// empty tag is CASed to Busy, the key is stored, and then the tag is
/// release-stored as the whole hash (top bit forced on, so it can never
/// read as Empty or Busy). A claim that meets its own tag acquires the
/// key words and compares them, so a losing claim — most of a deep
/// proof's claims — only loads. A claim that meets Busy waits for the
/// writer, which may be storing this very key.
///
/// Growth is a pinned migration. A claim stores its participant's pin
/// (seq_cst) and then loads Resizing; a resizer stores Resizing (seq_cst)
/// and then loads every pin. Under seq_cst at least one side sees the
/// other, so a claim either backs off until the resize ends or is waited
/// for; migration starts only once every pin is clear, so it moves every
/// completed claim and no claim runs against the old slots. The claim
/// whose win reaches 3/4 load sets Resizing, doubles the table and
/// publishes it by clearing Resizing (release). Nothing else locks, and
/// the old slots are freed at once: nobody can still hold them.
///
/// Slots are reused per thread. A table hands its slot array to a spare
/// kept by the thread that destroys or resets it, and reset() starts from
/// that thread's spare, emptied, whenever the spare holds at least the
/// initial capacity: as many slots as fit in it. A stream of similar
/// searches on one thread therefore migrates only on its first. Each
/// thread keeps at most one spare, the largest slot array a table on it
/// ended with, until the thread exits.
class ClaimTable {
public:
  /// Slots after a reset() that finds no larger spare; the table doubles
  /// from here.
  static constexpr size_t InitialCapacity = 1024;

  ClaimTable() = default;
  ~ClaimTable() { retire(); }
  ClaimTable(const ClaimTable &) = delete;
  ClaimTable &operator=(const ClaimTable &) = delete;

  /// Empties the table and shapes it for \p NumBits-wide keys claimed by
  /// participants 0 .. \p Participants-1. Not thread-safe; call before
  /// the search fans out, on the thread that will destroy the table.
  void reset(size_t NumBits, unsigned Participants) {
    retire();
    KeyWords = (NumBits + 63) / 64;
    const size_t Stride = KeyWords + 1;
    Pins = std::vector<Pin>(Participants);
    // Each participant can win one claim past the threshold before it
    // sees a resize start; keep that overshoot inside the free quarter.
    size_t Cap = InitialCapacity;
    while (Cap / 4 <= Participants)
      Cap *= 2;
    Spare &S = spare();
    if (S.NumWords >= Cap * Stride) {
      while (2 * Cap * Stride <= S.NumWords)
        Cap *= 2;
      Slots = std::move(S.Slots);
      NumWords = S.NumWords;
      S.NumWords = 0;
      // Empty every tag. Stale key words may stay: a key word is only
      // read behind a tag this search published after storing it.
      // relaxed: reset is single-threaded; the searchers start later.
      for (size_t I = 0; I != Cap; ++I)
        Slots[I * Stride].store(Empty, std::memory_order_relaxed);
    } else {
      Slots = allocate(Cap);
      NumWords = Cap * Stride;
    }
    setCapacity(Cap);
    // relaxed: reset is single-threaded; the searchers start later.
    Count.store(0, std::memory_order_relaxed);
    Resizing.store(false, std::memory_order_relaxed);
  }

  /// Claims \p Key for participant \p P: true for exactly one caller per
  /// key, across all threads and resizes. \p Key must be as wide as
  /// reset() said, and no two threads may use the same \p P at once.
  bool claim(const Bitset &Key, unsigned P) {
    assert(Key.numWords() == KeyWords && P < Pins.size());
    const uint64_t Tag = Key.hash() | TagBit;
    std::atomic<unsigned> &MyPin = Pins[P].Pinned;
    pin(MyPin);
    bool Won = insert(Tag, Key.data());
    // relaxed: the count only triggers growth; grow() re-reads it after
    // every pin's release store below has been acquired.
    bool Grow = Won && Count.fetch_add(1, std::memory_order_relaxed) + 1 >=
                           Threshold;
    MyPin.store(0, std::memory_order_release);
    if (Grow)
      grow();
    return Won;
  }

  /// Claimed keys. Exact once every claimant has finished.
  // relaxed: a count, read by callers that joined the claimants.
  size_t size() const { return Count.load(std::memory_order_relaxed); }

  /// Slots, for tests. Not thread-safe against a migration.
  size_t capacity() const { return Mask + 1; }

private:
  static constexpr uint64_t Empty = 0;
  static constexpr uint64_t Busy = 1;
  static constexpr uint64_t TagBit = uint64_t(1) << 63;

  struct alignas(64) Pin {
    std::atomic<unsigned> Pinned{0};
  };

  using Words = std::unique_ptr<std::atomic<uint64_t>[]>;

  /// A slot array a finished table left to its thread, and its length in
  /// words (0 when there is none).
  struct Spare {
    Words Slots;
    size_t NumWords = 0;
  };

  static Spare &spare() {
    thread_local Spare S;
    return S;
  }

  /// Hands the slots to this thread's spare, unless that holds more.
  void retire() {
    Spare &S = spare();
    if (NumWords > S.NumWords) {
      S.Slots = std::move(Slots);
      S.NumWords = NumWords;
    }
    Slots.reset();
    NumWords = 0;
  }

  /// \p Cap zeroed (Empty) slots.
  Words allocate(size_t Cap) const {
    return std::make_unique<std::atomic<uint64_t>[]>(Cap * (KeyWords + 1));
  }

  /// The claim count that makes \p Cap slots double: 3/4 load.
  static size_t thresholdFor(size_t Cap) { return Cap / 4 * 3; }

  void setCapacity(size_t Cap) {
    Mask = Cap - 1;
    Threshold = thresholdFor(Cap);
  }

  /// Waits until \p Done() holds. The thread waited for may be
  /// descheduled, so a short busy phase gives way to yielding.
  template <typename Pred> static void spinUntil(Pred Done) {
    for (unsigned Spins = 0; !Done(); ++Spins)
      if (Spins >= 64)
        std::this_thread::yield();
  }

  /// Pins \p MyPin outside any resize: on return no migration can start
  /// until the pin is cleared, and the slot fields are the published ones.
  void pin(std::atomic<unsigned> &MyPin) {
    for (;;) {
      MyPin.store(1, std::memory_order_seq_cst);
      if (!Resizing.load(std::memory_order_seq_cst))
        return;
      MyPin.store(0, std::memory_order_release);
      spinUntil([&] { return !Resizing.load(std::memory_order_acquire); });
    }
  }

  /// The probe; the caller is pinned.
  bool insert(uint64_t Tag, const uint64_t *Key) {
    const size_t Stride = KeyWords + 1;
    for (size_t I = Tag & Mask;; I = (I + 1) & Mask) {
      std::atomic<uint64_t> *S = &Slots[I * Stride];
      uint64_t T = S->load(std::memory_order_acquire);
      if (T == Empty) {
        if (S->compare_exchange_strong(T, Busy, std::memory_order_acquire,
                                       std::memory_order_acquire)) {
          // relaxed: the release store of the tag publishes the key.
          for (size_t W = 0; W != KeyWords; ++W)
            S[W + 1].store(Key[W], std::memory_order_relaxed);
          S->store(Tag, std::memory_order_release);
          return true;
        }
        // Another claim took the slot first; T is what it wrote.
      }
      if (T == Busy) // Another claim is storing this slot's key.
        spinUntil([&] {
          return (T = S->load(std::memory_order_acquire)) != Busy;
        });
      if (T == Tag && keyEquals(S + 1, Key))
        return false;
    }
  }

  bool keyEquals(const std::atomic<uint64_t> *K, const uint64_t *Key) const {
    for (size_t W = 0; W != KeyWords; ++W)
      // relaxed: ordered by the acquire load of the slot's tag.
      if (K[W].load(std::memory_order_relaxed) != Key[W])
        return false;
    return true;
  }

  /// Doubles the table unless another claim is already doing so; that
  /// one re-reads the count once the pins clear, so it sees this win.
  void grow() {
    bool Expected = false;
    if (!Resizing.compare_exchange_strong(Expected, true,
                                          std::memory_order_seq_cst))
      return;
    for (Pin &P : Pins)
      spinUntil([&] { return P.Pinned.load(std::memory_order_seq_cst) == 0; });
    // Every slot write and count increment happened before some pin's
    // release clear, which the loads above acquired.
    // relaxed: ordered by those acquires.
    size_t N = Count.load(std::memory_order_relaxed);
    if (N >= Threshold) {
      size_t Cap = (Mask + 1) * 2;
      while (N >= thresholdFor(Cap))
        Cap *= 2;
      migrate(Cap);
    }
    Resizing.store(false, std::memory_order_release);
  }

  /// Rehashes every claimed key into \p Cap fresh slots. Runs alone:
  /// every pin is clear and Resizing keeps new claims out.
  void migrate(size_t Cap) {
    const size_t Stride = KeyWords + 1;
    Words New = allocate(Cap);
    const size_t NewMask = Cap - 1;
    // relaxed: single-threaded here (see above).
    for (size_t I = 0; I <= Mask; ++I) {
      const std::atomic<uint64_t> *S = &Slots[I * Stride];
      uint64_t Tag = S->load(std::memory_order_relaxed);
      if (Tag == Empty)
        continue;
      size_t J = Tag & NewMask;
      while (New[J * Stride].load(std::memory_order_relaxed) != Empty)
        J = (J + 1) & NewMask;
      std::atomic<uint64_t> *D = &New[J * Stride];
      // relaxed: single-threaded, as above.
      for (size_t W = 0; W <= KeyWords; ++W)
        D[W].store(S[W].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    }
    Slots = std::move(New);
    NumWords = Cap * Stride;
    setCapacity(Cap);
  }

  // Read by every claim and written only by reset() and migrations, which
  // run while no claim is pinned.
  Words Slots;
  size_t NumWords = 0; // Slots' length in words; a reused spare may be longer.
  size_t Mask = 0;
  size_t Threshold = 0;
  size_t KeyWords = 0;
  std::vector<Pin> Pins;
  std::atomic<bool> Resizing{false};
  // Written by every win; kept off the read-mostly line above.
  alignas(64) std::atomic<size_t> Count{0};
};

/// The wrong-set: counterexample constraints (Mask, Value) meaning "any
/// configuration C with (C & Mask) == Value is refuted". Probes are
/// lock-free and watch-list–indexed; appends are lock-free CAS pushes.
///
/// Indexing invariant: a constraint can only match C if Value ⊆ C (a
/// set bit of Value that C lacks fails the equality). So each
/// constraint is filed under the *first set bit* of its Value, and
/// matches(C) walks only the buckets of C's set bits — every matching
/// constraint's watch bit is set in C, so the probe is complete. An
/// all-zero Value has no watch bit; the search's learner never emits
/// one (it would refute the verified initial configuration).
class WatchedWrongSet {
public:
  WatchedWrongSet() = default;
  ~WatchedWrongSet() { destroy(); }

  WatchedWrongSet(const WatchedWrongSet &) = delete;
  WatchedWrongSet &operator=(const WatchedWrongSet &) = delete;

  /// Drops all constraints and re-shapes for \p NumBits-wide
  /// configurations, keeping the bucket array when the width is
  /// unchanged. Not thread-safe; call before the search fans out.
  void reset(size_t NumBits) {
    destroy();
    if (Buckets.size() != NumBits)
      Buckets = std::vector<std::atomic<Node *>>(NumBits);
    // relaxed: reset is documented single-threaded; no concurrent readers.
    for (auto &B : Buckets)
      B.store(nullptr, std::memory_order_relaxed);
  }

  /// Adds a constraint; \p Value must have a set bit. Thread-safe,
  /// lock-free, monotone.
  void add(Bitset Mask, Bitset Value) {
    size_t B = Value.firstSetBit();
    assert(B < Buckets.size() && "a W entry needs a watch bit");
    // lint: naked-new-ok — lock-free CAS push list; nodes are owned by the
    // intrusive bucket chains and reclaimed in destroy().
    Node *N = new Node{std::move(Mask), std::move(Value), nullptr};
    std::atomic<Node *> &Head = Buckets[B];
    // relaxed: the CAS loop re-reads Next on failure; only the successful
    // release publish orders the node's payload for acquire readers.
    N->Next = Head.load(std::memory_order_relaxed);
    while (!Head.compare_exchange_weak(N->Next, N, std::memory_order_release,
                                       std::memory_order_relaxed)) {
    }
  }

  /// True if some constraint refutes \p Bits. Lock-free; probes only
  /// the watch buckets of Bits's set bits.
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
    return false;
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
  }

  std::vector<std::atomic<Node *>> Buckets;
};

/// A single-threaded insert-only set of Bitsets, open-addressed so the
/// per-probe cost is a hash plus a few contiguous slot compares and the
/// per-insert cost is a buffer-reusing Bitset assignment — no node
/// allocations. The V set of a pruning scope only one shard claims in:
/// a one-shard search's, and budget mode's unit scopes, which clear()
/// per unit and refill to a similar size (the slot buffers are kept
/// across clears).
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
