//===- tests/support_test.cpp - support library tests ----------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/Bitset.h"
#include "support/ConcurrentSet.h"
#include "support/Random.h"
#include "support/ShardedCache.h"
#include "support/Strings.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace netupd;

TEST(BitsetTest, SetTestReset) {
  Bitset B(130);
  EXPECT_EQ(B.size(), 130u);
  EXPECT_TRUE(B.none());
  B.set(0);
  B.set(64);
  B.set(129);
  EXPECT_TRUE(B.test(0));
  EXPECT_TRUE(B.test(64));
  EXPECT_TRUE(B.test(129));
  EXPECT_FALSE(B.test(1));
  EXPECT_EQ(B.count(), 3u);
  B.reset(64);
  EXPECT_FALSE(B.test(64));
  EXPECT_EQ(B.count(), 2u);
  B.clear();
  EXPECT_TRUE(B.none());
}

TEST(BitsetTest, AssignAndAny) {
  Bitset B(10);
  B.assign(3, true);
  EXPECT_TRUE(B.any());
  B.assign(3, false);
  EXPECT_TRUE(B.none());
}

TEST(BitsetTest, BooleanAlgebra) {
  Bitset A(70), B(70);
  A.set(1);
  A.set(65);
  B.set(1);
  B.set(2);
  Bitset Or = A | B;
  EXPECT_TRUE(Or.test(1) && Or.test(2) && Or.test(65));
  Bitset And = A & B;
  EXPECT_TRUE(And.test(1));
  EXPECT_FALSE(And.test(2));
  EXPECT_FALSE(And.test(65));
  Bitset Xor = A ^ B;
  EXPECT_FALSE(Xor.test(1));
  EXPECT_TRUE(Xor.test(2) && Xor.test(65));
}

TEST(BitsetTest, ContainsAndIntersects) {
  Bitset A(100), B(100), C(100);
  A.set(5);
  A.set(70);
  B.set(5);
  C.set(6);
  EXPECT_TRUE(A.contains(B));
  EXPECT_FALSE(B.contains(A));
  EXPECT_TRUE(A.intersects(B));
  EXPECT_FALSE(A.intersects(C));
}

TEST(BitsetTest, EqualityHashOrder) {
  Bitset A(65), B(65);
  EXPECT_EQ(A, B);
  A.set(64);
  EXPECT_NE(A, B);
  EXPECT_NE(A.hash(), B.hash());
  EXPECT_TRUE(B < A);
  B.set(64);
  EXPECT_EQ(A.hash(), B.hash());
}

TEST(BitsetTest, ResizeZeroFills) {
  Bitset A(3);
  A.set(2);
  A.resize(80);
  EXPECT_EQ(A.size(), 80u);
  EXPECT_TRUE(A.test(2));
  for (size_t I = 3; I != 80; ++I)
    EXPECT_FALSE(A.test(I));
}

TEST(BitsetTest, StrRendering) {
  Bitset A(4);
  A.set(1);
  EXPECT_EQ(A.str(), "0100");
}

TEST(RngTest, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, BoundsRespected) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.nextBelow(17), 17u);
    int64_t V = R.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng R(3);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::multiset<int> A(V.begin(), V.end()), B(Orig.begin(), Orig.end());
  EXPECT_EQ(A, B);
}

TEST(RngTest, ForkIndependent) {
  Rng A(9);
  Rng B = A.fork();
  // Forked stream differs from the parent's continued stream.
  EXPECT_NE(A.next(), B.next());
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"solo"}, "-"), "solo");
}

TEST(StringsTest, Split) {
  std::vector<std::string> Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, Format) {
  EXPECT_EQ(format("%s=%d", "x", 42), "x=42");
  EXPECT_EQ(format("%u%%", 10u), "10%");
}

namespace {

/// Digests whose shard (DigestHash % 16 with Hi = 0 reduces to Lo % 16)
/// is 0, so eviction tests target one shard deterministically.
Digest shard0Key(uint64_t I) { return Digest{I * 16, 0}; }

} // namespace

TEST(ShardedCacheTest, StoreLookupAndFirstResultWins) {
  ShardedDigestCache<std::string> Cache;
  Digest K = shard0Key(1);
  EXPECT_FALSE(Cache.lookup(K).has_value());
  Cache.store(K, "first");
  Cache.store(K, "second"); // Ignored: results are interchangeable.
  ASSERT_TRUE(Cache.lookup(K).has_value());
  EXPECT_EQ(*Cache.lookup(K), "first");
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Evictions, 0u);
}

// A full shard must admit new entries by evicting, not drop them (the
// pre-eviction behavior froze the cache at its first fill).
TEST(ShardedCacheTest, FullShardAdmitsNewEntries) {
  ShardedDigestCache<std::string> Cache(/*MaxEntries=*/0); // Cap 1/shard.
  Cache.store(shard0Key(0), "old");
  Cache.store(shard0Key(1), "new");
  EXPECT_FALSE(Cache.lookup(shard0Key(0)).has_value()) << "evicted";
  ASSERT_TRUE(Cache.lookup(shard0Key(1)).has_value());
  EXPECT_EQ(*Cache.lookup(shard0Key(1)), "new");
  EXPECT_EQ(Cache.stats().Entries, 1u);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
}

// The second chance: a looked-up entry survives a sweep that evicts an
// unreferenced one, even though the survivor is older (pure FIFO would
// evict it first).
TEST(ShardedCacheTest, ReferencedEntrySurvivesEviction) {
  ShardedDigestCache<std::string> Cache(/*MaxEntries=*/32); // Cap 3/shard.
  Digest A = shard0Key(0), B = shard0Key(1), C = shard0Key(2),
         D = shard0Key(3), E = shard0Key(4);
  Cache.store(A, "a");
  Cache.store(B, "b");
  Cache.store(C, "c");
  Cache.store(D, "d"); // Sweep clears A,B,C then evicts A.
  EXPECT_FALSE(Cache.lookup(A).has_value());

  ASSERT_TRUE(Cache.lookup(B).has_value()); // Re-references B.
  Cache.store(E, "e"); // Hand passes B (second chance), evicts C.
  EXPECT_TRUE(Cache.lookup(B).has_value())
      << "referenced entry should survive the sweep";
  EXPECT_FALSE(Cache.lookup(C).has_value()) << "unreferenced entry evicted";
  EXPECT_TRUE(Cache.lookup(D).has_value());
  EXPECT_TRUE(Cache.lookup(E).has_value());
  EXPECT_EQ(Cache.stats().Entries, 3u);
  EXPECT_EQ(Cache.stats().Evictions, 2u);
}

TEST(ShardedCacheTest, ClearResetsEvictionState) {
  ShardedDigestCache<int> Cache(/*MaxEntries=*/0);
  Cache.store(shard0Key(0), 1);
  Cache.store(shard0Key(1), 2); // Evicts.
  Cache.clear();
  EXPECT_EQ(Cache.stats().Entries, 0u);
  EXPECT_EQ(Cache.stats().Evictions, 0u);
  Cache.store(shard0Key(2), 3);
  ASSERT_TRUE(Cache.lookup(shard0Key(2)).has_value());
  EXPECT_EQ(*Cache.lookup(shard0Key(2)), 3);
}

/// A 16-op configuration whose applied ops are the set bits of \p V.
static Bitset configOf(unsigned V) {
  Bitset B(16);
  for (unsigned I = 0; I != 16; ++I)
    if (V >> I & 1)
      B.set(I);
  return B;
}

TEST(ClaimTableTest, SecondClaimLoses) {
  ClaimTable Set;
  Set.reset(16, 1);
  EXPECT_EQ(Set.size(), 0u);
  EXPECT_TRUE(Set.claim(configOf(7), 0));
  EXPECT_FALSE(Set.claim(configOf(7), 0)) << "second claim must lose";
  EXPECT_EQ(Set.size(), 1u);
  Set.reset(16, 1);
  EXPECT_EQ(Set.size(), 0u);
  EXPECT_TRUE(Set.claim(configOf(7), 0)) << "reset must release the claim";
}

TEST(ClaimTableTest, BitsetKeys) {
  ClaimTable Set;
  Set.reset(70, 2);
  Bitset A(70), B(70);
  B.set(69);
  EXPECT_TRUE(Set.claim(A, 0));
  EXPECT_TRUE(Set.claim(B, 1));
  EXPECT_FALSE(Set.claim(A, 1));
  EXPECT_FALSE(Set.claim(B, 0)) << "the second key word must be compared";
  EXPECT_EQ(Set.size(), 2u);
}

/// \p NumThreads threads, each its own participant, claim every value of
/// \p Values in \p Set; each thread starts at a different offset so wins
/// are spread across threads. Checks that every value was won exactly
/// once.
static void raceInto(ClaimTable &Set, unsigned NumThreads,
                     const std::vector<Bitset> &Values) {
  std::vector<std::atomic<unsigned>> Wins(Values.size());
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      size_t N = Values.size();
      for (size_t K = 0, I = T * N / NumThreads; K != N; ++K, I = (I + 1) % N)
        if (Set.claim(Values[I], T))
          Wins[I].fetch_add(1);
    });
  for (std::thread &T : Threads)
    T.join();
  size_t Wrong = 0;
  for (std::atomic<unsigned> &W : Wins)
    Wrong += W.load() != 1;
  EXPECT_EQ(Wrong, 0u) << "values not claimed exactly once";
  EXPECT_EQ(Set.size(), Values.size());
}

/// raceInto on a fresh 8-participant table, reset on a fresh thread so it
/// starts at the initial capacity rather than at a spare an earlier table
/// left to the calling thread.
static void raceClaims(size_t NumBits, const std::vector<Bitset> &Values) {
  std::thread([&] {
    constexpr unsigned NumThreads = 8;
    ClaimTable Set;
    Set.reset(NumBits, NumThreads);
    EXPECT_EQ(Set.capacity(), ClaimTable::InitialCapacity);
    raceInto(Set, NumThreads, Values);
  }).join();
}

// The claim semantics under contention: every value is claimed exactly
// once no matter how many threads race for it.
TEST(ClaimTableTest, ClaimsAreUniqueAcrossThreads) {
  std::vector<Bitset> Values;
  for (unsigned V = 0; V != 1000; ++V)
    Values.push_back(configOf(V));
  raceClaims(16, Values);
}

// The same under growth: 50k values from the initial capacity force at
// least five pinned migrations mid-race, with one-word and three-word
// keys. A claim lost or doubled across a migration shows up here.
TEST(ClaimTableTest, ClaimsAreUniqueAcrossResizes) {
  constexpr unsigned NumValues = 50000;
  static_assert(NumValues > (ClaimTable::InitialCapacity << 4) / 4 * 3,
                "the race must cross the 3/4 load of five capacities");
  std::vector<Bitset> OneWord, ThreeWords;
  for (unsigned V = 0; V != NumValues; ++V) {
    Bitset A(20), B(130);
    for (unsigned I = 0; I != 16; ++I)
      if (V >> I & 1) {
        A.set(I);
        B.set(9 + 8 * I); // Bits 9..129: every word carries some.
      }
    OneWord.push_back(A);
    ThreeWords.push_back(B);
  }
  ASSERT_EQ(ThreeWords.front().numWords(), 3u);
  raceClaims(20, OneWord);
  raceClaims(130, ThreeWords);
}

// A table reset on the thread where an earlier table grew starts at the
// size that table ended with, holds none of its keys, and claims each
// of them exactly once again; a table on another thread starts small.
TEST(ClaimTableTest, ResetReusesTheThreadsGrownSlots) {
  constexpr unsigned NumThreads = 4;
  std::vector<Bitset> Values;
  for (unsigned V = 0; V != 5000; ++V)
    Values.push_back(configOf(V));
  std::thread([&] {
    size_t Grown = 0;
    {
      ClaimTable First;
      First.reset(16, NumThreads);
      raceInto(First, NumThreads, Values);
      Grown = First.capacity();
    }
    ASSERT_GT(Grown, ClaimTable::InitialCapacity);
    ClaimTable Second;
    Second.reset(16, NumThreads);
    EXPECT_EQ(Second.capacity(), Grown);
    EXPECT_EQ(Second.size(), 0u);
    raceInto(Second, NumThreads, Values);
    EXPECT_EQ(Second.capacity(), Grown) << "the reused slots had to grow";
    // Resetting the same table empties it too.
    Second.reset(16, NumThreads);
    EXPECT_EQ(Second.capacity(), Grown);
    raceInto(Second, NumThreads, Values);
  }).join();
  std::thread([&] {
    ClaimTable Other;
    Other.reset(16, NumThreads);
    EXPECT_EQ(Other.capacity(), ClaimTable::InitialCapacity);
  }).join();
}

// The claim table takes its slot from the low hash bits and compares the
// whole hash as the slot's tag, so both ends of Bitset::hash() must
// depend on every op. Configurations that differ only in high ops (bits
// 10-21 of a 22-op search) must still reach all 64 low-bit residues and
// all 64 top-bit residues; plain FNV-1a kept the low bits constant here.
TEST(BitsetTest, HashDispersesHighBitsToBothEnds) {
  std::set<size_t> Low, High;
  for (uint64_t V = 0; V != 4096; ++V) {
    Bitset B(22);
    for (unsigned I = 0; I != 12; ++I)
      if (V >> I & 1)
        B.set(10 + I);
    Low.insert(B.hash() & 63);
    High.insert(B.hash() >> 58);
  }
  EXPECT_EQ(Low.size(), 64u) << "low hash bits ignore ops 10-21";
  EXPECT_EQ(High.size(), 64u) << "top hash bits ignore ops 10-21";
}

// The wrong-set's watch-list indexing: a constraint is filed under the
// first set bit of its Value, and a probe walking only the probed
// configuration's set-bit buckets must still find every match (any
// matching constraint's Value is a subset of the configuration).
TEST(WatchedWrongSetTest, MatchesAcrossWatchBuckets) {
  WatchedWrongSet W;
  W.reset(130);

  // (Mask = {3, 70}, Value = {70}): refutes configurations that applied
  // op 70 but not op 3. Watched under bit 70 — in the second word.
  Bitset M1(130), V1(130);
  M1.set(3);
  M1.set(70);
  V1.set(70);
  W.add(M1, V1);

  Bitset C(130);
  C.set(70);
  EXPECT_TRUE(W.matches(C)) << "70 applied, 3 not: refuted";
  C.set(3);
  EXPECT_FALSE(W.matches(C)) << "both applied: mask disagrees with value";
  Bitset D(130);
  D.set(3);
  EXPECT_FALSE(W.matches(D)) << "watch bit 70 absent: cannot match";
}

// reset() must both drop old constraints and survive re-shaping to a
// different width (the search reuses one instance across runs).
TEST(WatchedWrongSetTest, ResetDropsConstraintsAndReshapes) {
  WatchedWrongSet W;
  W.reset(32);
  Bitset M(32), V(32);
  M.set(1);
  V.set(1);
  W.add(M, V);
  Bitset C(32);
  C.set(1);
  EXPECT_TRUE(W.matches(C));

  W.reset(96);
  Bitset C2(96);
  C2.set(1);
  C2.set(90);
  EXPECT_FALSE(W.matches(C2));
}

// The shared-search contract: lock-free probes racing lock-free adds.
// Writers insert constraints watched under distinct bits while readers
// continuously probe; after the join every inserted constraint must be
// visible and no probe may ever have crashed or false-positived on the
// sentinel configuration none of the constraints match.
TEST(WatchedWrongSetTest, ConcurrentAddsAndProbes) {
  constexpr size_t NumBits = 256;
  constexpr unsigned Writers = 4;
  constexpr unsigned PerWriter = 50;
  WatchedWrongSet W;
  W.reset(NumBits);

  // Never matched: bit 255 is set in no constraint's mask, and every
  // constraint requires its own watch bit which Clean lacks.
  Bitset Clean(NumBits);
  Clean.set(255);

  std::atomic<bool> Done{false};
  std::atomic<uint64_t> FalseHits{0};
  std::thread Reader([&] {
    while (!Done.load()) {
      if (W.matches(Clean))
        FalseHits.fetch_add(1);
    }
  });

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Writers; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != PerWriter; ++I) {
        size_t Bit = T * PerWriter + I; // Distinct watch bit per entry.
        Bitset M(NumBits), V(NumBits);
        M.set(Bit);
        V.set(Bit);
        W.add(std::move(M), std::move(V));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Done.store(true);
  Reader.join();

  EXPECT_EQ(FalseHits.load(), 0u);
  for (size_t Bit = 0; Bit != Writers * PerWriter; ++Bit) {
    Bitset C(NumBits);
    C.set(Bit);
    EXPECT_TRUE(W.matches(C)) << "constraint on bit " << Bit << " lost";
  }
}

TEST(FlatBitsetSetTest, InsertContainsClearReuse) {
  FlatBitsetSet Set;
  Bitset A(100), B(100);
  B.set(99);
  EXPECT_FALSE(Set.contains(A));
  EXPECT_TRUE(Set.insert(A));
  EXPECT_FALSE(Set.insert(A)) << "duplicate insert must report present";
  EXPECT_TRUE(Set.insert(B));
  EXPECT_TRUE(Set.contains(A));
  EXPECT_TRUE(Set.contains(B));
  EXPECT_EQ(Set.size(), 2u);

  // clear() keeps capacity; a refill must behave like a fresh set.
  Set.clear();
  EXPECT_EQ(Set.size(), 0u);
  EXPECT_FALSE(Set.contains(A));
  EXPECT_TRUE(Set.insert(A));
  EXPECT_FALSE(Set.insert(A));
}

TEST(FlatBitsetSetTest, SurvivesGrowth) {
  FlatBitsetSet Set;
  constexpr unsigned N = 500; // Forces several grow() rehashes.
  for (unsigned I = 0; I != N; ++I) {
    Bitset B(512);
    B.set(I);
    EXPECT_TRUE(Set.insert(B));
  }
  EXPECT_EQ(Set.size(), N);
  for (unsigned I = 0; I != N; ++I) {
    Bitset B(512);
    B.set(I);
    EXPECT_TRUE(Set.contains(B));
    EXPECT_FALSE(Set.insert(B));
  }
}

TEST(ArenaTest, BumpAllocationAndAlignment) {
  Arena A(/*ChunkBytes=*/256);
  void *P1 = A.allocate(10, 8);
  void *P2 = A.allocate(10, 64);
  EXPECT_NE(P1, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P1) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P2) % 64, 0u);
  EXPECT_EQ(A.bytesAllocated(), 20u);

  // Oversized requests get a dedicated chunk instead of failing.
  void *Big = A.allocate(4096);
  EXPECT_NE(Big, nullptr);
  EXPECT_GE(A.bytesReserved(), 4096u);
}

// The lifetime contract: reset() recycles chunk memory in place, so a
// steady-state fill-reset-fill loop reuses capacity and stops growing.
TEST(ArenaTest, ResetRecyclesChunks) {
  Arena A(/*ChunkBytes=*/512);
  for (unsigned I = 0; I != 8; ++I)
    A.allocate(256);
  size_t Reserved = A.bytesReserved();
  size_t Chunks = A.numChunks();
  EXPECT_GT(Chunks, 1u) << "fill should have spilled into extra chunks";

  for (unsigned Round = 0; Round != 4; ++Round) {
    A.reset();
    EXPECT_EQ(A.bytesAllocated(), 0u);
    for (unsigned I = 0; I != 8; ++I) {
      void *P = A.allocate(256);
      // Writing the full allocation catches chunk-boundary arithmetic
      // errors under ASan/TSan builds.
      for (size_t B = 0; B != 256; ++B)
        static_cast<char *>(P)[B] = static_cast<char>(B);
    }
    EXPECT_EQ(A.bytesReserved(), Reserved)
        << "steady-state round grew the arena";
    EXPECT_EQ(A.numChunks(), Chunks);
  }
}

TEST(ArenaTest, CreateConstructsInPlace) {
  Arena A;
  struct Pair {
    int X;
    int Y;
  };
  Pair *P = A.create<Pair>(Pair{3, 4});
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->X, 3);
  EXPECT_EQ(P->Y, 4);
}

// ChunkedVector: growth never moves existing elements (the BDD node
// table holds raw pointers into it), and clear() + refill reuses the
// same chunk memory without touching the arena.
TEST(ChunkedVectorTest, StableAddressesAcrossGrowth) {
  Arena A;
  ChunkedVector<uint64_t, 64> V(A);
  EXPECT_TRUE(V.empty());
  V.push_back(1);
  uint64_t *First = &V[0];
  for (uint64_t I = 1; I != 1000; ++I)
    V.push_back(I + 1);
  EXPECT_EQ(V.size(), 1000u);
  EXPECT_EQ(&V[0], First) << "growth moved an element";
  for (uint64_t I = 0; I != 1000; ++I)
    EXPECT_EQ(V[I], I + 1);
  EXPECT_EQ(V.back(), 1000u);

  size_t Reserved = A.bytesReserved();
  V.clear();
  EXPECT_TRUE(V.empty());
  for (uint64_t I = 0; I != 1000; ++I)
    V.push_back(I * 3);
  EXPECT_EQ(&V[0], First) << "refill must reuse the carved chunks";
  EXPECT_EQ(V[999], 999u * 3);
  EXPECT_EQ(A.bytesReserved(), Reserved)
      << "clear()+refill must not allocate new chunks";
}
