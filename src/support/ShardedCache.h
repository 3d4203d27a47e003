//===- support/ShardedCache.h - Sharded digest-keyed cache -----*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe map from canonical Digest to an arbitrary value,
/// sharded by digest so concurrent engine workers and racing portfolio
/// members rarely contend on the same mutex. Both memoization layers
/// instantiate it: the checker-level CheckCache (mc/MemoizingChecker.h,
/// values are CheckResults) and the engine-level ResultCache
/// (engine/Engine.h, values are whole synthesis reports). The engine
/// also keeps its Impossible proofs in one, keyed by (scenario,
/// granularity), to shed portfolio members.
///
/// Bounded with second-chance (clock) eviction: when a shard is full, a
/// new entry evicts the first entry whose referenced bit is clear,
/// clearing bits as the clock hand passes. lookup() sets the bit, so
/// recently-served entries survive a sweep while stale ones are
/// recycled — long-running services with drifting workloads keep
/// admitting fresh results instead of freezing the cache at its first
/// fill (which is what the previous drop-new policy did). The policy
/// costs one bool per entry and O(1) amortized work per store; the hot
/// path stays one lock + one hash probe.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SUPPORT_SHARDEDCACHE_H
#define NETUPD_SUPPORT_SHARDEDCACHE_H

#include "support/Digest.h"
#include "support/ThreadAnnotations.h"

#include <atomic>
#include <cassert>
#include <optional>
#include <unordered_map>
#include <vector>

namespace netupd {

/// Aggregate counters of one cache; hits/misses are counted by lookup().
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  /// Entries displaced by the second-chance policy to admit new ones.
  uint64_t Evictions = 0;
  size_t Entries = 0;

  double hitRate() const {
    return Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses)
                         : 0.0;
  }
};

/// The sharded map; see file comment. \p V must be copyable (lookup
/// returns a copy so no reference escapes the shard lock).
template <typename V> class ShardedDigestCache {
public:
  explicit ShardedDigestCache(size_t MaxEntries = 1 << 20)
      : ShardCap(MaxEntries / NumShards + 1) {}

  /// Returns the cached value for \p Key, counting a hit or miss. A hit
  /// marks the entry referenced, granting it a second chance at the
  /// next eviction sweep.
  std::optional<V> lookup(const Digest &Key) {
    Shard &S = shardFor(Key);
    MutexLock Lock(S.M);
    auto It = S.Map.find(Key);
    if (It == S.Map.end()) {
      // relaxed: statistics counter; cross-shard totals may be skewed
      // mid-flight, which stats() readers accept.
      Misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    It->second.Referenced = true;
    Hits.fetch_add(1, std::memory_order_relaxed); // relaxed: statistics
    return It->second.Value;
  }

  /// Stores \p Value under \p Key, evicting one unreferenced entry when
  /// the shard is full; a no-op when the key is already present (first
  /// result wins — results for one key are interchangeable by
  /// construction).
  void store(const Digest &Key, V Value) {
    Shard &S = shardFor(Key);
    MutexLock Lock(S.M);
    // Insert first (one probe serves both the duplicate check and the
    // insertion).
    if (!S.Map.emplace(Key, Entry{std::move(Value), true}).second)
      return;
    // The new key is not in the ring yet, so the sweep cannot displace
    // it.
    if (S.Map.size() > ShardCap) {
      size_t Slot = evictOne(S);
      S.Ring[Slot] = Key;
    } else {
      S.Ring.push_back(Key);
    }
  }

  CacheStats stats() const {
    CacheStats Out;
    // relaxed: statistics sample; counters may race in-flight operations.
    Out.Hits = Hits.load(std::memory_order_relaxed);
    Out.Misses = Misses.load(std::memory_order_relaxed);
    Out.Evictions = Evictions.load(std::memory_order_relaxed);
    for (const Shard &S : Shards) {
      MutexLock Lock(S.M);
      Out.Entries += S.Map.size();
    }
    return Out;
  }

  void clear() {
    for (Shard &S : Shards) {
      MutexLock Lock(S.M);
      S.Map.clear();
      S.Ring.clear();
      S.Hand = 0;
    }
    // relaxed: statistics reset; racing counts land on either side.
    Hits.store(0, std::memory_order_relaxed);
    Misses.store(0, std::memory_order_relaxed);
    Evictions.store(0, std::memory_order_relaxed);
  }

private:
  static constexpr unsigned NumShards = 16;
  /// A cached value plus its clock bit. New and re-looked-up entries are
  /// referenced; the eviction hand clears bits as it sweeps.
  struct Entry {
    V Value;
    bool Referenced = true;
  };
  struct Shard {
    mutable Mutex M;
    std::unordered_map<Digest, Entry, DigestHash> Map NETUPD_GUARDED_BY(M);
    /// Insertion ring for the clock hand; always lists exactly the
    /// shard's keys (an evicted key's slot is reused by its successor).
    std::vector<Digest> Ring NETUPD_GUARDED_BY(M);
    size_t Hand NETUPD_GUARDED_BY(M) = 0;
  };
  Shard &shardFor(const Digest &Key) {
    return Shards[DigestHash()(Key) % NumShards];
  }

  /// Second-chance sweep: clears referenced bits until an unreferenced
  /// entry is found, erases it, and returns its ring slot for reuse.
  /// Terminates within two passes — the first pass clears every bit in
  /// the worst case, so the second pass's first probe must evict.
  size_t evictOne(Shard &S) NETUPD_REQUIRES(S.M) {
    for (;;) {
      if (S.Hand >= S.Ring.size())
        S.Hand = 0;
      auto It = S.Map.find(S.Ring[S.Hand]);
      assert(It != S.Map.end() && "ring and map out of sync");
      if (It->second.Referenced) {
        It->second.Referenced = false;
        ++S.Hand;
        continue;
      }
      S.Map.erase(It);
      Evictions.fetch_add(1, std::memory_order_relaxed); // relaxed: stats
      size_t Slot = S.Hand;
      ++S.Hand; // Advance past the victim, as the clock algorithm does.
      return Slot;
    }
  }

  Shard Shards[NumShards];
  const size_t ShardCap;
  std::atomic<uint64_t> Hits{0}, Misses{0}, Evictions{0};
};

} // namespace netupd

#endif // NETUPD_SUPPORT_SHARDEDCACHE_H
