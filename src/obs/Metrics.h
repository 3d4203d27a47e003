//===- obs/Metrics.h - Process-wide metrics registry -----------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named counters, gauges, and fixed-bucket latency histograms for the
/// synthesis engine, collected in one process-wide registry whose
/// snapshot() serializes to the JSON a future synthesis daemon would
/// serve from its `stats` endpoint.
///
/// Two cost tiers, so instrumentation can live in release builds:
///
///  - Per-job metrics (queue wait, end-to-end job latency, cache hit
///    counters) are always on; they cost a couple of relaxed atomic
///    increments per *job*, invisible next to a synthesis run.
///  - Per-call metrics (check-call latency, mutate/rollback time,
///    lock-wait in the shared search state and EarlyTermination, the
///    per-candidate phase breakdown in OrderUpdate) sit on hot paths
///    and are gated by detailEnabled() — one relaxed atomic load when
///    off, clock reads only when on. Toggle at runtime or via the
///    NETUPD_OBS_DETAIL environment variable.
///
/// Cache instrumentation is pull-based: ShardedCache / ConstraintStore
/// owners register a callback that samples CacheStats at snapshot time,
/// so the caches themselves stay free of metrics code.
///
/// Same hard contract as tracing (obs/Trace.h): metrics never change a
/// verdict or a command sequence.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_OBS_METRICS_H
#define NETUPD_OBS_METRICS_H

#include "obs/Trace.h" // nowNs(), the shared time base.
#include "support/ThreadAnnotations.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

namespace netupd {
namespace obs {

/// Whether the per-call (hot-path) metrics tier is collecting; see file
/// comment. One relaxed load; initialized from NETUPD_OBS_DETAIL.
bool detailEnabled();

/// Turns the per-call tier on or off at runtime.
void setDetail(bool Enabled);

/// A monotonically increasing counter. All operations are relaxed
/// atomics; safe from any thread.
class Counter {
public:
  // relaxed: statistics only — each metric is an independent monotone
  // count; readers tolerate torn cross-metric views, never a torn value.
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// A last-value-wins instantaneous value.
class Gauge {
public:
  // relaxed: statistics only — last-value-wins by design, no ordering
  // relationship with any other state.
  void set(int64_t N) { V.store(N, std::memory_order_relaxed); }
  void add(int64_t N) { V.fetch_add(N, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// A fixed-bucket latency histogram over nanosecond samples. Buckets are
/// powers of two: bucket 0 holds the value 0, bucket i >= 1 holds values
/// whose bit width is i, i.e. [2^(i-1), 2^i). Recording is two relaxed
/// fetch_adds on a cache-line-padded per-thread stripe, so concurrent
/// shards never bounce a bucket line between cores; readers aggregate
/// the stripes, and every derived figure (count, sum, percentiles — and
/// therefore snapshotJson) is identical to the unstriped layout's.
/// Percentile estimation walks the 64 buckets and returns the
/// containing bucket's upper bound, so estimates are exact to within 2x —
/// plenty to tell a 10us check from a 1ms one, which is what the daemon
/// and the bench phase tables need. Exact bench percentiles (bench_suite's
/// latency_p50_ms/p90/p99) are computed from per-job latencies instead,
/// not from this histogram.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 64;

  void record(uint64_t Ns) {
    Stripe &S = Stripes[stripeIndex()];
    // relaxed: per-stripe statistics; aggregation tolerates skew between
    // bucket and sum updates (count/sum are advisory, never a verdict).
    S.Buckets[bucketOf(Ns)].fetch_add(1, std::memory_order_relaxed);
    S.Sum.fetch_add(Ns, std::memory_order_relaxed);
  }
  void recordSeconds(double S) {
    record(S <= 0 ? 0 : static_cast<uint64_t>(S * 1e9));
  }

  uint64_t count() const {
    uint64_t N = 0;
    // relaxed: statistical read; a sample racing the sum is acceptable.
    for (const Stripe &S : Stripes)
      for (const auto &B : S.Buckets)
        N += B.load(std::memory_order_relaxed);
    return N;
  }
  uint64_t sumNs() const {
    uint64_t N = 0;
    // relaxed: statistical read; a sample racing the sum is acceptable.
    for (const Stripe &S : Stripes)
      N += S.Sum.load(std::memory_order_relaxed);
    return N;
  }
  uint64_t bucketCount(unsigned I) const {
    uint64_t N = 0;
    // relaxed: statistical read; a sample racing the sum is acceptable.
    for (const Stripe &S : Stripes)
      N += S.Buckets[I].load(std::memory_order_relaxed);
    return N;
  }

  /// The bucket index a sample of \p Ns lands in.
  static unsigned bucketOf(uint64_t Ns) {
    if (Ns == 0)
      return 0;
    unsigned Width = 64 - static_cast<unsigned>(__builtin_clzll(Ns));
    return Width < NumBuckets ? Width : NumBuckets - 1;
  }

  /// Exclusive upper bound of bucket \p I in nanoseconds.
  static uint64_t bucketUpperNs(unsigned I) {
    if (I == 0)
      return 1;
    if (I >= 63)
      return ~uint64_t(0);
    return uint64_t(1) << I;
  }

  /// Upper bound (ns) of the bucket holding the \p P quantile,
  /// P in [0, 1]; 0 when the histogram is empty.
  uint64_t percentileNs(double P) const {
    uint64_t Counts[NumBuckets] = {};
    uint64_t Total = 0;
    // relaxed: percentile estimate over an in-flight histogram; exactness
    // is already bounded by the power-of-two buckets.
    for (const Stripe &S : Stripes)
      for (unsigned I = 0; I < NumBuckets; ++I)
        Counts[I] += S.Buckets[I].load(std::memory_order_relaxed);
    for (unsigned I = 0; I < NumBuckets; ++I)
      Total += Counts[I];
    if (Total == 0)
      return 0;
    uint64_t Rank = static_cast<uint64_t>(P * static_cast<double>(Total));
    if (Rank >= Total)
      Rank = Total - 1;
    uint64_t Seen = 0;
    for (unsigned I = 0; I < NumBuckets; ++I) {
      Seen += Counts[I];
      if (Seen > Rank)
        return bucketUpperNs(I);
    }
    return bucketUpperNs(NumBuckets - 1);
  }

  void reset() {
    // relaxed: zeroing statistics; concurrent recorders may land on
    // either side of the reset, which tests and benches accept.
    for (Stripe &S : Stripes) {
      for (auto &B : S.Buckets)
        B.store(0, std::memory_order_relaxed);
      S.Sum.store(0, std::memory_order_relaxed);
    }
  }

private:
  static constexpr unsigned NumStripes = 8;

  struct alignas(64) Stripe {
    std::atomic<uint64_t> Buckets[NumBuckets] = {};
    std::atomic<uint64_t> Sum{0};
  };

  /// This thread's stripe slot: assigned round-robin on first use, so
  /// the stripe pick is one thread_local read per record.
  static unsigned stripeIndex() {
    static std::atomic<unsigned> Next{0};
    // relaxed: round-robin ticket; any interleaving yields a valid slot.
    thread_local unsigned Slot =
        Next.fetch_add(1, std::memory_order_relaxed) % NumStripes;
    return Slot;
  }

  Stripe Stripes[NumStripes];
};

/// Acquires \p M, recording the time spent blocked into \p H when the
/// detail tier is on. The uncontended detail-on path is a try_lock with
/// no clock read, so profiling mostly prices the waits, not the locks.
///
/// This is THE sanctioned NO_THREAD_SAFETY_ANALYSIS site (see the
/// suppression policy in support/ThreadAnnotations.h): the analysis
/// cannot merge the three branch-dependent acquisition paths, but the
/// ACQUIRE interface annotation still tells every caller the capability
/// is held on return — callers pair it with an adopting scoped lock and
/// stay fully checked.
template <typename MutexT>
void timedLock(MutexT &M, Histogram &H) NETUPD_ACQUIRE(M)
    NETUPD_NO_THREAD_SAFETY_ANALYSIS {
  if (!detailEnabled()) {
    M.lock();
    return;
  }
  if (M.try_lock())
    return;
  uint64_t T0 = nowNs();
  M.lock();
  H.record(nowNs() - T0);
}

/// timedLock for the shared (reader) side of a SharedMutex. Same
/// sanctioned suppression as timedLock above.
template <typename MutexT>
void timedLockShared(MutexT &M, Histogram &H) NETUPD_ACQUIRE_SHARED(M)
    NETUPD_NO_THREAD_SAFETY_ANALYSIS {
  if (!detailEnabled()) {
    M.lock_shared();
    return;
  }
  if (M.try_lock_shared())
    return;
  uint64_t T0 = nowNs();
  M.lock_shared();
  H.record(nowNs() - T0);
}

/// One sample of a cache's counters, the obs-side mirror of the support
/// layer's CacheStats (kept separate so obs/ depends on nothing).
struct CacheSample {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Entries = 0;
};

/// The process-wide registry. counter()/gauge()/histogram() find or
/// create by name under a mutex and return a reference that stays valid
/// for the process lifetime — hot call sites hold it in a function-local
/// static so the lookup happens once.
class MetricsRegistry {
public:
  static MetricsRegistry &instance();

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Registers a cache-stats callback sampled at snapshot time; returns
  /// a token for unregisterCacheStats. Re-registering a name replaces
  /// the previous provider (the common case: a new engine reusing the
  /// process-wide caches).
  uint64_t registerCacheStats(const std::string &Name,
                              std::function<CacheSample()> Sample);

  /// Removes the provider \p Token, if it is still the registered one.
  void unregisterCacheStats(uint64_t Token);

  /// Every metric as JSON: {"counters":{name:value,...},
  /// "gauges":{...}, "histograms":{name:{"count","sum_ms","p50_ms",
  /// "p95_ms","p99_ms"},...}, "caches":{name:{"hits","misses",
  /// "evictions","entries"},...}} — the payload of the future daemon's
  /// `stats` endpoint. Names are emitted sorted. A histogram whose name
  /// does not end in "_ns" counts something other than time (e.g.
  /// synth.sat_theory_rounds); it prints "sum", "p50", "p95" and "p99"
  /// as the raw recorded values instead of milliseconds.
  std::string snapshotJson() const;

  /// Zeroes every counter, gauge, and histogram (providers are kept) —
  /// for tests and for benches isolating a section.
  void resetAll();

private:
  MetricsRegistry() = default;
  struct Impl;
  Impl &impl() const;
};

} // namespace obs
} // namespace netupd

#endif // NETUPD_OBS_METRICS_H
