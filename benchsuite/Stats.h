//===- benchsuite/Stats.h - Sample statistics for bench_suite --*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact percentiles over per-job samples, process CPU time and peak RSS
/// from getrusage, a log-bucketed concurrent histogram for per-call
/// latencies (too many samples to keep), and the one-line JSON writer
/// bench_suite prints its results with.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_BENCHSUITE_STATS_H
#define NETUPD_BENCHSUITE_STATS_H

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace netupd {
namespace suite {

/// The \p P quantile (P in [0, 1]) of \p V, linearly interpolated between
/// order statistics (Hyndman-Fan type 7, numpy's default); 0 if empty.
inline double quantile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = P * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// User plus system CPU seconds of the whole process so far.
inline double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) * 1e-6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

/// Peak resident set size of the process so far, in MiB.
inline double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // Linux: KiB.
}

/// Concurrent histogram over nanosecond samples with 16 buckets per
/// octave (about 4.4% relative resolution), for per-call latencies whose
/// sample counts run into the millions. Percentiles return the bucket's
/// geometric midpoint.
class LogHistogram {
public:
  static constexpr unsigned PerOctave = 16;
  static constexpr unsigned NumBuckets = 64 * PerOctave;

  void record(uint64_t Ns) {
    // relaxed: independent statistics counters, read after the threads
    // that record them have been joined.
    Buckets[bucketOf(Ns)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Zeroes every bucket; only while no thread records.
  void reset() {
    for (auto &B : Buckets)
      B.store(0, std::memory_order_relaxed); // relaxed: see record().
  }

  uint64_t count() const {
    uint64_t N = 0;
    for (const auto &B : Buckets)
      N += B.load(std::memory_order_relaxed); // relaxed: see record().
    return N;
  }

  /// The \p P quantile in nanoseconds; 0 when empty.
  double quantileNs(double P) const {
    uint64_t Total = count();
    if (Total == 0)
      return 0.0;
    uint64_t Rank = std::min<uint64_t>(
        Total - 1, static_cast<uint64_t>(P * static_cast<double>(Total)));
    uint64_t Seen = 0;
    for (unsigned I = 0; I != NumBuckets; ++I) {
      // relaxed: see record().
      Seen += Buckets[I].load(std::memory_order_relaxed);
      if (Seen > Rank)
        return std::exp2((static_cast<double>(I) + 0.5) / PerOctave);
    }
    return 0.0;
  }

private:
  static unsigned bucketOf(uint64_t Ns) {
    if (Ns <= 1)
      return 0;
    auto I = static_cast<unsigned>(std::log2(static_cast<double>(Ns)) *
                                   PerOctave);
    return std::min(I, NumBuckets - 1);
  }

  std::atomic<uint64_t> Buckets[NumBuckets] = {};
};

/// Builds one flat JSON object on a single line. Keys are emitted in
/// insertion order; numbers keep full precision.
class JsonLine {
public:
  JsonLine &str(const std::string &Key, const std::string &Value) {
    return raw(Key, "\"" + Value + "\"");
  }
  JsonLine &num(const std::string &Key, double Value) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.10g",
                  std::isfinite(Value) ? Value : 0.0);
    return raw(Key, Buf);
  }
  JsonLine &boolean(const std::string &Key, bool Value) {
    return raw(Key, Value ? "true" : "false");
  }
  /// A metric in the {"value": v, "unit": u} shape.
  JsonLine &metric(const std::string &Key, double Value,
                   const std::string &Unit) {
    JsonLine M;
    M.num("value", Value).str("unit", Unit);
    return raw(Key, M.text());
  }
  JsonLine &raw(const std::string &Key, const std::string &Json) {
    Body += (Body.empty() ? "" : ", ") + ("\"" + Key + "\": ") + Json;
    return *this;
  }
  std::string text() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

} // namespace suite
} // namespace netupd

#endif // NETUPD_BENCHSUITE_STATS_H
