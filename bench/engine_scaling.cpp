//===- bench/engine_scaling.cpp - Engine worker-count sweep ----*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the batch engine: one fixed batch of long-path diamond
/// instances over the three §6 topology families, executed repeatedly
/// with 1, 2, 4, ... workers. Reported is wall-clock per sweep and the
/// speedup over the 1-worker run; verdicts are asserted identical across
/// sweeps (the engine's determinism contract).
///
/// A second section exercises portfolio racing on Fig. 8(h)-style double
/// diamonds, where the rule-granularity member must win the race and the
/// switch-granularity member alone would prove Impossible. A third
/// section measures the two memoization layers on a duplicate-heavy
/// batch: the engine result cache (whole jobs) and the checker-level
/// "memo:" cache (individual queries). A fourth section measures
/// *intra-job* shard scaling on deep exhaustive proofs: one engine
/// worker, the DFS prefix-split across 1/2/4 shards
/// (EngineOptions::IntraJobShards), verdicts asserted stable. A fifth
/// section measures cross-job learning (EngineOptions::SharedLearning):
/// an autotuning-style probe stream over one scenario family, run with
/// the constraint store off and on — verdicts must be byte-identical
/// and the reuse run must issue strictly fewer checker queries.
///
/// Workload sizing: the two parallel-scaling sections (sweep, shards)
/// run at a floored per-section scale — max(--scale, 1.0) — so their
/// batches are long enough for speedups to mean something even when CI
/// smoke-runs the bench at a reduced global scale (at --scale=0.25 the
/// old sizing measured pure engine/shard setup overhead: ~1.0x at 4
/// workers, 0.73x at 4 shards). Each section's effective scale is
/// recorded in BENCH_engine.json so trend comparisons only ever compare
/// like with like.
///
/// Observability (src/obs/) is measured two ways. Every timed section
/// runs with the per-call metrics tier and tracing OFF, so the numbers
/// stay comparable with the pre-obs trend history; the per-job tier is
/// always on and is part of what the trend tracks. On top of that:
///
///  - each major section gets one extra *profiled* pass (detail tier
///    on, same workload, verdicts asserted unchanged) whose merged
///    SynthStats yield a phase breakdown — checking vs mutate/rollback
///    vs pruning vs SAT. The raw clocks are per-shard thread-seconds
///    and sum across shards, so the "phases" array reports the honest
///    total (cpu_s) plus each phase's scale-free share of it, which is
///    what the trend gate compares;
///  - an "obs" section runs the 1-shard deep-proof workload in three
///    modes (off / metrics / trace) back to back, reporting the
///    overhead of each tier on jobs/sec and asserting that verdicts
///    and query counts are identical across modes (the observability
///    contract); the trace-mode run's spans are exported to
///    BENCH_trace.json, loadable in ui.perfetto.dev.
///
/// Sections also report exact p50/p95/p99 per-job latencies computed
/// from the per-report wall clocks (not the 2x-bucketed histograms).
///
/// Everything measured is also written to BENCH_engine.json (jobs/sec,
/// TotalQueries, cache hit rates, shard speedups, learning savings,
/// phase breakdowns, job-latency percentiles) so the perf trajectory is
/// tracked machine-readably from PR 2 onward; CI archives the file per
/// run and fail-soft-compares it against the previous run
/// (scripts/check_bench_trend.py).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "engine/Engine.h"
#include "mc/MemoizingChecker.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "topo/Churn.h"
#include "topo/Generators.h"

#include <algorithm>
#include <cstdio>
#include <thread>

using namespace netupd;
using namespace netupd::benchutil;

namespace {

std::vector<SynthJob> buildBatch(double Scale) {
  std::vector<SynthJob> Jobs;
  Rng R(2026);
  DiamondOptions Opts;
  Opts.LongPaths = true;

  auto AddJob = [&](const std::string &Name, const Topology &Topo) {
    Rng Fork = R.fork();
    std::optional<Scenario> S =
        makeDiamondScenario(Topo, Fork, PropertyKind::Reachability, Opts);
    if (!S)
      return;
    SynthJob Job;
    Job.Name = Name;
    Job.S = std::move(*S);
    Jobs.push_back(std::move(Job));
  };

  // Eighteen per family (at scale 1): enough jobs that no single heavy
  // head can dominate the batch wall-clock (with three, the largest zoo
  // instance bounded the 4-worker wall and the sweep read ~1.0x) and
  // enough total work that the sweep runs >= 1s — below that the
  // percentile and speedup figures tracked by check_bench_trend.py sit
  // inside scheduler noise.
  unsigned PerFamily = std::max(6u, static_cast<unsigned>(18 * Scale));

  // Zoo-like WANs, largest first so the batch has heavy heads.
  std::vector<unsigned> ZooIdx(NumZooLike);
  for (unsigned I = 0; I != NumZooLike; ++I)
    ZooIdx[I] = I;
  std::sort(ZooIdx.begin(), ZooIdx.end(), [](unsigned A, unsigned B) {
    return zooLikeSize(A) > zooLikeSize(B);
  });
  for (unsigned I = 0; I != PerFamily; ++I)
    AddJob("zoo-" + std::to_string(ZooIdx[I % NumZooLike]),
           buildZooLike(ZooIdx[I % NumZooLike]));

  for (unsigned I = 0; I != PerFamily; ++I)
    AddJob("fattree-8", buildFatTree(8));

  for (unsigned I = 0; I != PerFamily; ++I) {
    Rng Fork = R.fork();
    AddJob("smallworld-200", buildSmallWorld(200, 6, 0.3, Fork));
  }
  return Jobs;
}

/// Exact per-job latency percentiles over a batch, in milliseconds.
/// Computed from every report's wall clock (nearest-rank on the sorted
/// sample), not from the 2x-accurate obs::Histogram buckets — the JSON
/// trend wants exact numbers where they are cheap to have.
struct JobPercentiles {
  double P50Ms = 0.0, P95Ms = 0.0, P99Ms = 0.0;
};

JobPercentiles percentilesOf(std::vector<double> S) {
  if (S.empty())
    return {};
  std::sort(S.begin(), S.end());
  auto At = [&](double P) {
    size_t I = std::min(S.size() - 1,
                        static_cast<size_t>(P * static_cast<double>(S.size())));
    return S[I] * 1e3;
  };
  return {At(0.50), At(0.95), At(0.99)};
}

/// On-CPU per-job latency: from worker pickup to report, excluding the
/// queue (SynthReport::Seconds).
JobPercentiles jobPercentiles(const BatchReport &Rep) {
  std::vector<double> S;
  S.reserve(Rep.Reports.size());
  for (const SynthReport &R : Rep.Reports)
    S.push_back(R.Seconds);
  return percentilesOf(std::move(S));
}

/// Queue-wait percentiles, kept apart from the on-CPU ones: at high
/// backlog-to-worker ratios the queue dominates end-to-end latency, and
/// folding it in would make per-job cost look like it scales with the
/// batch size.
JobPercentiles queuePercentiles(const BatchReport &Rep) {
  std::vector<double> S;
  S.reserve(Rep.Reports.size());
  for (const SynthReport &R : Rep.Reports)
    S.push_back(R.QueueSeconds);
  return percentilesOf(std::move(S));
}

/// One worker-count measurement for the JSON report.
struct SweepPoint {
  unsigned Workers = 0;
  double WallSeconds = 0.0;
  double JobsPerSec = 0.0;
  double Speedup = 1.0;
  uint64_t TotalQueries = 0;
  unsigned Succeeded = 0;
  JobPercentiles Pct;
  /// Queue-wait percentiles, reported beside the on-CPU ones: at one
  /// worker almost the whole batch is queue time, and the split is what
  /// shows whether adding workers shortens jobs or just the line.
  JobPercentiles Queue;
};

/// One intra-job shard-count measurement for the JSON report.
struct ShardPoint {
  unsigned Shards = 0;
  double WallSeconds = 0.0;
  double JobsPerSec = 0.0;
  double Speedup = 1.0;
  uint64_t TotalQueries = 0;
  uint64_t StolenTasks = 0;
  unsigned Succeeded = 0;
  JobPercentiles Pct;
};

/// One tight-budget measurement for the JSON report.
struct BudgetPoint {
  unsigned Shards = 0;
  double WallSeconds = 0.0;
  double JobsPerSec = 0.0;
  uint64_t TotalQueries = 0;
  uint64_t BudgetSpent = 0;
  unsigned Aborted = 0;
  JobPercentiles Pct;
};

/// One profiled (detail-tier-on) pass: the phase breakdown of a section
/// workload, from the merged winning-member SynthStats. The raw phase
/// clocks are per-shard thread-seconds and SUM across shards, so the
/// JSON reports the honest total (cpu_s) plus each phase's scale-free
/// share of it — comparing raw per-phase thread-seconds across runs
/// conflated parallelism with work whenever the shard or worker count
/// behind a point changed. Param is the section's knob (workers or
/// shards).
struct PhasePoint {
  const char *Section = "";
  unsigned Param = 0;
  double WallSeconds = 0.0;
  double CheckS = 0.0, MutateS = 0.0, PruneS = 0.0, SatS = 0.0;

  /// Summed thread-seconds across every shard and every phase.
  double cpuS() const { return CheckS + MutateS + PruneS + SatS; }
  /// One phase's fraction of cpuS() (0 when nothing was profiled).
  double share(double PhaseS) const {
    double C = cpuS();
    return C > 0 ? PhaseS / C : 0.0;
  }
};

/// One observability-mode measurement: the deep-proof workload with the
/// obs tiers off, with per-call metrics on, and with tracing on top.
struct ObsPoint {
  const char *Mode = "";
  double WallSeconds = 0.0;
  double JobsPerSec = 0.0;
  /// Slowdown of this mode's jobs/sec relative to the "off" mode, in
  /// percent (0 for "off" itself; negative = noise made it faster).
  double OverheadPct = 0.0;
};

/// One learning-mode measurement for the JSON report.
struct LearnPoint {
  const char *Mode = "";
  double WallSeconds = 0.0;
  double JobsPerSec = 0.0;
  uint64_t TotalQueries = 0;
  uint64_t Imported = 0, Exported = 0, SeededPrunes = 0;
  unsigned Succeeded = 0;
};

/// One caching-mode measurement for the JSON report.
struct CachePoint {
  const char *Mode = "";
  double WallSeconds = 0.0;
  double JobsPerSec = 0.0;
  uint64_t TotalQueries = 0;
  uint64_t EngineHits = 0, EngineMisses = 0;
  uint64_t MemoHits = 0, MemoMisses = 0;

  double engineHitRate() const {
    uint64_t N = EngineHits + EngineMisses;
    return N ? static_cast<double>(EngineHits) / N : 0.0;
  }
  double memoHitRate() const {
    uint64_t N = MemoHits + MemoMisses;
    return N ? static_cast<double>(MemoHits) / N : 0.0;
  }
};

/// One zoo-at-scale point: a batch of diamond jobs on one 500+-switch
/// fabric, end to end through the engine (or, for the churn point, a
/// rolling-maintenance stream with the result cache on).
struct ZooScalePoint {
  std::string Name;
  unsigned Switches = 0;
  size_t Jobs = 0;
  double WallSeconds = 0.0;
  double JobsPerSec = 0.0;
  uint64_t TotalQueries = 0;
  unsigned Succeeded = 0;
  /// Nonzero only for the churn-stream point.
  uint64_t EngineCacheHits = 0;
};

/// Writes everything measured to BENCH_engine.json. Every section
/// records its own effective scale (the parallel sections run floored —
/// see the file comment) so the cross-commit trend gate can refuse to
/// compare sections measured at different workload sizes.
void writeJson(double Scale, double SweepScale, double ShardScale,
               unsigned HardwareThreads,
               size_t SweepJobs, const std::vector<SweepPoint> &Sweep,
               size_t CacheJobs, const std::vector<CachePoint> &CacheRuns,
               const std::vector<ShardPoint> &ShardRuns,
               const std::vector<BudgetPoint> &BudgetRuns,
               size_t LearnJobs, const std::vector<LearnPoint> &LearnRuns,
               const std::vector<PhasePoint> &Phases,
               const std::vector<ObsPoint> &ObsRuns,
               const std::vector<ZooScalePoint> &ZooRuns) {
  FILE *F = std::fopen("BENCH_engine.json", "w");
  if (!F) {
    std::printf("warning: cannot write BENCH_engine.json\n");
    return;
  }
  std::fprintf(F, "{\n  \"bench\": \"engine_scaling\",\n");
  std::fprintf(F, "  \"scale\": %g,\n", Scale);
  // Parallel speedups only mean something relative to the cores the run
  // actually had; the trend gate uses this to refuse cross-machine
  // comparisons of the sweep/shards sections.
  std::fprintf(F, "  \"hardware_threads\": %u,\n", HardwareThreads);
  std::fprintf(F, "  \"sweep_scale\": %g,\n", SweepScale);
  std::fprintf(F, "  \"cache_scale\": %g,\n", Scale);
  std::fprintf(F, "  \"shards_scale\": %g,\n", ShardScale);
  std::fprintf(F, "  \"budget_scale\": %g,\n", ShardScale);
  // The profiled passes and obs modes rerun floored-section workloads;
  // SweepScale == ShardScale (both floored the same way), so one scale
  // names them all.
  std::fprintf(F, "  \"phases_scale\": %g,\n", ShardScale);
  std::fprintf(F, "  \"obs_scale\": %g,\n", ShardScale);
  std::fprintf(F, "  \"learning_scale\": %g,\n", Scale);
  std::fprintf(F, "  \"sweep_jobs\": %zu,\n  \"sweep\": [\n", SweepJobs);
  for (size_t I = 0; I != Sweep.size(); ++I) {
    const SweepPoint &P = Sweep[I];
    std::fprintf(F,
                 "    {\"workers\": %u, \"wall_seconds\": %.6f, "
                 "\"jobs_per_sec\": %.3f, \"speedup\": %.3f, "
                 "\"total_queries\": %llu, \"succeeded\": %u, "
                 "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"queue_p50_ms\": %.3f, \"queue_p95_ms\": %.3f, "
                 "\"queue_p99_ms\": %.3f}%s\n",
                 P.Workers, P.WallSeconds, P.JobsPerSec, P.Speedup,
                 static_cast<unsigned long long>(P.TotalQueries),
                 P.Succeeded, P.Pct.P50Ms, P.Pct.P95Ms, P.Pct.P99Ms,
                 P.Queue.P50Ms, P.Queue.P95Ms, P.Queue.P99Ms,
                 I + 1 == Sweep.size() ? "" : ",");
  }
  std::fprintf(F, "  ],\n");
  std::fprintf(F, "  \"cache_jobs\": %zu,\n  \"cache\": [\n", CacheJobs);
  for (size_t I = 0; I != CacheRuns.size(); ++I) {
    const CachePoint &P = CacheRuns[I];
    std::fprintf(
        F,
        "    {\"mode\": \"%s\", \"wall_seconds\": %.6f, "
        "\"jobs_per_sec\": %.3f, \"total_queries\": %llu, "
        "\"engine_cache_hits\": %llu, \"engine_cache_misses\": %llu, "
        "\"engine_cache_hit_rate\": %.4f, \"memo_hits\": %llu, "
        "\"memo_misses\": %llu, \"memo_hit_rate\": %.4f}%s\n",
        P.Mode, P.WallSeconds, P.JobsPerSec,
        static_cast<unsigned long long>(P.TotalQueries),
        static_cast<unsigned long long>(P.EngineHits),
        static_cast<unsigned long long>(P.EngineMisses),
        P.engineHitRate(), static_cast<unsigned long long>(P.MemoHits),
        static_cast<unsigned long long>(P.MemoMisses), P.memoHitRate(),
        I + 1 == CacheRuns.size() ? "" : ",");
  }
  std::fprintf(F, "  ],\n");
  std::fprintf(F, "  \"shards\": [\n");
  for (size_t I = 0; I != ShardRuns.size(); ++I) {
    const ShardPoint &P = ShardRuns[I];
    std::fprintf(F,
                 "    {\"shards\": %u, \"wall_seconds\": %.6f, "
                 "\"jobs_per_sec\": %.3f, \"speedup\": %.3f, "
                 "\"total_queries\": %llu, \"stolen_tasks\": %llu, "
                 "\"succeeded\": %u, "
                 "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 P.Shards, P.WallSeconds, P.JobsPerSec, P.Speedup,
                 static_cast<unsigned long long>(P.TotalQueries),
                 static_cast<unsigned long long>(P.StolenTasks),
                 P.Succeeded, P.Pct.P50Ms, P.Pct.P95Ms, P.Pct.P99Ms,
                 I + 1 == ShardRuns.size() ? "" : ",");
  }
  std::fprintf(F, "  ],\n");
  std::fprintf(F, "  \"budget\": [\n");
  for (size_t I = 0; I != BudgetRuns.size(); ++I) {
    const BudgetPoint &P = BudgetRuns[I];
    std::fprintf(F,
                 "    {\"shards\": %u, \"wall_seconds\": %.6f, "
                 "\"jobs_per_sec\": %.3f, \"total_queries\": %llu, "
                 "\"budget_spent\": %llu, \"aborted\": %u, "
                 "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 P.Shards, P.WallSeconds, P.JobsPerSec,
                 static_cast<unsigned long long>(P.TotalQueries),
                 static_cast<unsigned long long>(P.BudgetSpent), P.Aborted,
                 P.Pct.P50Ms, P.Pct.P95Ms, P.Pct.P99Ms,
                 I + 1 == BudgetRuns.size() ? "" : ",");
  }
  std::fprintf(F, "  ],\n");
  std::fprintf(F, "  \"phases\": [\n");
  for (size_t I = 0; I != Phases.size(); ++I) {
    const PhasePoint &P = Phases[I];
    std::fprintf(F,
                 "    {\"section\": \"%s\", \"param\": %u, "
                 "\"wall_seconds\": %.6f, \"cpu_s\": %.6f, "
                 "\"check_share\": %.4f, \"mutate_share\": %.4f, "
                 "\"prune_share\": %.4f, \"sat_share\": %.4f}%s\n",
                 P.Section, P.Param, P.WallSeconds, P.cpuS(),
                 P.share(P.CheckS), P.share(P.MutateS), P.share(P.PruneS),
                 P.share(P.SatS), I + 1 == Phases.size() ? "" : ",");
  }
  std::fprintf(F, "  ],\n");
  std::fprintf(F, "  \"obs\": [\n");
  for (size_t I = 0; I != ObsRuns.size(); ++I) {
    const ObsPoint &P = ObsRuns[I];
    std::fprintf(F,
                 "    {\"mode\": \"%s\", \"wall_seconds\": %.6f, "
                 "\"jobs_per_sec\": %.3f, \"overhead_pct\": %.2f}%s\n",
                 P.Mode, P.WallSeconds, P.JobsPerSec, P.OverheadPct,
                 I + 1 == ObsRuns.size() ? "" : ",");
  }
  std::fprintf(F, "  ],\n");
  std::fprintf(F, "  \"learning_jobs\": %zu,\n  \"learning\": [\n",
               LearnJobs);
  for (size_t I = 0; I != LearnRuns.size(); ++I) {
    const LearnPoint &P = LearnRuns[I];
    std::fprintf(
        F,
        "    {\"mode\": \"%s\", \"wall_seconds\": %.6f, "
        "\"jobs_per_sec\": %.3f, \"total_queries\": %llu, "
        "\"imported_constraints\": %llu, \"exported_constraints\": %llu, "
        "\"seeded_prunes\": %llu, \"succeeded\": %u}%s\n",
        P.Mode, P.WallSeconds, P.JobsPerSec,
        static_cast<unsigned long long>(P.TotalQueries),
        static_cast<unsigned long long>(P.Imported),
        static_cast<unsigned long long>(P.Exported),
        static_cast<unsigned long long>(P.SeededPrunes), P.Succeeded,
        I + 1 == LearnRuns.size() ? "" : ",");
  }
  std::fprintf(F, "  ],\n");
  std::fprintf(F, "  \"zoo_scale\": %g,\n  \"zoo\": [\n", Scale);
  for (size_t I = 0; I != ZooRuns.size(); ++I) {
    const ZooScalePoint &P = ZooRuns[I];
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"switches\": %u, \"jobs\": %zu, "
                 "\"wall_seconds\": %.6f, \"jobs_per_sec\": %.3f, "
                 "\"total_queries\": %llu, \"succeeded\": %u, "
                 "\"engine_cache_hits\": %llu}%s\n",
                 P.Name.c_str(), P.Switches, P.Jobs, P.WallSeconds,
                 P.JobsPerSec,
                 static_cast<unsigned long long>(P.TotalQueries),
                 P.Succeeded,
                 static_cast<unsigned long long>(P.EngineCacheHits),
                 I + 1 == ZooRuns.size() ? "" : ",");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("wrote BENCH_engine.json\n");
}

} // namespace

int main(int Argc, char **Argv) {
  double Scale = parseScale(Argc, Argv);
  // Timed sections run with the hot-path obs tiers off regardless of the
  // environment, so the JSON stays comparable with the pre-obs history
  // and with runs under NETUPD_OBS_DETAIL/NETUPD_TRACE; the profiled
  // passes and the obs section flip them on deliberately.
  obs::setDetail(false);
  obs::setTracing(false);
  // The parallel-scaling sections run floored (see the file comment):
  // below these sizes they measure setup overhead, not scaling.
  double SweepScale = std::max(Scale, 1.0);
  double ShardScale = std::max(Scale, 1.0);
  banner("engine scaling: batch synthesis, worker-count sweep");

  std::vector<SynthJob> Jobs = buildBatch(SweepScale);
  std::printf("batch: %zu long-path diamond jobs (section scale %g)\n",
              Jobs.size(), SweepScale);
  unsigned Cores = std::thread::hardware_concurrency();
  if (Cores <= 1)
    std::printf("note: single-core machine; expect a flat speedup curve\n");

  unsigned MaxWorkers = std::max(4u, Cores);
  row({"workers", "wall(s)", "speedup", "ok", "queries"},
      {9, 10, 9, 7, 10});

  std::vector<SweepPoint> Sweep;
  double BaseSeconds = 0.0;
  std::vector<SynthStatus> BaseVerdicts;
  for (unsigned Workers = 1; Workers <= MaxWorkers; Workers *= 2) {
    EngineOptions EO;
    EO.NumWorkers = Workers;
    // The sweep measures raw scaling; result caching would hide the
    // repeated work the worker counts are compared on, and learning is
    // measured by its own section.
    EO.CacheResults = false;
    EO.SharedLearning = false;
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run(Jobs);

    std::vector<SynthStatus> Verdicts;
    for (const SynthReport &R : Rep.Reports)
      Verdicts.push_back(R.Result.Status);
    if (Workers == 1) {
      BaseSeconds = Rep.WallSeconds;
      BaseVerdicts = Verdicts;
    } else if (Verdicts != BaseVerdicts) {
      std::printf("ERROR: verdicts changed at %u workers\n", Workers);
      return 1;
    }

    SweepPoint P;
    P.Workers = Workers;
    P.WallSeconds = Rep.WallSeconds;
    P.JobsPerSec = Rep.WallSeconds > 0
                       ? static_cast<double>(Jobs.size()) / Rep.WallSeconds
                       : 0.0;
    P.Speedup = BaseSeconds / Rep.WallSeconds;
    P.TotalQueries = Rep.TotalQueries;
    P.Succeeded = Rep.numSucceeded();
    P.Pct = jobPercentiles(Rep);
    P.Queue = queuePercentiles(Rep);
    Sweep.push_back(P);

    row({std::to_string(Workers), format("%.3f", Rep.WallSeconds),
         format("%.2fx", P.Speedup),
         std::to_string(Rep.numSucceeded()) + "/" +
             std::to_string(Rep.Reports.size()),
         std::to_string(Rep.TotalQueries)},
        {9, 10, 9, 7, 10});
  }

  // One profiled pass over the sweep batch: the detail tier on, at the
  // widest worker count, yields the phase breakdown (where do the
  // thread-seconds go — checking, mutate/rollback, pruning, SAT?) that
  // the timed sweep deliberately does not collect. Verdicts must match
  // the unprofiled runs: observability never changes a result.
  std::vector<PhasePoint> Phases;
  {
    EngineOptions EO;
    EO.NumWorkers = MaxWorkers;
    EO.CacheResults = false;
    EO.SharedLearning = false;
    obs::setDetail(true);
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run(Jobs);
    obs::setDetail(false);

    std::vector<SynthStatus> Verdicts;
    for (const SynthReport &R : Rep.Reports)
      Verdicts.push_back(R.Result.Status);
    if (Verdicts != BaseVerdicts) {
      std::printf("ERROR: profiled sweep pass changed a verdict\n");
      return 1;
    }
    Phases.push_back({"sweep", MaxWorkers, Rep.WallSeconds,
                      Rep.Merged.CheckSeconds, Rep.Merged.MutateSeconds,
                      Rep.Merged.PruneSeconds, Rep.Merged.SatSeconds});
  }

  banner("portfolio racing: double diamonds (Fig. 8(h) regime)");
  row({"job", "verdict", "winner", "job(s)", "members"}, {16, 10, 18, 9, 40});
  Rng R(7);
  unsigned Races = std::max(4u, static_cast<unsigned>(4 * Scale));
  for (unsigned I = 0; I != Races; ++I) {
    Rng Fork = R.fork();
    Topology Base = buildSmallWorld(40, 4, 0.2, Fork);
    std::optional<Scenario> S = makeDoubleDiamondScenario(Base, Fork);
    if (!S)
      continue;
    SynthJob Job;
    Job.Name = "ddiamond-" + std::to_string(I);
    Job.S = std::move(*S);
    Job.Portfolio = defaultPortfolio();

    SynthEngine Engine;
    BatchReport Rep = Engine.run({Job});
    const SynthReport &Res = Rep.Reports[0];
    std::string Members;
    for (const MemberOutcome &O : Res.Members) {
      if (!Members.empty())
        Members += " ";
      const char *Tag = O.Cancelled            ? "cancelled"
                        : O.Status == SynthStatus::Success ? "success"
                        : O.Status == SynthStatus::Impossible
                            ? "impossible"
                            : "aborted";
      Members += O.Name + "=" + Tag;
    }
    row({Job.Name, Res.ok() ? "success" : "failed", Res.Winner,
         format("%.3f", Res.Seconds), Members},
        {16, 10, 18, 9, 40});
  }

  banner("memoization: duplicate-heavy batch, three cache modes");
  // Real batch streams repeat scenarios (retries, per-tenant isomorphic
  // topologies): model that by replicating each base job. The three
  // modes measure no caching, the engine result cache (dedups whole
  // jobs), and checker memoization alone (dedups individual queries via
  // memo:incremental sharing the process-wide CheckCache).
  std::vector<SynthJob> CacheJobs;
  {
    Rng CR(11);
    unsigned Base = std::max(2u, static_cast<unsigned>(2 * Scale));
    unsigned Copies = 3;
    for (unsigned I = 0; I != Base; ++I) {
      Rng Fork = CR.fork();
      std::optional<Scenario> S = makeDiamondScenario(
          buildFatTree(8), Fork, PropertyKind::Reachability);
      if (!S)
        continue;
      for (unsigned C = 0; C != Copies; ++C) {
        SynthJob Job;
        Job.Name = "dup-" + std::to_string(I) + "-" + std::to_string(C);
        Job.S = *S;
        CacheJobs.push_back(std::move(Job));
      }
    }
  }
  std::printf("batch: %zu jobs (3 copies each)\n", CacheJobs.size());

  std::vector<CachePoint> CacheRuns;
  std::vector<SynthStatus> CacheVerdicts;
  for (const char *Mode : {"none", "engine", "memo"}) {
    std::vector<SynthJob> Batch = CacheJobs;
    if (std::string(Mode) == "memo") {
      MemoizingChecker::processCache()->clear();
      for (SynthJob &Job : Batch) {
        Job.Portfolio.emplace_back();
        Job.Portfolio[0].Backend = "memo:incremental";
      }
    }
    EngineOptions EO;
    EO.CacheResults = std::string(Mode) == "engine";
    // The duplicate-heavy batch is exactly what cross-job learning also
    // accelerates; keep it off so the three modes compare caches alone.
    EO.SharedLearning = false;
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run(Batch);

    std::vector<SynthStatus> Verdicts;
    for (const SynthReport &R : Rep.Reports)
      Verdicts.push_back(R.Result.Status);
    if (CacheRuns.empty()) {
      CacheVerdicts = Verdicts;
    } else if (Verdicts != CacheVerdicts) {
      std::printf("ERROR: caching mode '%s' changed a verdict\n", Mode);
      return 1;
    }

    CachePoint P;
    P.Mode = Mode;
    P.WallSeconds = Rep.WallSeconds;
    P.JobsPerSec = Rep.WallSeconds > 0
                       ? static_cast<double>(Batch.size()) / Rep.WallSeconds
                       : 0.0;
    P.TotalQueries = Rep.TotalQueries;
    P.EngineHits = Rep.EngineCacheHits;
    P.EngineMisses = Rep.EngineCacheMisses;
    P.MemoHits = Rep.Merged.CacheHits;
    P.MemoMisses = Rep.Merged.CacheMisses;
    CacheRuns.push_back(P);
  }

  row({"mode", "wall(s)", "jobs/s", "queries", "eng hit%", "memo hit%"},
      {9, 10, 9, 9, 10, 10});
  for (const CachePoint &P : CacheRuns)
    row({P.Mode, format("%.3f", P.WallSeconds),
         format("%.1f", P.JobsPerSec), std::to_string(P.TotalQueries),
         format("%.0f%%", 100 * P.engineHitRate()),
         format("%.0f%%", 100 * P.memoHitRate())},
        {9, 10, 9, 9, 10, 10});

  banner("intra-job shard scaling: prefix-split DFS, 1 engine worker");
  // One worker isolates the new parallelism: any speedup here comes from
  // sharding the DFS inside each job, not from running jobs in parallel.
  // The workload is a DEEP exhaustive proof: a feasible long-path
  // diamond whose final configuration blackholes the flow at the
  // destination switch, with the diff capped at DiffCap switches. The
  // search must walk the entire safe sub-lattice of the remaining
  // updates before it can report Impossible — thousands of rechecks
  // spread across every depth-one unit, which is exactly the shape the
  // V-claim discipline splits across shards without duplication. (The
  // previous workload, Fig. 8(h) double diamonds, refutes every root in
  // a single query — queries == ops+1 — so there was nothing to split
  // and the section measured pure shard setup: 0.73x at 4 shards.)
  // 22-switch diffs x four instances run the section for >= 1s at scale
  // 1.0 (the previous 18 x 3 sizing finished in ~30ms — thread start-up
  // and queue hand-off noise swamped any real scaling signal).
  constexpr unsigned DiffCap = 22;
  std::vector<SynthJob> ShardJobs;
  {
    Rng SR(23);
    DiamondOptions DO;
    DO.LongPaths = true; // Long branches: a wide safe lattice.
    unsigned N = std::max(4u, static_cast<unsigned>(4 * ShardScale));
    for (unsigned I = 0; ShardJobs.size() < N && I != 8 * N; ++I) {
      Rng Fork = SR.fork();
      Topology Base = buildSmallWorld(96, 4, 0.2, Fork);
      std::optional<Scenario> S =
          makeDiamondScenario(Base, Fork, PropertyKind::Reachability, DO);
      if (!S)
        continue;
      // Blackhole the destination in the *final* config: the initial
      // configuration still verifies, but no update order can reach a
      // correct end state — Impossible, provable only by exhaustion.
      SwitchId Dst = S->Flows[0].FinalPath.back();
      S->Final.setTable(Dst, Table());
      // Cap the diff so the lattice stays ~2^DiffCap, not 2^|diamond|.
      std::vector<SwitchId> Diff = diffSwitches(S->Initial, S->Final);
      unsigned Kept = 0;
      for (SwitchId Sw : Diff) {
        if (Sw == Dst)
          continue;
        if (++Kept > DiffCap - 1)
          S->Final.setTable(Sw, S->Initial.table(Sw));
      }
      SynthJob Job;
      Job.Name = "deep-proof-" + std::to_string(ShardJobs.size());
      Job.S = std::move(*S);
      Job.Portfolio.emplace_back(); // incremental, switch granularity.
      // Leave the SAT layer out: every counterexample here names the
      // corrupted destination, so its constraints never turn UNSAT and
      // the solver is pure overhead on the hot path being measured.
      // V/W pruning stays on — shards share both.
      Job.Portfolio[0].Opts.EarlyTermination = false;
      ShardJobs.push_back(std::move(Job));
    }
  }
  std::printf("batch: %zu deep exhaustive proofs (diff capped at %u, "
              "section scale %g)\n",
              ShardJobs.size(), DiffCap, ShardScale);
  row({"shards", "wall(s)", "speedup", "prf", "queries", "stolen"},
      {9, 10, 9, 7, 10, 8});
  std::vector<ShardPoint> ShardRuns;
  double ShardBaseSeconds = 0.0;
  std::vector<SynthStatus> ShardBaseVerdicts;
  for (unsigned Shards : {1u, 2u, 4u}) {
    EngineOptions EO;
    EO.NumWorkers = 1;
    EO.CacheResults = false;
    EO.SharedLearning = false;
    EO.IntraJobShards = Shards;
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run(ShardJobs);

    std::vector<SynthStatus> Verdicts;
    for (const SynthReport &R : Rep.Reports)
      Verdicts.push_back(R.Result.Status);
    if (Shards == 1) {
      ShardBaseSeconds = Rep.WallSeconds;
      ShardBaseVerdicts = Verdicts;
    } else if (Verdicts != ShardBaseVerdicts) {
      std::printf("ERROR: verdicts changed at %u shards\n", Shards);
      return 1;
    }

    ShardPoint P;
    P.Shards = Shards;
    P.WallSeconds = Rep.WallSeconds;
    P.JobsPerSec =
        Rep.WallSeconds > 0
            ? static_cast<double>(ShardJobs.size()) / Rep.WallSeconds
            : 0.0;
    P.Speedup = Rep.WallSeconds > 0 ? ShardBaseSeconds / Rep.WallSeconds
                                    : 1.0;
    P.TotalQueries = Rep.TotalQueries;
    P.StolenTasks = Rep.Merged.StolenTasks;
    P.Succeeded = Rep.numSucceeded();
    P.Pct = jobPercentiles(Rep);
    ShardRuns.push_back(P);

    row({std::to_string(Shards), format("%.3f", Rep.WallSeconds),
         format("%.2fx", P.Speedup),
         std::to_string(ShardJobs.size() - Rep.numSucceeded()) + "/" +
             std::to_string(Rep.Reports.size()),
         std::to_string(Rep.TotalQueries),
         std::to_string(P.StolenTasks)},
        {9, 10, 9, 7, 10, 8});
  }

  banner("observability: tier overhead + deep-proof phase profile");
  // The deep proofs at 1 shard / 1 worker are the most instrumentation-
  // dense workload in this bench (every candidate passes a trace site,
  // a phase scope, and the V/W lock wrappers), so they bound the obs
  // overhead from above. Three back-to-back modes; verdicts AND query
  // counts must be identical — the search is deterministic here, so any
  // drift would mean observability steered it.
  std::vector<ObsPoint> ObsRuns;
  {
    std::vector<SynthStatus> ObsVerdicts;
    uint64_t ObsQueries = 0;
    for (const char *Mode : {"off", "metrics", "trace"}) {
      bool Detail = std::string(Mode) != "off";
      bool Tracing = std::string(Mode) == "trace";
      obs::setDetail(Detail);
      if (Tracing) {
        obs::clearSpans();
        obs::setTracing(true);
      }
      EngineOptions EO;
      EO.NumWorkers = 1;
      EO.CacheResults = false;
      EO.SharedLearning = false;
      EO.IntraJobShards = 1;
      SynthEngine Engine(EO);
      BatchReport Rep = Engine.run(ShardJobs);
      obs::setTracing(false);
      obs::setDetail(false);

      std::vector<SynthStatus> Verdicts;
      for (const SynthReport &R : Rep.Reports)
        Verdicts.push_back(R.Result.Status);
      if (ObsRuns.empty()) {
        ObsVerdicts = Verdicts;
        ObsQueries = Rep.TotalQueries;
      } else if (Verdicts != ObsVerdicts ||
                 Rep.TotalQueries != ObsQueries) {
        std::printf("ERROR: obs mode '%s' changed a verdict or query "
                    "count\n",
                    Mode);
        return 1;
      }

      ObsPoint P;
      P.Mode = Mode;
      P.WallSeconds = Rep.WallSeconds;
      P.JobsPerSec =
          Rep.WallSeconds > 0
              ? static_cast<double>(ShardJobs.size()) / Rep.WallSeconds
              : 0.0;
      P.OverheadPct =
          !ObsRuns.empty() && P.JobsPerSec > 0
              ? 100.0 * (ObsRuns[0].JobsPerSec / P.JobsPerSec - 1.0)
              : 0.0;
      ObsRuns.push_back(P);

      // The metrics run doubles as the 1-shard phase profile of the
      // deep proofs (same knobs as the ShardRuns[0] point).
      if (Detail && !Tracing)
        Phases.push_back({"shards", 1, Rep.WallSeconds,
                          Rep.Merged.CheckSeconds, Rep.Merged.MutateSeconds,
                          Rep.Merged.PruneSeconds, Rep.Merged.SatSeconds});
      if (Tracing) {
        obs::writeChromeTrace("BENCH_trace.json");
        std::printf("wrote BENCH_trace.json (%zu spans kept, %llu "
                    "dropped; load in ui.perfetto.dev)\n",
                    obs::snapshotSpans().size(),
                    static_cast<unsigned long long>(obs::droppedSpans()));
      }
    }
    row({"mode", "wall(s)", "jobs/s", "overhead"}, {9, 10, 9, 10});
    for (const ObsPoint &P : ObsRuns)
      row({P.Mode, format("%.3f", P.WallSeconds),
           format("%.2f", P.JobsPerSec), format("%+.1f%%", P.OverheadPct)},
          {9, 10, 9, 10});
  }

  // Profiled passes at every non-trivial shard count complete the
  // scaling story: comparing the 2- and 4-shard phase splits against the
  // 1-shard one (collected by the obs section above) shows where the
  // extra thread-seconds go when the DFS is split (lock waits surface in
  // the synth.*_lock_ns histograms, phase totals here).
  for (unsigned Shards : {2u, 4u}) {
    EngineOptions EO;
    EO.NumWorkers = 1;
    EO.CacheResults = false;
    EO.SharedLearning = false;
    EO.IntraJobShards = Shards;
    obs::setDetail(true);
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run(ShardJobs);
    obs::setDetail(false);

    std::vector<SynthStatus> Verdicts;
    for (const SynthReport &R : Rep.Reports)
      Verdicts.push_back(R.Result.Status);
    if (Verdicts != ShardBaseVerdicts) {
      std::printf("ERROR: profiled %u-shard pass changed a verdict\n",
                  Shards);
      return 1;
    }
    Phases.push_back({"shards", Shards, Rep.WallSeconds,
                      Rep.Merged.CheckSeconds, Rep.Merged.MutateSeconds,
                      Rep.Merged.PruneSeconds, Rep.Merged.SatSeconds});
  }

  banner("deterministic tight budgets: verdict stability + throughput");
  // The same exhaustive instances under a tight per-job check budget:
  // every verdict is a budget Abort (or a deterministic proof) decided
  // by the ledger, so it must be byte-stable across shard counts —
  // exactly the reproducibility the BudgetLedger exists to provide —
  // and jobs/sec records what the bounded-work mode costs so the
  // BENCH_engine.json trend history can flag a regression.
  // Two regimes in one batch: the deep proofs' units exhaust their tiny
  // quotas mid-lattice and the feasible long-path diamonds dive past
  // theirs — both yielding deterministic budget Aborts — while any unit
  // that completes within quota contributes to a real verdict.
  std::vector<SynthJob> BudgetJobs = ShardJobs;
  for (SynthJob &Job : BudgetJobs)
    Job.Portfolio[0].Opts.MaxCheckCalls = 30;
  // One diamond per topology family keeps the section light: probing
  // every depth-one unit under tiny quotas does genuinely wider work
  // than an unlimited dive (that is the budget's semantics, not
  // overhead).
  for (size_t I = 0; I < Jobs.size(); I += std::max<size_t>(1, Jobs.size() / 3)) {
    SynthJob Job = Jobs[I];
    Job.Name += "-tight";
    Job.Portfolio.emplace_back(); // incremental, switch granularity.
    Job.Portfolio[0].Opts.MaxCheckCalls = 25;
    BudgetJobs.push_back(std::move(Job));
  }
  row({"shards", "wall(s)", "jobs/s", "abrt", "spent"}, {9, 10, 9, 7, 10});
  std::vector<BudgetPoint> BudgetRuns;
  std::vector<SynthStatus> BudgetBaseVerdicts;
  for (unsigned Shards : {1u, 2u, 4u}) {
    EngineOptions EO;
    EO.NumWorkers = 1;
    EO.CacheResults = false;
    EO.SharedLearning = false;
    EO.IntraJobShards = Shards;
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run(BudgetJobs);

    std::vector<SynthStatus> Verdicts;
    for (const SynthReport &R : Rep.Reports)
      Verdicts.push_back(R.Result.Status);
    if (Shards == 1) {
      BudgetBaseVerdicts = Verdicts;
    } else if (Verdicts != BudgetBaseVerdicts) {
      std::printf("ERROR: budget verdicts changed at %u shards\n", Shards);
      return 1;
    }

    BudgetPoint P;
    P.Shards = Shards;
    P.WallSeconds = Rep.WallSeconds;
    P.JobsPerSec =
        Rep.WallSeconds > 0
            ? static_cast<double>(BudgetJobs.size()) / Rep.WallSeconds
            : 0.0;
    P.TotalQueries = Rep.TotalQueries;
    P.BudgetSpent = Rep.Merged.BudgetSpent;
    P.Aborted = 0;
    for (const SynthReport &R : Rep.Reports)
      P.Aborted += R.Result.Status == SynthStatus::Aborted;
    P.Pct = jobPercentiles(Rep);
    BudgetRuns.push_back(P);

    row({std::to_string(Shards), format("%.3f", Rep.WallSeconds),
         format("%.1f", P.JobsPerSec),
         std::to_string(P.Aborted) + "/" +
             std::to_string(Rep.Reports.size()),
         std::to_string(P.BudgetSpent)},
        {9, 10, 9, 7, 10});
  }

  // Profiled budget pass: under tiny quotas the phase mix shifts toward
  // probing (every unit binds and dives a little), worth tracking
  // separately from the unbounded deep proofs.
  {
    EngineOptions EO;
    EO.NumWorkers = 1;
    EO.CacheResults = false;
    EO.SharedLearning = false;
    EO.IntraJobShards = 1;
    obs::setDetail(true);
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run(BudgetJobs);
    obs::setDetail(false);

    std::vector<SynthStatus> Verdicts;
    for (const SynthReport &R : Rep.Reports)
      Verdicts.push_back(R.Result.Status);
    if (Verdicts != BudgetBaseVerdicts) {
      std::printf("ERROR: profiled budget pass changed a verdict\n");
      return 1;
    }
    Phases.push_back({"budget", 1, Rep.WallSeconds,
                      Rep.Merged.CheckSeconds, Rep.Merged.MutateSeconds,
                      Rep.Merged.PruneSeconds, Rep.Merged.SatSeconds});
  }

  banner("cross-job learning: repeated probes over one scenario family");
  // Autotuning-style probe stream: every scenario is probed under
  // several digest-DISTINCT configurations (backend x SAT-layer), so
  // the engine result cache cannot serve a single one of them — only
  // the ConstraintStore connects the probes. With SharedLearning off,
  // each probe re-derives every counterexample refutation through
  // checker queries; with it on, later probes of the same scenario seed
  // their W set and SAT layer from the store and skip them. Verdicts
  // and sequences must be byte-identical across the two modes (the
  // learning invariance contract), total queries must strictly drop.
  std::vector<SynthJob> LearnJobs;
  {
    Rng LR(31);
    unsigned Fam = std::max(3u, static_cast<unsigned>(3 * Scale));
    unsigned Made = 0;
    for (unsigned I = 0; Made < Fam && I != 8 * Fam; ++I) {
      Rng Fork = LR.fork();
      Topology Base = buildSmallWorld(40, 4, 0.2, Fork);
      std::optional<Scenario> S = makeDoubleDiamondScenario(Base, Fork);
      if (!S)
        continue;
      ++Made;
      struct Probe {
        const char *Backend;
        bool Et;
      };
      for (const Probe &P :
           {Probe{"incremental", false}, Probe{"incremental", true},
            Probe{"batch", false}, Probe{"batch", true}}) {
        SynthJob Job;
        Job.Name = "probe-" + std::to_string(Made) + "-" + P.Backend +
                   (P.Et ? "+et" : "-et");
        Job.S = *S;
        Job.Portfolio.emplace_back();
        Job.Portfolio[0].Backend = P.Backend;
        Job.Portfolio[0].Opts.EarlyTermination = P.Et;
        LearnJobs.push_back(std::move(Job));
      }
    }
    // A feasible family rides along: reuse must also hold — and help —
    // where a sequence has to be found.
    Rng FR(33);
    unsigned FeasFam = std::max(2u, static_cast<unsigned>(2 * Scale));
    for (unsigned I = 0; I != FeasFam; ++I) {
      Rng Fork = FR.fork();
      std::optional<Scenario> S = makeDiamondScenario(
          buildFatTree(8), Fork, PropertyKind::Reachability);
      if (!S)
        continue;
      for (const char *Backend : {"incremental", "batch"}) {
        SynthJob Job;
        Job.Name = "probe-feas-" + std::to_string(I) + "-" + Backend;
        Job.S = *S;
        Job.Portfolio.emplace_back();
        Job.Portfolio[0].Backend = Backend;
        LearnJobs.push_back(std::move(Job));
      }
    }
  }
  std::printf("batch: %zu digest-distinct probes\n", LearnJobs.size());

  std::vector<LearnPoint> LearnRuns;
  std::vector<std::pair<SynthStatus, std::string>> LearnBase;
  for (const char *Mode : {"off", "on"}) {
    EngineOptions EO;
    EO.NumWorkers = 1; // Sequential probes: deterministic import chains.
    EO.CacheResults = false;
    EO.SharedLearning = std::string(Mode) == "on";
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run(LearnJobs);

    std::vector<std::pair<SynthStatus, std::string>> Fingerprints;
    for (size_t I = 0; I != Rep.Reports.size(); ++I)
      Fingerprints.push_back(
          {Rep.Reports[I].Result.Status,
           commandSeqToString(LearnJobs[I].S.Topo,
                              Rep.Reports[I].Result.Commands)});
    if (LearnRuns.empty()) {
      LearnBase = std::move(Fingerprints);
    } else if (Fingerprints != LearnBase) {
      std::printf("ERROR: learning mode '%s' changed a verdict or "
                  "sequence\n",
                  Mode);
      return 1;
    }

    LearnPoint P;
    P.Mode = Mode;
    P.WallSeconds = Rep.WallSeconds;
    P.JobsPerSec =
        Rep.WallSeconds > 0
            ? static_cast<double>(LearnJobs.size()) / Rep.WallSeconds
            : 0.0;
    P.TotalQueries = Rep.TotalQueries;
    P.Imported = Rep.Merged.ImportedConstraints;
    P.Exported = Rep.Merged.ExportedConstraints;
    P.SeededPrunes = Rep.Merged.SeededPrunes;
    P.Succeeded = Rep.numSucceeded();
    LearnRuns.push_back(P);
  }
  if (LearnRuns[1].TotalQueries >= LearnRuns[0].TotalQueries) {
    std::printf("ERROR: learning did not reduce checker queries "
                "(%llu -> %llu)\n",
                static_cast<unsigned long long>(LearnRuns[0].TotalQueries),
                static_cast<unsigned long long>(LearnRuns[1].TotalQueries));
    return 1;
  }

  row({"mode", "wall(s)", "jobs/s", "queries", "seeded", "imported"},
      {9, 10, 9, 9, 9, 9});
  for (const LearnPoint &P : LearnRuns)
    row({P.Mode, format("%.3f", P.WallSeconds),
         format("%.1f", P.JobsPerSec), std::to_string(P.TotalQueries),
         std::to_string(P.SeededPrunes), std::to_string(P.Imported)},
        {9, 10, 9, 9, 9, 9});

  banner("scenario zoo at scale: 500+-switch fabrics end to end");

  // The fuzzer's instance families stay small so the cell matrix runs in
  // seconds; this section is where the zoo generators prove the other
  // half of the claim — the same builders emit 500+-switch fat-trees and
  // WANs whose update scenarios synthesize end to end. Failures here are
  // hard errors, not trend warnings: a fabric below 500 switches or an
  // unsynthesizable job means a generator regressed.
  std::vector<ZooScalePoint> ZooRuns;
  {
    Rng ZR(4207);
    unsigned ZooJobs = std::max(4u, static_cast<unsigned>(4 * Scale));

    struct Fabric {
      std::string Name;
      Topology Topo;
    };
    std::vector<Fabric> Fabrics;
    Fabrics.push_back({"fattree-k24", buildFatTree(24)});
    {
      WanParams WP; // Defaults: mean 16 PoPs per region.
      WP.Regions = 40;
      Rng Fork = ZR.fork();
      Fabrics.push_back({"wan-40x16", buildWan(WP, Fork)});
    }

    row({"fabric", "switches", "jobs", "wall(s)", "jobs/s", "queries"},
        {13, 10, 6, 10, 9, 10});
    for (const Fabric &F : Fabrics) {
      if (F.Topo.numSwitches() < 500) {
        std::printf("ERROR: %s has %u switches, zoo-scale floor is 500\n",
                    F.Name.c_str(), F.Topo.numSwitches());
        return 1;
      }
      std::vector<SynthJob> ZJobs;
      DiamondOptions ZOpts;
      ZOpts.NumFlows = 2;
      for (unsigned I = 0; I != ZooJobs; ++I) {
        Rng Fork = ZR.fork();
        std::optional<Scenario> S = makeDiamondScenarioRetrying(
            F.Topo, Fork, PropertyKind::Reachability, ZOpts);
        if (!S) {
          std::printf("ERROR: no 2-flow diamond found on %s\n",
                      F.Name.c_str());
          return 1;
        }
        SynthJob Job;
        Job.Name = F.Name + "-" + std::to_string(I);
        Job.S = std::move(*S);
        ZJobs.push_back(std::move(Job));
      }

      EngineOptions EO;
      EO.NumWorkers = std::max(2u, Cores);
      EO.CacheResults = false;
      EO.SharedLearning = false;
      SynthEngine Engine(EO);
      BatchReport Rep = Engine.run(ZJobs);
      if (Rep.numSucceeded() != ZJobs.size()) {
        std::printf("ERROR: %u/%zu zoo-scale jobs succeeded on %s\n",
                    Rep.numSucceeded(), ZJobs.size(), F.Name.c_str());
        return 1;
      }

      ZooScalePoint P;
      P.Name = F.Name;
      P.Switches = F.Topo.numSwitches();
      P.Jobs = ZJobs.size();
      P.WallSeconds = Rep.WallSeconds;
      P.JobsPerSec = Rep.WallSeconds > 0
                         ? static_cast<double>(ZJobs.size()) / Rep.WallSeconds
                         : 0.0;
      P.TotalQueries = Rep.TotalQueries;
      P.Succeeded = Rep.numSucceeded();
      ZooRuns.push_back(P);
      row({P.Name, std::to_string(P.Switches), std::to_string(P.Jobs),
           format("%.3f", P.WallSeconds), format("%.1f", P.JobsPerSec),
           std::to_string(P.TotalQueries)},
          {13, 10, 6, 10, 9, 10});
    }

    // Rolling maintenance at WAN scale: a churn trace over the large WAN
    // fed through the engine with the result cache on. One worker keeps
    // the cache-hit pigeonhole floor deterministic (digest-identical jobs
    // running concurrently can both miss).
    {
      const Topology &Wan = Fabrics.back().Topo;
      Rng Fork = ZR.fork();
      ChurnOptions CO;
      CO.NumFlows = 2;
      CO.Steps = std::max(8u, static_cast<unsigned>(12 * Scale));
      std::optional<ChurnTrace> Trace = makeChurnTrace(Wan, Fork, CO);
      if (!Trace) {
        std::printf("ERROR: churn trace failed on wan-40x16\n");
        return 1;
      }
      std::vector<SynthJob> CJobs;
      std::vector<Digest> Distinct;
      for (size_t I = 0; I != Trace->Steps.size(); ++I) {
        SynthJob Job;
        Job.Name = "churn-" + std::to_string(I);
        Job.S = Trace->Steps[I];
        Digest D = digestOf(Job.S);
        if (std::find(Distinct.begin(), Distinct.end(), D) == Distinct.end())
          Distinct.push_back(D);
        CJobs.push_back(std::move(Job));
      }

      EngineOptions EO;
      EO.NumWorkers = 1;
      EO.CacheResults = true;
      EO.SharedLearning = false;
      SynthEngine Engine(EO);
      BatchReport Rep = Engine.run(CJobs);
      if (Rep.numSucceeded() != CJobs.size()) {
        std::printf("ERROR: %u/%zu churn steps succeeded at WAN scale\n",
                    Rep.numSucceeded(), CJobs.size());
        return 1;
      }
      uint64_t Floor = CJobs.size() - Distinct.size();
      if (Rep.EngineCacheHits < Floor) {
        std::printf("ERROR: churn cache hits %llu below pigeonhole "
                    "floor %llu\n",
                    static_cast<unsigned long long>(Rep.EngineCacheHits),
                    static_cast<unsigned long long>(Floor));
        return 1;
      }

      ZooScalePoint P;
      P.Name = "wan-40x16-churn";
      P.Switches = Wan.numSwitches();
      P.Jobs = CJobs.size();
      P.WallSeconds = Rep.WallSeconds;
      P.JobsPerSec = Rep.WallSeconds > 0
                         ? static_cast<double>(CJobs.size()) / Rep.WallSeconds
                         : 0.0;
      P.TotalQueries = Rep.TotalQueries;
      P.Succeeded = Rep.numSucceeded();
      P.EngineCacheHits = Rep.EngineCacheHits;
      ZooRuns.push_back(P);
      row({P.Name, std::to_string(P.Switches), std::to_string(P.Jobs),
           format("%.3f", P.WallSeconds), format("%.1f", P.JobsPerSec),
           std::to_string(P.TotalQueries)},
          {13, 10, 6, 10, 9, 10});
      std::printf("churn cache hits: %llu (floor %llu over %zu distinct "
                  "digests)\n",
                  static_cast<unsigned long long>(Rep.EngineCacheHits),
                  static_cast<unsigned long long>(Floor), Distinct.size());
    }
  }

  banner("phase profile: cpu-seconds + per-phase share (detail tier)");
  row({"section", "param", "wall(s)", "cpu(s)", "check", "mutate", "prune",
       "sat"},
      {9, 7, 10, 9, 7, 7, 7, 7});
  for (const PhasePoint &P : Phases)
    row({P.Section, std::to_string(P.Param), format("%.3f", P.WallSeconds),
         format("%.3f", P.cpuS()), format("%.2f", P.share(P.CheckS)),
         format("%.2f", P.share(P.MutateS)),
         format("%.2f", P.share(P.PruneS)), format("%.2f", P.share(P.SatS))},
        {9, 7, 10, 9, 7, 7, 7, 7});

  writeJson(Scale, SweepScale, ShardScale, Cores, Jobs.size(), Sweep,
            CacheJobs.size(), CacheRuns, ShardRuns, BudgetRuns,
            LearnJobs.size(), LearnRuns, Phases, ObsRuns,
            ZooRuns);
  return 0;
}
