//===- engine/Job.h - Batch-synthesis work items ---------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The work items the SynthEngine consumes and the reports it produces.
/// A SynthJob bundles one scenario with the configuration(s) to try: a
/// single (backend, options) pair, or a *portfolio* of several that race
/// on the worker's crew — the first successful synthesis wins and cancels
/// the rest through a shared StopToken. Racing heterogeneous
/// configurations is the standard route to robustness when no single
/// backend dominates (cf. the §6 backend comparison, where the winner
/// flips between incremental/batch/granularity depending on the
/// instance).
///
/// Reports are indexed by job position, so a batch result is independent
/// of scheduling order and worker count.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_ENGINE_JOB_H
#define NETUPD_ENGINE_JOB_H

#include "synth/OrderUpdate.h"
#include "topo/Scenario.h"

#include <string>
#include <vector>

namespace netupd {

/// One racing configuration of a portfolio: which checker backend to
/// instantiate (a BackendFactory name) and which synthesis knobs to use.
struct PortfolioMember {
  /// Display name for reports; defaults to "<backend>/<granularity>"
  /// when empty.
  std::string Name;
  /// BackendFactory name: "incremental", "batch", "symbolic", "hsa",
  /// "naive", or a caller-registered configuration.
  std::string Backend = "incremental";
  SynthOptions Opts;
};

/// One unit of engine work: a scenario plus the configurations to try.
struct SynthJob {
  /// Display name for reports and benchmark tables.
  std::string Name;
  /// The problem instance. Owned by value: members and shards read it in
  /// place and none writes it (see the isolation note in Engine.h).
  Scenario S;
  /// The configurations to run. Empty means one default member
  /// (incremental backend, default options); a single entry runs inline
  /// on the worker; several entries race on the worker's crew threads.
  std::vector<PortfolioMember> Portfolio;
};

/// The standard 3-way portfolio: incremental checker at switch
/// granularity, incremental checker at rule granularity (succeeds on
/// Fig. 8(h)-style instances where no switch-granularity order exists),
/// and the batch checker as a fallback whose per-query cost is flat.
std::vector<PortfolioMember> defaultPortfolio(SynthOptions Base = {});

/// Canonical digest of one job's *semantics*: the scenario digest plus
/// every portfolio member's backend spec and result-relevant options
/// (display names and stop tokens excluded; an empty portfolio digests
/// as the default member it runs as). Two jobs with equal digests run
/// the same search, so the engine's result cache keys on this.
Digest digestOf(const SynthJob &Job);

/// What happened to one portfolio member (or the sole configuration of a
/// single-config job).
struct MemberOutcome {
  std::string Name;
  SynthStatus Status = SynthStatus::Aborted;
  SynthStats Stats;
  /// Real checking work performed, from SynthStats::BackendQueries: the
  /// member's checker plus any shard-private checkers it spawned.
  unsigned Queries = 0;
  double Seconds = 0.0;
  /// True if this member aborted while the job-level race was already
  /// decided — i.e. it lost to a sibling's Success. Its Status is then
  /// Aborted and says nothing about feasibility. Batch-level
  /// cancellation and a member's own TimeoutSeconds/MaxCheckCalls
  /// budgets do NOT set this flag (they abort without a race verdict);
  /// a member that hit its own budget in the same instant the race was
  /// decided is reported as cancelled, the more common cause.
  bool Cancelled = false;
  /// Non-empty on engine-level failures (e.g. unknown backend name).
  std::string Error;
  /// Scratch slot the engine uses to carry the full result to winner
  /// selection; cleared afterwards (the winner's moves into
  /// SynthReport::Result) so reports don't duplicate command sequences.
  SynthResult Result;
};

/// The engine's verdict for one job. For portfolios, Result carries the
/// winning member's commands and stats; Members records every racer.
/// Absent external cancellation (the batch-level EngineOptions::Stop or
/// a member's own token/budget), Success/Impossible verdicts are
/// determined by the job alone, never by scheduling: the race is only
/// decided by a member's Success, so "some member succeeds" and "no
/// member succeeds" are timing-independent facts. When the batch itself
/// is cancelled mid-race, every member may abort with no winner and the
/// job reports Aborted.
struct SynthReport {
  size_t JobIndex = 0;
  std::string JobName;
  SynthResult Result;
  /// Name of the member that produced Result.
  std::string Winner;
  /// Wall-clock for the whole job (all members, including losers),
  /// measured from when a worker picked the job up — on-CPU time, not
  /// including the queue.
  double Seconds = 0.0;
  /// Wall-clock the job spent queued before a worker picked it up.
  /// Kept apart from Seconds so load-induced queueing never inflates
  /// per-job latency figures (bench sweeps report both).
  double QueueSeconds = 0.0;
  std::vector<MemberOutcome> Members;
  /// True when the engine served this report from its result cache: an
  /// earlier digest-identical job already ran, Result/Winner are that
  /// run's (verdict, sequence, and stats included), and Members is empty
  /// because no member executed.
  bool FromCache = false;

  bool ok() const { return Result.ok(); }
};

/// The result of one engine batch: per-job reports in job order plus
/// batch-level aggregates.
struct BatchReport {
  std::vector<SynthReport> Reports;
  /// Summed stats of every job's *winning* member (losers excluded so
  /// the totals are comparable across worker counts).
  SynthStats Merged;
  /// Checker queries served by every member, winners and losers alike —
  /// the real work the hardware performed. Cache-served jobs contribute
  /// nothing, which is the point.
  uint64_t TotalQueries = 0;
  /// Engine result-cache accounting for this batch: jobs served from the
  /// cache versus jobs that actually executed.
  uint64_t EngineCacheHits = 0;
  uint64_t EngineCacheMisses = 0;
  double WallSeconds = 0.0;
  unsigned NumWorkers = 0;

  unsigned numSucceeded() const {
    unsigned N = 0;
    for (const SynthReport &R : Reports)
      N += R.ok();
    return N;
  }
};

} // namespace netupd

#endif // NETUPD_ENGINE_JOB_H
