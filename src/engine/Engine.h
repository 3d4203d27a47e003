//===- engine/Engine.h - Parallel batch-synthesis engine -------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SynthEngine: a long-lived pool of worker threads consuming
/// SynthJobs, with two front-ends over the same queue:
///
///  - submit(): asynchronous — returns a JobHandle the caller can
///    poll/wait/cancel while streaming further jobs in. The pool and the
///    caches stay warm between submissions, the service mode the ROADMAP
///    asked for.
///  - run(): the batch front-end — submits every job, waits for all, and
///    returns per-job SynthReports in job order plus merged statistics.
///
/// Result cache: each job is keyed by its canonical digest
/// (digestOf(SynthJob): scenario content + portfolio spec); a
/// digest-identical job that already completed is served instantly with
/// the recorded verdict, command sequence, and stats — isomorphic
/// scenarios recur both within a batch and across batches, and
/// re-synthesizing them is pure waste. Timing-shaped results are never
/// cached: a cancellation reflects the run, not the instance, so any
/// report whose stats carry the Interrupted flag skips the store.
/// Aborted verdicts are cacheable in exactly one shape — the
/// deterministic budget abort, where every member ran its quota dry
/// (ExhaustedUnits > 0) with no timing event observed: such verdicts are
/// a pure function of (job, budget) and the budget is part of the
/// digest, so replaying them dedups repeated doomed probes in autotuning
/// loops. See executeJob, whose single store site enforces both rules,
/// and tests/budget_test.cpp, which audits every Aborted-writing path
/// including a cancel racing job completion. The cache is sharded and
/// thread-safe (support/ShardedCache.h) and lives as long as the engine,
/// so warm batches also benefit. Checker-level memoization
/// ("memo:<backend>" specs, mc/MemoizingChecker.h) is independent and
/// composes: the engine cache dedups whole jobs, the check cache dedups
/// individual queries across different jobs.
///
/// Cross-job learning: orthogonal to both caches, the engine threads a
/// ConstraintStore (support/ConstraintStore.h) through every member it
/// runs. Digest-*different* jobs over digest-identical scenarios — a
/// portfolio probing the same instance under different backends or
/// knobs, an autotuning sweep, repeated batches — then share the
/// counterexample refutations they mine: each member seeds its W set
/// and SAT layer on start and publishes what it learned on retirement,
/// so already-refuted prefixes are pruned without checker queries. The
/// store is a pure accelerator (verdicts and sequences are byte-
/// identical with it on or off; deterministic budget runs never import)
/// and is therefore excluded from digestOf(SynthJob).
///
/// Isolation: every job owns its Scenario by value. Its members and
/// their shards read it in place, without a clone: a Scenario (its
/// Topology, Configs and flows) holds no mutable or lazily cached state,
/// so concurrent readers are safe. Each member builds its private
/// KripkeStructure and checker, so concurrent runs never share mutable
/// state; the only cross-thread channels are the StopTokens, the sharded
/// caches, and the per-job report slots, each completed under the job's
/// own mutex.
///
/// Portfolio mode: a job with several members races them on the worker
/// thread's crew (see below); the winner fires a shared StopSource and
/// the losers abandon their search at the next cancellation checkpoint.
/// Only Success cancels the race — a member proving its own
/// configuration Impossible says nothing about members searching a
/// different granularity, so the rest keep running. The
/// job's feasibility verdict is therefore timing-independent: Success
/// iff some member can succeed. A single-member job runs inline on the
/// worker.
///
/// Intra-job sharding: orthogonally to the portfolio (which races
/// *different* configurations), a single member's DFS can be
/// prefix-split across shard threads (SynthOptions::Shards;
/// EngineOptions::IntraJobShards applies a default to every member that
/// didn't choose). The engine's contribution is the per-shard checker
/// factory: each shard needs a private backend instance, so runMember
/// wires SynthOptions::ShardCheckerFactory to the member's
/// BackendFactory spec over the job's scenario.
///
/// Nested work and the pool: portfolio members and DFS shards are NOT
/// submitted back to the engine's job queue. Re-submitting would
/// deadlock a saturated pool: every worker could be blocked inside a
/// job waiting for sub-tasks that no free worker exists to run. Both
/// run on crews instead (support/Crew.h): a worker runs a multi-member
/// job's members as one round on its own crew, and whichever thread runs
/// a search — the worker for a single-member job, a member's crew thread
/// otherwise — runs its extra shards on its own crew. A crew cannot
/// deadlock: it serves only its owner, the owner waits only for its own
/// round, and crew threads never touch the job queue. Crew threads park
/// between rounds, so a job creates no threads once its worker's crews
/// are warm. Workers still only ever block on checker work, never on
/// other queue entries, at the cost of briefly oversubscribing the
/// machine, which the OS scheduler handles gracefully for these
/// CPU-bound, cancellation-polling loops.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_ENGINE_ENGINE_H
#define NETUPD_ENGINE_ENGINE_H

#include "engine/Job.h"
#include "engine/StopToken.h"
#include "support/ShardedCache.h"
#include "support/ThreadAnnotations.h"

#include <deque>
#include <memory>
#include <thread>

namespace netupd {

/// What the engine's result cache stores per job digest: the winning
/// member's full result and its name. Everything per-submission
/// (JobIndex, JobName, member outcomes, wall-clock) is reconstructed or
/// left empty when serving.
struct CachedJobResult {
  SynthResult Result;
  std::string Winner;
};

/// The engine-level result cache; each engine owns one.
using ResultCache = ShardedDigestCache<CachedJobResult>;

/// Engine configuration.
struct EngineOptions {
  /// Worker threads for the job pool; 0 means hardware concurrency.
  /// Portfolio members and DFS shards run on the crews of the threads
  /// that start them (see "Nested work and the pool" in the file
  /// comment), never on the pool.
  unsigned NumWorkers = 0;
  /// Default intra-job shard count applied to every portfolio member
  /// that left SynthOptions::Shards at 0 (unset). 0 or 1 here disables
  /// the default; members with an explicit Shards — including an
  /// explicit 1 to pin the sequential search — keep their own value.
  unsigned IntraJobShards = 0;
  /// Serve digest-identical jobs from the engine's result cache, which
  /// lives as long as the engine.
  bool CacheResults = true;
  /// Cross-job constraint learning (see the file comment): members seed
  /// their searches from, and publish their learned refutations to, the
  /// engine's ConstraintStore, which lives as long as the engine. Safe
  /// to leave on — verdicts and command sequences are unchanged by
  /// construction; SynthStats reports the traffic (ImportedConstraints /
  /// ExportedConstraints / SeededPrunes).
  bool SharedLearning = true;
};

namespace detail {
/// Shared state of one submitted job; the handle and the worker hold it
/// jointly, so a handle stays valid after the engine is destroyed.
struct JobState {
  /// Job/Index/Cancel/EnqueuedNs are written once by submit() before the
  /// state is published into the queue and read-only afterwards — the
  /// queue handoff (QueueMutex release/acquire) is their ordering edge,
  /// so they carry no capability annotation.
  SynthJob Job;
  size_t Index = 0;
  StopSource Cancel;
  /// Enqueue timestamp (obs::nowNs at submit), so the worker that
  /// dequeues can report SynthReport::QueueSeconds.
  uint64_t EnqueuedNs = 0;

  Mutex M;
  CondVar CV;
  bool Done NETUPD_GUARDED_BY(M) = false;
  /// The report. Written by exactly one worker strictly before it sets
  /// Done under M; readers (JobHandle::wait) first observe Done under M,
  /// then read Rep lock-free — the Done latch is the publication edge.
  /// Left unannotated deliberately: wait() returns a long-lived
  /// reference, which a GUARDED_BY would (correctly) reject even though
  /// the latch protocol makes it safe.
  SynthReport Rep;
};
} // namespace detail

/// Caller's end of one submitted job. Cheap to copy; default-constructed
/// handles are invalid.
class JobHandle {
public:
  JobHandle() = default;

  bool valid() const { return St != nullptr; }

  /// True once the report is available; never blocks.
  bool done() const;

  /// Blocks until the job finishes and returns its report. The reference
  /// stays valid for the handle's lifetime.
  const SynthReport &wait() const;

  /// Requests cooperative cancellation: a queued job is reported Aborted
  /// without running; a running job's members stop at their next
  /// checkpoint. Idempotent; a no-op once the job finished.
  void cancel();

private:
  friend class SynthEngine;
  explicit JobHandle(std::shared_ptr<detail::JobState> St)
      : St(std::move(St)) {}

  std::shared_ptr<detail::JobState> St;
};

/// The engine; see file comment. Thread-safe: submit() and run() may be
/// called concurrently from several client threads.
class SynthEngine {
public:
  explicit SynthEngine(EngineOptions Opts = {});

  /// Joins the pool. Jobs still queued are reported Aborted, so
  /// outstanding handles unblock; jobs already running finish first.
  ~SynthEngine();

  SynthEngine(const SynthEngine &) = delete;
  SynthEngine &operator=(const SynthEngine &) = delete;

  /// Enqueues one job and returns immediately.
  JobHandle submit(SynthJob Job);

  /// Runs every job and returns reports in job order. Blocks until the
  /// batch finishes; other clients' submissions interleave on the same
  /// pool. To cancel jobs, submit() them and cancel() the handles.
  BatchReport run(const std::vector<SynthJob> &Jobs);

  /// The resolved pool size.
  unsigned numWorkers() const { return Workers; }

  /// The engine's result cache (for stats or clearing).
  const std::shared_ptr<ResultCache> &resultCache() const { return Cache; }

  /// The engine's cross-job constraint store; null when SharedLearning
  /// is off.
  const std::shared_ptr<ConstraintStore> &constraintStore() const {
    return Learn;
  }

private:
  void workerLoop();
  void executeJob(detail::JobState &St);
  SynthReport runOneJob(const SynthJob &Job, size_t Index,
                        const StopToken &Stop) const;

  EngineOptions Opts;
  unsigned Workers;
  std::shared_ptr<ResultCache> Cache;
  std::shared_ptr<ConstraintStore> Learn;

  Mutex QueueMutex;
  CondVar QueueCV;
  std::deque<std::shared_ptr<detail::JobState>> Queue
      NETUPD_GUARDED_BY(QueueMutex);
  bool ShuttingDown NETUPD_GUARDED_BY(QueueMutex) = false;
  size_t NextIndex NETUPD_GUARDED_BY(QueueMutex) = 0;
  /// Workers blocked waiting for a job. submit() only spawns a new
  /// thread (up to Workers) when no idle worker can take the job, so
  /// small workloads never pay for the full pool.
  unsigned IdleWorkers NETUPD_GUARDED_BY(QueueMutex) = 0;

  /// The pool threads. Appended under QueueMutex by submit(); joined by
  /// the destructor strictly after the ShuttingDown handshake, with
  /// QueueMutex released (joining under the lock would deadlock against
  /// workers re-acquiring it to exit their wait). That join-outside-lock
  /// step is why this is a documented handshake rather than GUARDED_BY.
  std::vector<std::thread> Pool;
};

} // namespace netupd

#endif // NETUPD_ENGINE_ENGINE_H
