//===- synth/OrderUpdate.h - The ORDERUPDATE algorithm ---------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ORDERUPDATE (Fig. 4): counterexample-guided depth-first search over
/// simple update sequences, with the optimizations of §4.2:
///
///  (A) counterexample pruning — the V (visited) and W (wrong) sets over
///      configurations, where W entries are partial assignments to the
///      switches occurring in a counterexample trace;
///  (B) early search termination — ordering constraints mined from
///      counterexamples are fed to an incremental SAT solver
///      (synth/EarlyTermination.h); a contradiction stops the search;
///  (C) wait removal — a post-processing pass that drops waits shown
///      unnecessary by reachability analysis (synth/WaitRemoval.h).
///
/// Both granularities of §3.1 are supported: switch-granularity updates
/// replace a whole forwarding table; rule-granularity updates replace one
/// traffic class's rules on one switch, which succeeds on instances where
/// no switch-granularity order exists (Fig. 8(h)/(i)).
///
/// One search core: the op-order tree is prefix-split at depth one —
/// every candidate first operation roots one work unit — and each unit
/// is explored against a pruning scope holding V, W and the SAT layer.
///
/// Sharded search: with SynthOptions::Shards > 1 (and a
/// ShardCheckerFactory to build per-shard checkers) the units are
/// consumed by shard threads. Each shard owns a private KripkeStructure
/// and checker (the mutate/rollback discipline stays strictly
/// shard-local), while the scope is shared and monotone: the V set
/// doubles as a claim map (exactly one shard explores each
/// configuration's subtree), W constraints and SAT clauses mined
/// anywhere prune everywhere, idle shards steal shallow subtrees once
/// every unit is claimed, and the first shard to find a sequence cancels
/// its siblings through a StopToken. Feasibility verdicts are
/// scheduling-independent — Success iff a sequence exists, Impossible
/// only by exhaustion or SAT proof — though *which* correct sequence is
/// returned may vary with timing (same sequence class, not the same
/// sequence). One shard is the paper's sequential search. See
/// docs/ARCHITECTURE.md for the design.
///
/// Deterministic budgets: a finite check budget (MaxCheckCalls or
/// UnitCheckCalls) switches the search into deterministic budget mode.
/// The budget is carved into fixed per-work-unit quotas
/// (support/Budget.h), each unit explores against its own scope, reset
/// per unit, and shards never steal; the lowest-indexed successful unit
/// supplies the result — so the verdict AND the returned sequence are a
/// pure function of (job, budget), identical at every shard and worker
/// count, Aborted verdicts included. TimeoutSeconds is only a soft
/// wall-clock hint that fires between work units, never inside one; it
/// is the single remaining source of timing dependence and is excluded
/// from job digests (timeout-influenced runs are flagged Interrupted and
/// never cached — unlike pure quota-exhaustion Aborts, which are
/// deterministic and are replayed by the engine's result cache).
///
/// Cross-job learning: with SynthOptions::Learning set, the search seeds
/// its W set and SAT layer from the ConstraintStore before exploring and
/// publishes what it learned when it retires, so digest-identical
/// scenarios skip already-refuted prefixes without checker queries. The
/// seeding is verdict- and sequence-invariant (every imported entry is a
/// sound refutation; see docs/ARCHITECTURE.md) and never engages in
/// deterministic budget mode.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SYNTH_ORDERUPDATE_H
#define NETUPD_SYNTH_ORDERUPDATE_H

#include "engine/StopToken.h"
#include "mc/CheckerBackend.h"
#include "support/ConstraintStore.h"
#include "synth/Command.h"
#include "topo/Scenario.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace netupd {

/// Knobs for ORDERUPDATE; the defaults enable every optimization the
/// paper's tool uses. Disabling individual flags drives the ablation
/// benchmarks.
struct SynthOptions {
  bool CexPruning = true;
  bool EarlyTermination = true;
  bool WaitRemoval = true;
  bool RuleGranularity = false;
  /// Hard logical budget (0 = unlimited): the total number of charged
  /// check calls the search may spend, carved deterministically into
  /// per-work-unit quotas (earlier units receive the remainder, every
  /// unit is floored at one call — see support/Budget.h). Budgets are
  /// inclusive: a budget of exactly N permits N calls. Initial bind()
  /// checks are setup cost and exempt from charging, so the bound is
  /// independent of the shard count. Setting this (or UnitCheckCalls)
  /// engages deterministic budget mode: verdicts and sequences —
  /// Aborted included — become a pure function of (job, budget).
  uint64_t MaxCheckCalls = 0;
  /// Per-unit variant of the same budget (0 = unset): every work unit
  /// gets exactly this quota, bounding each depth-one subtree directly
  /// (hard total: quota x #units). When both knobs are set,
  /// UnitCheckCalls wins. Like MaxCheckCalls it is semantic and part of
  /// digestOf(SynthJob).
  uint64_t UnitCheckCalls = 0;
  /// Soft wall-clock hint (0 = none); the paper used a 10-minute
  /// timeout. Checked only *between* work units — a unit that starts
  /// always completes (or exhausts its quota), so pair a timeout with a
  /// check budget to bound unit length. Because expiry can only turn a
  /// run into Aborted (never alter a completed verdict) and leaves the
  /// Interrupted flag set — which keeps the result out of the engine's
  /// cache — this knob is excluded from digestOf(SynthJob).
  double TimeoutSeconds = 0.0;
  /// Cooperative-cancellation token, polled at the same checkpoints as
  /// the abort knobs. The engine's portfolio mode fires it to cancel
  /// losing configurations; a default (empty) token never stops.
  StopToken Stop;
  /// Intra-configuration parallelism: the number of DFS shards the
  /// op-order tree is prefix-split across (see the file comment). The
  /// search itself treats 0 and 1 alike (sequential), but they differ
  /// upstream: 0 means "unset" and lets EngineOptions::IntraJobShards
  /// supply a default, while an explicit 1 pins the classic sequential
  /// search even under an engine-wide default. Values above the number
  /// of candidate first operations are clamped. Shards > 1 requires
  /// ShardCheckerFactory — without it the search degrades to
  /// sequential. A performance knob, not a semantic one: like Stop, it
  /// is excluded from digestOf(SynthJob).
  unsigned Shards = 0;
  /// Builds one fresh CheckerBackend per extra shard (the caller's
  /// checker serves the first). The engine wires this to the portfolio
  /// member's BackendFactory spec; direct callers can capture whatever
  /// state their backend needs. Must be callable concurrently and must
  /// outlive the synthesizeUpdate call.
  std::function<std::unique_ptr<CheckerBackend>()> ShardCheckerFactory;
  /// Cross-job learning store (null = off; see support/ConstraintStore.h).
  /// On start the search imports the wrong-set entries earlier runs of
  /// this (LearningScenario, RuleGranularity) published — pre-populating
  /// W and seeding the SAT layer so already-refuted prefixes are pruned
  /// without checker queries — and on retirement it publishes what it
  /// learned. A pure accelerator: verdicts and returned sequences are
  /// unchanged by any store content, so (like Shards) it is excluded
  /// from digestOf(SynthJob). Deterministic budget mode never imports —
  /// its outcome must stay a pure function of (job, budget), never of
  /// process history — but budgeted runs still export. Requires
  /// CexPruning (the machinery that both produces and consumes the
  /// entries).
  std::shared_ptr<ConstraintStore> Learning;
  /// digestOf() of the scenario being synthesized; learning engages only
  /// when this is set (non-zero) alongside Learning. The Scenario-taking
  /// synthesizeUpdate overload fills it in automatically; direct
  /// topology-level callers supply it themselves or leave learning off.
  Digest LearningScenario;
};

/// Search statistics reported alongside a result.
struct SynthStats {
  uint64_t CheckCalls = 0;
  uint64_t VisitedPrunes = 0;
  uint64_t CexPrunes = 0;
  /// Clauses the early-termination layer handed its solver, summed over
  /// every scope of the run: one per kept counterexample constraint plus
  /// one per ordering cycle its theory check refuted
  /// (synth/EarlyTermination.h). Zero with EarlyTermination off.
  uint64_t SatClauses = 0;
  /// Checker-memoization counters (CheckerBackend::cacheHits/Misses),
  /// captured when the run finishes and summed over every shard's
  /// checker; zero for non-memoizing backends.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  /// Real checking work performed across every checker instance of the
  /// run (CheckerBackend::numQueries() of the caller's checker plus all
  /// shard checkers). Equals CheckCalls for plain backends; smaller for
  /// memoizing ones, whose cache hits cost no inner-backend work.
  uint64_t BackendQueries = 0;
  bool EarlyTerminated = false;
  /// Deterministic-budget accounting (all zero for unlimited runs):
  /// charged check calls across every work unit, the unspent remainder
  /// of the ledger's hard total, and the number of units that ran out
  /// of quota. Spent/Remaining may vary with scheduling (a sibling can
  /// start a doomed unit before the winner propagates); the *verdict*
  /// never does.
  uint64_t BudgetSpent = 0;
  uint64_t BudgetRemaining = 0;
  uint64_t ExhaustedUnits = 0;
  /// Cross-job learning accounting (all zero when SynthOptions::Learning
  /// is unset): wrong-set entries imported from the ConstraintStore at
  /// search start, entries newly admitted to the store when the run
  /// retired (duplicates of already-published entries don't count), and
  /// DFS prunes served by an *imported* entry — each one a checker query
  /// an earlier digest-identical run paid for.
  uint64_t ImportedConstraints = 0;
  uint64_t ExportedConstraints = 0;
  uint64_t SeededPrunes = 0;
  /// Subtree descriptors this searcher executed on behalf of another
  /// shard (work-stealing; always zero in deterministic budget mode and
  /// in sequential runs). Each stolen task costs one extra bind query.
  uint64_t StolenTasks = 0;
  /// Always zero: the search neither minimizes clauses nor restarts.
  /// Kept only because the benchmark suite still reports them.
  uint64_t ClausesMinimized = 0;
  uint64_t Restarts = 0;
  /// Learned entries the ConstraintStore discarded at insert because an
  /// entry with a subset mask already subsumed them, or that it evicted
  /// because a new entry subsumed them.
  uint64_t SubsumedDropped = 0;
  /// Portfolio members the engine skipped because their (scenario,
  /// granularity) learning key already held an up-front UNSAT proof
  /// (engine/Engine.cpp; set on the fabricated Impossible outcome).
  uint64_t ShedMembers = 0;
  /// True iff a budget condition shaped the run: a unit exhausted its
  /// quota or the soft wall hint expired. Never set by a race loss or
  /// an external cancellation (see MemberOutcome::Cancelled for the
  /// former).
  bool HitBudget = false;
  /// True iff a timing event — an external stop or the soft wall hint —
  /// was observed cutting the run short. A Success with this flag may
  /// carry a sequence that is not the deterministic lowest-unit one
  /// (an outranking unit may have been abandoned mid-flight), so the
  /// engine refuses to cache interrupted results.
  bool Interrupted = false;
  unsigned WaitsBeforeRemoval = 0;
  unsigned WaitsAfterRemoval = 0;
  double SynthSeconds = 0.0;
  double WaitRemovalSeconds = 0.0;
  /// Phase profile of the DFS, accumulated per shard and summed across
  /// shards (so under sharding the totals are thread-seconds, which may
  /// exceed SynthSeconds). All zero unless the obs detail tier
  /// (obs::detailEnabled()) was on during the run: the per-candidate
  /// clock reads live behind that switch. CheckSeconds is time inside
  /// checker bind/recheck calls, MutateSeconds covers applyHandle
  /// plus undo/rollback, PruneSeconds the V/W/seed probes and claims,
  /// SatSeconds the EarlyTermination learning and impossibility calls.
  double CheckSeconds = 0.0;
  double MutateSeconds = 0.0;
  double PruneSeconds = 0.0;
  double SatSeconds = 0.0;

  /// Accumulates every counter of \p S into this. The single merging
  /// point — the engine's batch aggregation uses it, so a field added
  /// here is summed everywhere (counters sum, flags OR).
  /// tests/synth_test.cpp pins sizeof(SynthStats): adding a field
  /// without extending both this merge and that test fails the build
  /// there, which is the point — PRs keep growing this struct by hand.
  void mergeFrom(const SynthStats &S) {
    CheckCalls += S.CheckCalls;
    VisitedPrunes += S.VisitedPrunes;
    CexPrunes += S.CexPrunes;
    SatClauses += S.SatClauses;
    CacheHits += S.CacheHits;
    CacheMisses += S.CacheMisses;
    BackendQueries += S.BackendQueries;
    EarlyTerminated |= S.EarlyTerminated;
    BudgetSpent += S.BudgetSpent;
    BudgetRemaining += S.BudgetRemaining;
    ExhaustedUnits += S.ExhaustedUnits;
    ImportedConstraints += S.ImportedConstraints;
    ExportedConstraints += S.ExportedConstraints;
    SeededPrunes += S.SeededPrunes;
    StolenTasks += S.StolenTasks;
    ClausesMinimized += S.ClausesMinimized;
    Restarts += S.Restarts;
    SubsumedDropped += S.SubsumedDropped;
    ShedMembers += S.ShedMembers;
    HitBudget |= S.HitBudget;
    Interrupted |= S.Interrupted;
    WaitsBeforeRemoval += S.WaitsBeforeRemoval;
    WaitsAfterRemoval += S.WaitsAfterRemoval;
    SynthSeconds += S.SynthSeconds;
    WaitRemovalSeconds += S.WaitRemovalSeconds;
    CheckSeconds += S.CheckSeconds;
    MutateSeconds += S.MutateSeconds;
    PruneSeconds += S.PruneSeconds;
    SatSeconds += S.SatSeconds;
  }
};

/// Outcome of a synthesis run.
enum class SynthStatus {
  /// A correct careful sequence was found.
  Success,
  /// No simple careful sequence exists (exhaustive search or SAT proof).
  Impossible,
  /// The initial configuration already violates the property, so no
  /// command sequence can be correct (Def. 3 quantifies over all traces,
  /// including pre-update ones).
  InitialViolation,
  /// Gave up: a work unit exhausted its deterministic check quota
  /// (MaxCheckCalls / UnitCheckCalls), the soft TimeoutSeconds hint
  /// expired between units, or an external stop token fired. Pure
  /// quota-exhaustion aborts are reproducible (see the file comment)
  /// and the engine caches them; timing-shaped aborts (stop or wall
  /// observed — the Interrupted flag) are never cached.
  Aborted
};

/// The enumerator's name ("Success", "Impossible", ...), for reports.
const char *statusName(SynthStatus S);

/// A synthesis result: on Success, Commands is the careful sequence
/// (updates separated by waits, minus those the wait-removal pass proved
/// unnecessary).
struct SynthResult {
  SynthStatus Status = SynthStatus::Impossible;
  CommandSeq Commands;
  SynthStats Stats;

  bool ok() const { return Status == SynthStatus::Success; }
};

/// Runs ORDERUPDATE for the transition \p Initial -> \p Final under
/// property \p Phi, using \p Checker as the model-checking backend.
SynthResult synthesizeUpdate(const Topology &Topo, const Config &Initial,
                             const Config &Final,
                             const std::vector<TrafficClass> &Classes,
                             Formula Phi, CheckerBackend &Checker,
                             const SynthOptions &Opts = {});

/// Convenience overload for generated scenarios: builds the property in
/// \p FF and forwards to the main entry point.
SynthResult synthesizeUpdate(const Scenario &S, FormulaFactory &FF,
                             CheckerBackend &Checker,
                             const SynthOptions &Opts = {});

} // namespace netupd

#endif // NETUPD_SYNTH_ORDERUPDATE_H
