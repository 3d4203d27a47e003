//===- fuzz/Fuzz.h - Differential fuzzing harness --------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based differential fuzzing over the whole synthesis matrix.
/// Each iteration generates a random (topology, config-pair, property)
/// instance through the seeded Rng — zoo topologies, all three property
/// kinds, single/multi-flow diamonds, double diamonds, and corrupted
/// variants (blackholed destinations, initial-violation configs) — and
/// runs it through every cell of
///
///     backend registry x granularity x shards {1,4} x budget on/off,
///
/// checking the repository's determinism contracts (the oracle; see
/// docs/ARCHITECTURE.md "Scenario zoo & differential fuzzing"):
///
///  - unlimited cells of one granularity agree on the verdict, across
///    every backend and shard count;
///  - unlimited *sequential* cells (1 shard) return byte-identical
///    command sequences — pruning differences between backends (hsa
///    yields no counterexamples) must never change the sequence, only
///    its cost;
///  - unlimited sharded Successes are replay-checked: every intermediate
///    configuration satisfies the property and the sequence lands
///    exactly on the final configuration;
///  - budgeted cells are byte-identical (verdict and sequence) to their
///    own backend's 1-shard budget reference, never steal, and agree on
///    BudgetSpent on non-Success;
///  - a budgeted cell that completes (is not Aborted) agrees with the
///    unlimited verdict;
///  - stealing is inert unsharded (StolenTasks == 0);
///  - granularities relate: InitialViolation is granularity-independent,
///    and a switch-feasible instance is rule-feasible (the converse
///    fails by design on double diamonds).
///
/// Every eighth iteration instead drives a churn stream through the
/// SynthEngine four ways (reference / result cache / shedding / both)
/// and requires byte-identical per-step results plus the pigeonhole
/// cache-hit floor a repeating stream guarantees.
///
/// Every sixteenth iteration (offset so it never displaces a churn
/// iteration) generates a LARGE instance — a 240..360-switch
/// small-world fabric with long-path diamonds, diff-capped so the
/// search lattice stays tractable — and runs the sequential unlimited
/// reference cell only, once per granularity: replay plus the
/// cross-granularity relations. This family stresses
/// checker state-space scale, which the full matrix (sized for 100+
/// cells per instance) deliberately avoids.
///
/// Disagreements are delta-minimized (fuzz/Minimize.h) and serialized as
/// repro files (fuzz/Repro.h).
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_FUZZ_FUZZ_H
#define NETUPD_FUZZ_FUZZ_H

#include "fuzz/Repro.h"
#include "support/Random.h"
#include "topo/Scenario.h"

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace netupd {
namespace fuzz {

/// Check-budget specification for the budgeted half of the matrix.
struct BudgetSpec {
  /// Charged-call budget; the budgeted cells use this value.
  uint64_t Amount = 40;
  /// When true the budget is per work unit (SynthOptions::UnitCheckCalls)
  /// instead of a shared total (MaxCheckCalls).
  bool PerUnit = false;
};

/// One oracle violation.
struct Disagreement {
  /// One-line classification ("verdict mismatch", "budget sequence
  /// drift", ...).
  std::string What;
  /// The disagreeing cells (the reference cell first).
  std::string CellA, CellB;
  std::string Expected, Got;

  std::string str() const;
};

/// Fuzzer configuration.
struct FuzzOptions {
  uint64_t Seed = 1;
  unsigned Iters = 100;
  /// Every Nth iteration runs an engine churn-stream check instead of a
  /// matrix instance; 0 disables churn iterations.
  unsigned ChurnEvery = 8;
  /// Every Nth iteration runs a large sequential-only instance (hundreds
  /// of switches; reference backend, unlimited sequential cells only)
  /// instead of a matrix instance. Offset by half a period against the
  /// churn cadence so the two families never claim the same iteration.
  /// 0 disables large iterations.
  unsigned LargeEvery = 16;
  /// Backends to cross-check; empty means the full registry.
  std::vector<std::string> Backends;
  /// Backends restricted to the two sequential unlimited cells (verdict
  /// + sequence agreement per granularity) on single-class reachability
  /// instances, skipping the shard / steal / budget sub-matrix. Those
  /// schedule-invariance cells exercise the search skeleton, not the
  /// checker, so they are swept with the fast backends; the symbolic
  /// NuSMV-substitute is orders of magnitude slower per query
  /// (bench/fig7_backends) and its BDDs blow up on multi-class and
  /// waypoint formulas, exactly as §6 reports for NuSMV.
  /// Never applies to the reference backend.
  std::vector<std::string> ShallowBackends = {"symbolic"};
  /// Directory minimized repro files are written to; empty keeps repros
  /// in memory only.
  std::string OutDir;
  bool Verbose = false;
};

/// What a fuzzing run did and found.
struct FuzzReport {
  unsigned Instances = 0;
  unsigned CellRuns = 0;
  unsigned ChurnStreams = 0;
  unsigned LargeInstances = 0;
  /// Minimized disagreements, one per failing iteration.
  std::vector<Repro> Repros;
  /// Paths of repro files written (parallel to Repros when OutDir set).
  std::vector<std::string> ReproPaths;

  bool clean() const { return Repros.empty(); }
};

/// Deterministically generates the matrix instance for iteration stream
/// \p R: a random zoo topology, a diamond/double-diamond scenario of a
/// random property kind, and (sometimes) a corrupting mutation.
Scenario generateInstance(Rng &R);

/// Runs the full differential cell matrix over \p S; returns the first
/// oracle violation, if any. \p CellRuns (optional) accumulates the
/// number of synthesis runs performed. Backends listed in \p Shallow run
/// only the sequential unlimited agreement cells (see
/// FuzzOptions::ShallowBackends).
std::optional<Disagreement>
checkScenario(const Scenario &S, const std::vector<std::string> &Backends,
              const BudgetSpec &Budget, unsigned *CellRuns = nullptr,
              const std::vector<std::string> &Shallow = {});

/// Deterministically generates a large sequential-only instance for
/// iteration stream \p R: a 240..360-switch small-world fabric with
/// long-path diamond flows, possibly mutated, diff-capped so the update
/// lattice stays tractable while the checker state space does not.
Scenario generateLargeInstance(Rng &R);

/// Runs the large-family cells over \p S on the single reference
/// backend \p Backend: per granularity, the unlimited sequential
/// reference cell (replay-checked on Success), plus the
/// cross-granularity relations. Returns the first oracle violation, if any; \p CellRuns
/// (optional) accumulates synthesis runs.
std::optional<Disagreement>
checkLargeScenario(const Scenario &S, const std::string &Backend,
                   unsigned *CellRuns = nullptr);

/// Builds a churn trace from \p R and replays it through the SynthEngine
/// in four modes (reference / cache / shedding / cache+shedding),
/// requiring byte-identical per-step verdicts and sequences and the
/// deterministic cache-hit floor. On violation the returned
/// disagreement's scenario context is the offending step, stored in
/// \p BadStep when non-null.
std::optional<Disagreement> checkChurnStream(Rng &R,
                                             unsigned *CellRuns = nullptr,
                                             Scenario *BadStep = nullptr);

/// The whole harness: Iters iterations of generate + matrix check (and
/// periodic churn checks), minimizing and serializing each disagreement.
/// Progress and findings go to \p Log.
FuzzReport runFuzz(const FuzzOptions &Opts, std::ostream &Log);

} // namespace fuzz
} // namespace netupd

#endif // NETUPD_FUZZ_FUZZ_H
