//===- tests/learning_test.cpp - cross-job learning tests ------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the cross-job constraint store (support/ConstraintStore.h)
/// and its wiring through the search and the engine: store semantics
/// (keying, dedup, op-universe guards, caps), the reuse-on-vs-reuse-off
/// invariance matrix across the backend registry, shard counts, and
/// budgeted runs (verdicts and command sequences must be byte-identical
/// — learning is an accelerator, never an oracle), the deterministic-
/// budget import gate, and the acceleration itself: a second probe of a
/// digest-identical scenario must skip already-refuted prefixes without
/// issuing checker queries.
///
/// Sequence comparison caveat: at Shards > 1 without a budget, *which*
/// correct sequence a feasible search returns is timing-dependent with
/// or without learning (the first shard to finish wins); those cells
/// compare verdicts byte-exactly and validate sequences by replay, the
/// same contract tests/shard_test.cpp holds the sharded search to.
/// Everywhere the engine guarantees sequence determinism — sequential
/// runs and deterministic budget mode at any shard count — the
/// comparison is byte-exact.
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "engine/StopToken.h"
#include "mc/BackendFactory.h"
#include "support/ConstraintStore.h"
#include "synth/EarlyTermination.h"
#include "synth/OrderUpdate.h"
#include "topo/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace netupd;
using namespace netupd::testutil;

namespace {

/// A feasible diamond scenario with at least \p MinUpdates updating
/// switches. Deterministic: scans seeds from \p FirstSeed upward.
Scenario diamondWithUpdates(uint64_t FirstSeed, unsigned MinUpdates) {
  for (uint64_t Seed = FirstSeed; Seed != FirstSeed + 64; ++Seed) {
    Rng R(Seed);
    Topology Base = buildSmallWorld(24, 4, 0.2, R);
    std::optional<Scenario> S =
        makeDiamondScenario(Base, R, PropertyKind::Reachability);
    if (S && numUpdatingSwitches(*S) >= MinUpdates)
      return std::move(*S);
  }
  ADD_FAILURE() << "no diamond with >= " << MinUpdates
                << " updating switches from seed " << FirstSeed;
  return Scenario{};
}

/// The Fig. 8(h) instance: switch-granularity infeasible, rule feasible.
Scenario doubleDiamond(uint64_t Seed) {
  Rng R(Seed);
  Topology Base = buildSmallWorld(20, 4, 0.2, R);
  std::optional<Scenario> S = makeDoubleDiamondScenario(Base, R);
  EXPECT_TRUE(S.has_value()) << "seed " << Seed << " grew no double diamond";
  return std::move(*S);
}

/// What one run observably produced, for invariance comparisons.
struct RunResult {
  SynthStatus Status = SynthStatus::Aborted;
  std::string Rendered; // commandSeqToString: the byte-exact fingerprint.
  CommandSeq Commands;
  SynthStats Stats;
};

/// Runs one single-member job on a fresh 1-worker engine with the result
/// cache off (learning, not replay, is under test). \p Store null means
/// SharedLearning off; each call builds its own engine, so a shared
/// store is also exercising cross-engine pooling. \p Tweak adjusts the
/// member's SynthOptions (budgets, ET, granularity).
RunResult runOnce(const Scenario &S, const std::string &Backend,
                  unsigned Shards,
                  const std::shared_ptr<ConstraintStore> &Store,
                  const std::function<void(SynthOptions &)> &Tweak = {}) {
  SynthJob Job;
  Job.S = S;
  PortfolioMember M;
  M.Backend = Backend;
  M.Opts.Shards = Shards;
  if (Tweak)
    Tweak(M.Opts);
  Job.Portfolio.push_back(std::move(M));

  EngineOptions EO;
  EO.NumWorkers = 1;
  EO.CacheResults = false;
  EO.SharedLearning = Store != nullptr;
  EO.Learning = Store;
  SynthEngine Engine(EO);
  BatchReport Rep = Engine.run({Job});
  const SynthReport &R = Rep.Reports[0];
  EXPECT_TRUE(R.Members[0].Error.empty()) << R.Members[0].Error;

  RunResult Out;
  Out.Status = R.Result.Status;
  Out.Rendered = commandSeqToString(S.Topo, R.Result.Commands);
  Out.Commands = R.Result.Commands;
  Out.Stats = R.Result.Stats;
  return Out;
}

/// Replay-checks a successful sequence (the "same sequence class"
/// validity notion of the sharded search).
void expectValidSequence(const Scenario &S, const CommandSeq &Cmds) {
  FormulaFactory FF;
  Formula Phi = S.buildProperty(FF);
  EXPECT_TRUE(
      allIntermediateConfigsHold(S.Topo, S.Initial, S.classes(), Phi, Cmds))
      << "learning produced an unsafe sequence";
}

Bitset bits(size_t N, std::initializer_list<unsigned> Set) {
  Bitset B(N);
  for (unsigned I : Set)
    B.set(I);
  return B;
}

/// A six-op store entry refuting every configuration that agrees with
/// \p Value on \p Mask.
ConstraintStore::Entry entry(std::initializer_list<unsigned> Mask,
                             std::initializer_list<unsigned> Value) {
  return {bits(6, Mask), bits(6, Value)};
}

} // namespace

// --- ConstraintStore semantics ----------------------------------------------

TEST(ConstraintStoreTest, KeySeparatesScenariosAndGranularities) {
  Digest A{1, 2}, B{3, 4};
  EXPECT_NE(ConstraintStore::keyFor(A, false), ConstraintStore::keyFor(A, true))
      << "granularities index different op universes and must not share";
  EXPECT_NE(ConstraintStore::keyFor(A, false),
            ConstraintStore::keyFor(B, false));
}

TEST(ConstraintStoreTest, PublishDedupsAndFetchGuardsTheOpUniverse) {
  ConstraintStore Store;
  Digest Key = ConstraintStore::keyFor(Digest{7, 7}, false);

  std::vector<ConstraintStore::Entry> Batch = {
      {bits(4, {0, 1}), bits(4, {0})},
      {bits(4, {1, 2}), bits(4, {2})},
      {bits(4, {0, 1}), bits(4, {0})}, // In-batch duplicate.
  };
  EXPECT_EQ(Store.publish(Key, 4, Batch), 2u);
  EXPECT_EQ(Store.publish(Key, 4, Batch), 0u) << "re-publish must dedup";
  EXPECT_EQ(Store.fetch(Key, 4).size(), 2u);
  EXPECT_TRUE(Store.fetch(Key, 5).empty())
      << "a mismatched op universe must fetch nothing";
  EXPECT_TRUE(Store.fetch(ConstraintStore::keyFor(Digest{7, 7}, true), 4)
                  .empty());

  // Malformed entries are rejected: empty value (the soundness guard),
  // value outside mask, wrong universe.
  std::vector<ConstraintStore::Entry> Bad = {
      {bits(4, {0, 1}), bits(4, {})},     // Empty value: unsound if used.
      {bits(4, {0}), bits(4, {2})},       // Value not within mask.
      {bits(3, {0}), bits(3, {0})},       // Wrong universe.
  };
  EXPECT_EQ(Store.publish(Key, 4, Bad), 0u);
  EXPECT_EQ(Store.fetch(Key, 4).size(), 2u);
}

TEST(ConstraintStoreTest, PerKeyCapBoundsTheEntryList) {
  ConstraintStore Store(/*MaxKeys=*/16, /*MaxEntriesPerKey=*/3);
  Digest Key = ConstraintStore::keyFor(Digest{9, 9}, false);
  std::vector<ConstraintStore::Entry> Batch;
  for (unsigned I = 0; I != 8; ++I)
    Batch.push_back({bits(8, {I}), bits(8, {I})});
  EXPECT_EQ(Store.publish(Key, 8, Batch), 3u);
  EXPECT_EQ(Store.fetch(Key, 8).size(), 3u);
  EXPECT_EQ(Store.publish(Key, 8, Batch), 0u) << "a full key admits nothing";
}

TEST(ConstraintStoreTest, SubsumesOrdersRefutationStrength) {
  using Entry = ConstraintStore::Entry;
  Entry Small = entry({1, 3}, {1});
  Entry Fat = entry({1, 2, 3}, {1, 2});
  Entry Disagrees = entry({1, 2, 3}, {2, 3});
  // Fat's value agrees with Small on Small's mask and carries more
  // constraints: every config Fat refutes, Small refutes too.
  EXPECT_TRUE(ConstraintStore::subsumes(Small, Fat));
  EXPECT_FALSE(ConstraintStore::subsumes(Fat, Small))
      << "a superset mask must never subsume its own core";
  EXPECT_FALSE(ConstraintStore::subsumes(Small, Disagrees))
      << "value disagreement on the core's mask breaks subsumption";
  EXPECT_TRUE(ConstraintStore::subsumes(Small, Small))
      << "subsumption must be reflexive";
}

TEST(ConstraintStoreTest, InsertTimeSubsumptionKeepsOnlyTheFrontier) {
  ConstraintStore Store;
  Digest Key = ConstraintStore::keyFor(Digest{11, 11}, false);

  // A fat ancestor, then a smaller core of it: the core evicts the
  // ancestor (reverse subsumption), and the drop is counted.
  size_t Dropped = 0;
  EXPECT_EQ(Store.publish(Key, 6, {entry({1, 2, 3}, {1, 2})}, &Dropped), 1u);
  EXPECT_EQ(Dropped, 0u);
  EXPECT_EQ(Store.publish(Key, 6, {entry({1, 3}, {1})}, &Dropped), 1u);
  EXPECT_EQ(Dropped, 1u) << "the smaller core must evict its ancestor";
  std::vector<ConstraintStore::Entry> Frontier = Store.fetch(Key, 6);
  ASSERT_EQ(Frontier.size(), 1u);
  EXPECT_EQ(Frontier[0].first, bits(6, {1, 3}));

  // Forward direction: an incoming entry dominated by the stored core
  // is dropped at insert, and also counted.
  Dropped = 0;
  EXPECT_EQ(Store.publish(Key, 6, {entry({1, 3, 5}, {1, 5})}, &Dropped), 0u);
  EXPECT_EQ(Dropped, 1u) << "a dominated incoming entry must be dropped";
  EXPECT_EQ(Store.fetch(Key, 6).size(), 1u);

  // An up-front UNSAT proof survives later publishes, and publishes
  // survive the proof: the two records are independent halves of one key.
  EXPECT_FALSE(Store.knownImpossible(Key));
  Store.markImpossible(Key, 6);
  EXPECT_TRUE(Store.knownImpossible(Key));
  EXPECT_EQ(Store.publish(Key, 6, {entry({0, 2}, {2})}), 1u);
  EXPECT_TRUE(Store.knownImpossible(Key));
  EXPECT_EQ(Store.fetch(Key, 6).size(), 2u);
}

// --- Invariance matrix ------------------------------------------------------

// Acceptance: for every registered backend (the memoizing decorator
// included) and shard count, a run seeded from a populated store
// returns the same verdict — and, wherever sequences are deterministic,
// the byte-identical command sequence — as a reuse-off run. Sharded
// searches probe the seed set and W before they claim, so the seeded
// sharded cells check that this prunes no completable order.
TEST(LearningInvarianceTest, FeasibleMatrixAcrossBackendRegistry) {
  Scenario Feas = diamondWithUpdates(9000, 4);
  std::vector<std::string> Backends = BackendFactory::instance().names();
  Backends.push_back("memo:incremental");
  for (const std::string &Backend : Backends) {
    // W and the store learn from counterexamples; a backend without them
    // (hsa) has nothing to seed.
    bool Learns = BackendFactory::instance()
                      .create(Backend, Feas)
                      ->providesCounterexamples();
    for (unsigned Shards : {1u, 4u}) {
      std::string Cell = Backend + " shards=" + std::to_string(Shards);
      RunResult Ref = runOnce(Feas, Backend, Shards, nullptr);
      auto Store = std::make_shared<ConstraintStore>();
      RunResult Warm = runOnce(Feas, Backend, Shards, Store);
      RunResult Seeded = runOnce(Feas, Backend, Shards, Store);

      EXPECT_EQ(Ref.Status, SynthStatus::Success) << Cell;
      EXPECT_EQ(Warm.Status, Ref.Status)
          << Cell << ": an empty store changed the verdict";
      EXPECT_EQ(Seeded.Status, Ref.Status)
          << Cell << ": a populated store changed the verdict";
      if (Learns) {
        EXPECT_GT(Seeded.Stats.ImportedConstraints, 0u)
            << Cell << ": the seeded run had nothing to import";
      }
      if (Shards == 1) {
        EXPECT_EQ(Warm.Rendered, Ref.Rendered) << Cell;
        EXPECT_EQ(Seeded.Rendered, Ref.Rendered)
            << Cell << ": seeding changed the sequential sequence";
      } else {
        expectValidSequence(Feas, Seeded.Commands);
      }
    }
  }
}

// Infeasibility proofs survive seeding at every shard count, and the
// empty command sequence makes the byte comparison exact everywhere.
TEST(LearningInvarianceTest, InfeasibleVerdictsSurviveSeeding) {
  Scenario Inf = doubleDiamond(9);
  for (const char *Backend : {"incremental", "batch"}) {
    for (unsigned Shards : {1u, 4u}) {
      RunResult Ref = runOnce(Inf, Backend, Shards, nullptr);
      auto Store = std::make_shared<ConstraintStore>();
      runOnce(Inf, Backend, Shards, Store);
      RunResult Seeded = runOnce(Inf, Backend, Shards, Store);
      EXPECT_EQ(Ref.Status, SynthStatus::Impossible) << Backend;
      EXPECT_EQ(Seeded.Status, Ref.Status) << Backend << " shards=" << Shards;
      EXPECT_EQ(Seeded.Rendered, Ref.Rendered);
    }
  }
}

// The store key includes the granularity: a rule-granularity search of
// the same scenario must import nothing from switch-granularity entries
// (their bitsets index a different op universe) and still succeed.
TEST(LearningInvarianceTest, GranularitiesNeverShareEntries) {
  Scenario Inf = doubleDiamond(9);
  auto Store = std::make_shared<ConstraintStore>();
  RunResult SwitchRun = runOnce(Inf, "incremental", 1, Store);
  ASSERT_EQ(SwitchRun.Status, SynthStatus::Impossible);
  ASSERT_GT(SwitchRun.Stats.ExportedConstraints, 0u);

  RunResult RuleRun =
      runOnce(Inf, "incremental", 1, Store,
              [](SynthOptions &O) { O.RuleGranularity = true; });
  EXPECT_EQ(RuleRun.Status, SynthStatus::Success)
      << "rule granularity must still solve the Fig. 8(h) instance";
  EXPECT_EQ(RuleRun.Stats.ImportedConstraints, 0u)
      << "switch-granularity entries leaked across the granularity key";
  expectValidSequence(Inf, RuleRun.Commands);
}

// --- Deterministic budgets never import -------------------------------------

// A budgeted run's outcome is a pure function of (job, budget); a
// populated store must not change one byte of it — the import gate — at
// any shard count, in both the budget-Abort and the completing regime.
TEST(LearningInvarianceTest, BudgetedRunsIgnoreThePopulatedStore) {
  Scenario Feas = diamondWithUpdates(9100, 4);
  for (uint64_t Unit : {uint64_t(2), uint64_t(100000)}) {
    auto Budget = [Unit](SynthOptions &O) { O.UnitCheckCalls = Unit; };
    for (unsigned Shards : {1u, 4u}) {
      RunResult Ref = runOnce(Feas, "incremental", Shards, nullptr, Budget);
      auto Store = std::make_shared<ConstraintStore>();
      // Populate with everything an unbudgeted run learns for this key.
      runOnce(Feas, "incremental", Shards, Store);
      RunResult Seeded =
          runOnce(Feas, "incremental", Shards, Store, Budget);
      EXPECT_EQ(Seeded.Status, Ref.Status)
          << "unit=" << Unit << " shards=" << Shards;
      EXPECT_EQ(Seeded.Rendered, Ref.Rendered)
          << "unit=" << Unit << " shards=" << Shards
          << ": a store import leaked into deterministic budget mode";
      EXPECT_EQ(Seeded.Stats.ImportedConstraints, 0u);
      EXPECT_EQ(Seeded.Stats.SeededPrunes, 0u);
    }
    // The tight budget must actually produce the Abort regime once.
    if (Unit == 2) {
      EXPECT_EQ(runOnce(Feas, "incremental", 1, nullptr, Budget).Status,
                SynthStatus::Aborted);
    }
  }
}

// Budgeted probes still EXPORT what they learned — the unit-local wrong
// sets are instance facts, and the unbudgeted runs that follow a probe
// sweep are exactly who they help.
TEST(LearningInvarianceTest, BudgetedRunsStillExport) {
  Scenario Inf = doubleDiamond(9);
  auto Store = std::make_shared<ConstraintStore>();
  RunResult Probe =
      runOnce(Inf, "incremental", 1, Store,
              [](SynthOptions &O) { O.UnitCheckCalls = 2; });
  // Every depth-one root refutes within its quota: a complete proof.
  EXPECT_EQ(Probe.Status, SynthStatus::Impossible);
  EXPECT_GT(Probe.Stats.ExportedConstraints, 0u)
      << "a budgeted run dropped its learned constraints";

  // And a follow-up run consumes them. The probe's Impossible verdict
  // also marked the key (a budget-mode Impossible is still a complete
  // proof — a truncated unit reports Aborted), so an unbudgeted,
  // untimed follow-up would be shed outright; the soft wall hint makes
  // this member non-sheddable and exercises the import path proper.
  RunResult Follow = runOnce(Inf, "incremental", 1, Store,
                             [](SynthOptions &O) {
                               O.EarlyTermination = false;
                               O.TimeoutSeconds = 3600.0;
                             });
  EXPECT_EQ(Follow.Status, SynthStatus::Impossible);
  EXPECT_GT(Follow.Stats.ImportedConstraints, 0u);

  // The sheddable shape of the same follow-up is answered from the
  // up-front proof: same verdict, no checker work at all.
  RunResult Shed = runOnce(Inf, "incremental", 1, Store,
                           [](SynthOptions &O) {
                             O.EarlyTermination = false;
                           });
  EXPECT_EQ(Shed.Status, SynthStatus::Impossible);
  EXPECT_EQ(Shed.Stats.ShedMembers, 1u);
  EXPECT_EQ(Shed.Stats.CheckCalls, 0u);
}

// --- Acceleration -----------------------------------------------------------

// The headline effect: after one probe refutes every depth-one prefix of
// a Fig. 8(h) instance, a digest-*different* probe (another backend) of
// the digest-identical scenario re-proves Impossible from the store
// alone — one bind, zero rechecks, every root served by a seeded prune.
TEST(LearningAccelerationTest, SecondProbeSkipsRefutedPrefixes) {
  Scenario Inf = doubleDiamond(9);
  auto NoEt = [](SynthOptions &O) { O.EarlyTermination = false; };
  // Soft wall hint (never fires here): makes the follow-up members
  // non-sheddable, so the test exercises the seeded-prune path rather
  // than the up-front shed P1's Impossible mark would trigger.
  auto NoEtTimed = [](SynthOptions &O) {
    O.EarlyTermination = false;
    O.TimeoutSeconds = 3600.0;
  };
  auto Store = std::make_shared<ConstraintStore>();

  RunResult P1 = runOnce(Inf, "incremental", 1, Store, NoEt);
  ASSERT_EQ(P1.Status, SynthStatus::Impossible);
  ASSERT_GT(P1.Stats.ExportedConstraints, 0u);
  ASSERT_GT(P1.Stats.CheckCalls, 1u);

  RunResult P2 = runOnce(Inf, "batch", 1, Store, NoEtTimed);
  EXPECT_EQ(P2.Status, SynthStatus::Impossible);
  EXPECT_GT(P2.Stats.ImportedConstraints, 0u);
  EXPECT_EQ(P2.Stats.CheckCalls, 1u)
      << "the seeded probe should spend its bind and nothing else";
  EXPECT_GT(P2.Stats.SeededPrunes, 0u);

  // Reuse-off control: the same second probe without the store pays the
  // full re-derivation.
  RunResult Control = runOnce(Inf, "batch", 1, nullptr, NoEt);
  EXPECT_EQ(Control.Status, SynthStatus::Impossible);
  EXPECT_GT(Control.Stats.CheckCalls, P2.Stats.CheckCalls);

  // The untimed shape doesn't even bind: P1's proof sheds it.
  RunResult P3 = runOnce(Inf, "batch", 1, Store, NoEt);
  EXPECT_EQ(P3.Status, SynthStatus::Impossible);
  EXPECT_EQ(P3.Stats.ShedMembers, 1u);
  EXPECT_EQ(P3.Stats.CheckCalls, 0u);
}

// With the SAT layer on, the imported constraints can prove the instance
// impossible before a single work unit runs (the up-front UNSAT check);
// when the transitivity relaxation leaves them satisfiable, the seeded
// prunes still hold the query count to the bind. Either way: one check.
TEST(LearningAccelerationTest, SeededSatLayerShortCircuits) {
  Scenario Inf = doubleDiamond(9);
  auto Store = std::make_shared<ConstraintStore>();
  RunResult P1 = runOnce(Inf, "incremental", 1, Store);
  ASSERT_EQ(P1.Status, SynthStatus::Impossible);

  // Timed (non-sheddable; the hint never fires) so the run actually
  // consults the seeded SAT layer instead of being shed up front.
  RunResult P2 = runOnce(Inf, "batch", 1, Store,
                         [](SynthOptions &O) { O.TimeoutSeconds = 3600.0; });
  EXPECT_EQ(P2.Status, SynthStatus::Impossible);
  EXPECT_EQ(P2.Stats.CheckCalls, 1u);
  EXPECT_TRUE(P2.Stats.EarlyTerminated || P2.Stats.SeededPrunes > 0)
      << "neither the SAT short-circuit nor the seeded prunes engaged";
}

// --- Engine wiring ----------------------------------------------------------

TEST(LearningEngineTest, KnobControlsTheStoreLifetime) {
  EngineOptions Off;
  Off.SharedLearning = false;
  SynthEngine Disabled(Off);
  EXPECT_EQ(Disabled.constraintStore(), nullptr);

  SynthEngine Defaulted{EngineOptions{}};
  ASSERT_NE(Defaulted.constraintStore(), nullptr);

  EngineOptions Pooled;
  Pooled.Learning = ConstraintStore::processStore();
  SynthEngine Shared(Pooled);
  EXPECT_EQ(Shared.constraintStore(), ConstraintStore::processStore());
}

// An autotuning-style probe stream through one engine: every scenario is
// probed under digest-distinct configurations (backend x SAT layer), so
// the result cache could serve none of them; only the store links the
// probes. Learning on must leave every verdict and rendered sequence as
// it was with learning off, and must issue strictly fewer checker
// queries. One worker keeps the import chain deterministic.
TEST(LearningEngineTest, ProbeStreamSavesQueriesWithoutChangingResults) {
  std::vector<SynthJob> Jobs;
  auto AddProbe = [&](const Scenario &S, const char *Backend, bool Et) {
    SynthJob Job;
    Job.S = S;
    Job.Portfolio.emplace_back();
    Job.Portfolio[0].Backend = Backend;
    Job.Portfolio[0].Opts.EarlyTermination = Et;
    Jobs.push_back(std::move(Job));
  };
  for (uint64_t Seed : {9, 31, 47}) {
    Scenario Inf = doubleDiamond(Seed);
    for (const char *Backend : {"incremental", "batch"})
      for (bool Et : {false, true})
        AddProbe(Inf, Backend, Et);
  }
  // A feasible family rides along: reuse must hold where a sequence has
  // to be found too.
  for (uint64_t Seed : {3300, 3400}) {
    Scenario Feas = diamondWithUpdates(Seed, 3);
    for (const char *Backend : {"incremental", "batch"})
      AddProbe(Feas, Backend, true);
  }

  std::vector<std::pair<SynthStatus, std::string>> Results[2];
  uint64_t Queries[2] = {0, 0};
  for (bool Learning : {false, true}) {
    EngineOptions EO;
    EO.NumWorkers = 1;
    EO.CacheResults = false;
    EO.SharedLearning = Learning;
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run(Jobs);
    for (size_t I = 0; I != Rep.Reports.size(); ++I)
      Results[Learning].push_back(
          {Rep.Reports[I].Result.Status,
           commandSeqToString(Jobs[I].S.Topo, Rep.Reports[I].Result.Commands)});
    Queries[Learning] = Rep.TotalQueries;
  }
  EXPECT_EQ(Results[1], Results[0]) << "learning changed a verdict or sequence";
  EXPECT_LT(Queries[1], Queries[0]) << "learning saved no checker query";
}

// --- setStopToken mid-flight (regression) -----------------------------------

// setStopToken used to be an unguarded write with a "call before any
// concurrent use" contract — which the seed-import path in the sharded
// search quietly violated by installing the per-unit token between
// search phases, racing the locked readers inside addCexConstraint()
// and impossible(). It now serializes on the learner mutex. The first
// half pins the semantics (a fired token installed mid-flight stops
// both learning and solving); the second half hammers installs against
// concurrent learners so the TSan lane would catch the old race.
TEST(EarlyTerminationStopTest, MidFlightInstallIsHonored) {
  EarlyTermination ET;
  ET.addCexConstraint({0}, {1}); // 1 before 0.
  EXPECT_FALSE(ET.impossible());

  StopSource Src;
  Src.requestStop();
  ET.setStopToken(Src.token());
  ET.addCexConstraint({1}, {0}); // Dropped: cancelled searches learn nothing.
  EXPECT_FALSE(ET.impossible()); // Solve skipped, cached verdict returned.

  ET.setStopToken(StopToken()); // An empty token never stops.
  ET.addCexConstraint({1}, {0}); // 0 before 1: now circular.
  EXPECT_TRUE(ET.impossible());
}

/// A stop that lands inside the solve / cycle-check loop ends it with
/// the cached verdict of the last completed check and leaves the check
/// pending, so installing an empty token and asking again reaches the
/// true verdict. The instance is a chain a_0 < ... < a_K-1 plus "a_K-1
/// precedes one of a_0 .. a_K-2": impossible, but each model orients one
/// disjunct against the chain, so the proof takes about K rounds of
/// solve and cycle clause. The stop fires from another thread part-way
/// through; an attempt whose stop lands before the first round or after
/// the last is retried with a new delay.
TEST(EarlyTerminationStopTest, StopInTheoryLoopKeepsCachedVerdict) {
  constexpr unsigned K = 1000;
  auto AddChain = [](EarlyTermination &ET) {
    for (unsigned I = 0; I + 1 != K; ++I)
      ET.addCexConstraint({I + 1}, {I});
  };
  auto AddClosing = [](EarlyTermination &ET) {
    std::vector<unsigned> Earlier;
    for (unsigned I = 0; I + 1 != K; ++I)
      Earlier.push_back(I);
    ET.addCexConstraint(Earlier, {K - 1});
  };
  using Clock = std::chrono::steady_clock;

  // Calibrate the delay on an unstopped twin.
  EarlyTermination Twin;
  AddChain(Twin);
  AddClosing(Twin);
  Clock::time_point T0 = Clock::now();
  ASSERT_TRUE(Twin.impossible());
  Clock::duration Delay = (Clock::now() - T0) / 2;

  bool StoppedInLoop = false;
  for (int Attempt = 0; Attempt != 30 && !StoppedInLoop; ++Attempt) {
    EarlyTermination ET;
    AddChain(ET);
    ASSERT_FALSE(ET.impossible()); // The cached verdict: possible.
    AddClosing(ET);
    StopSource Src;
    ET.setStopToken(Src.token());
    std::atomic<bool> Started{false};
    std::thread Stopper([&] {
      while (!Started.load())
        std::this_thread::yield();
      std::this_thread::sleep_for(Delay);
      Src.requestStop();
    });
    Started.store(true);
    bool Verdict = ET.impossible();
    Stopper.join();
    if (Verdict) { // The loop finished first: stop sooner.
      Delay /= 2;
      continue;
    }
    if (ET.numClauses() == K) { // Stopped before any cycle clause.
      Delay *= 2;
      continue;
    }
    StoppedInLoop = true;
    EXPECT_FALSE(ET.impossible()) << "a fired token must not resume";
    ET.setStopToken({});
    EXPECT_TRUE(ET.impossible()) << "the stopped check must stay pending";
  }
  EXPECT_TRUE(StoppedInLoop) << "no attempt stopped inside the loop";
}

TEST(EarlyTerminationStopTest, ConcurrentInstallAndLearnIsRaceFree) {
  EarlyTermination ET;
  std::atomic<bool> Done{false};
  std::thread Installer([&] {
    StopSource Src; // Never fired: learners must keep making progress.
    for (int I = 0; I < 1000; ++I)
      ET.setStopToken(I % 2 ? Src.token() : StopToken());
    Done.store(true);
  });
  std::vector<std::thread> Learners;
  for (unsigned T = 0; T < 4; ++T)
    Learners.emplace_back([&ET, &Done, T] {
      // Disjoint operation ranges per thread: the constraint set stays
      // satisfiable, so every impossible() exercises a real solve path.
      unsigned Base = T * 8;
      while (!Done.load()) {
        ET.addCexConstraint({Base}, {Base + 1});
        EXPECT_FALSE(ET.impossible());
      }
    });
  Installer.join();
  for (auto &T : Learners)
    T.join();
}
