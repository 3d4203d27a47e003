//===- tests/conflict_test.cpp - conflict-driven search tests --*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the conflict-driven learning layer (synth/OrderUpdate.cpp):
/// clause minimization, activity-based candidate ordering, deterministic
/// Luby restarts, and the learning-aware portfolio shed. The contracts:
///
///  - the knobs never change a verdict, at any backend, shard count, or
///    budget — they reorder and shrink the search, nothing else;
///  - ClauseMinimization additionally never changes a *sequence*:
///    minimization is sound resolution over already-refuted entries, so
///    the refuted candidate set, conflict order, activity bumps, and
///    restart points are identical with it on or off, and sequential
///    runs compare byte for byte;
///  - minimized clauses still refute — a store seeded by a minimizing
///    run reproduces the reference verdict and (sequentially) the
///    byte-identical sequence, and accelerates an Impossible re-proof;
///  - restarts are deterministic: two sequential runs of a deep
///    exhaustive proof agree on every conflict counter and restart
///    count, not just the verdict;
///  - the shed consumes up-front UNSAT proofs only for members that
///    opted into conflict-driven learning; knob-off members run the
///    full standalone search (and still publish what they learn);
///  - ConstraintStore insert-time subsumption keeps only the frontier
///    of strongest refutations and counts both drop directions.
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "mc/BackendFactory.h"
#include "net/Config.h"
#include "sat/Solver.h"
#include "support/ConstraintStore.h"
#include "synth/OrderUpdate.h"
#include "topo/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
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
/// cache off (the search layer, not replay, is under test). \p Store
/// null means SharedLearning off. \p Tweak adjusts the member's
/// SynthOptions (the conflict knobs, budgets, shards).
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

/// Replay-checks a successful sequence (the validity notion the knobs
/// that may legally reorder the search are held to).
void expectValidSequence(const Scenario &S, const CommandSeq &Cmds) {
  FormulaFactory FF;
  Formula Phi = S.buildProperty(FF);
  EXPECT_TRUE(
      allIntermediateConfigsHold(S.Topo, S.Initial, S.classes(), Phi, Cmds))
      << "a conflict knob produced an unsafe sequence";
}

Bitset bits(size_t N, std::initializer_list<unsigned> Set) {
  Bitset B(N);
  for (unsigned I : Set)
    B.set(I);
  return B;
}

/// The three conflict knobs as a test vector.
struct Knobs {
  const char *Name;
  bool Min, Act, Rst;
};

void applyKnobs(SynthOptions &O, const Knobs &K) {
  O.ClauseMinimization = K.Min;
  O.ActivityOrdering = K.Act;
  O.Restarts = K.Rst;
}

constexpr Knobs SingleOff[] = {
    {"min-off", false, true, true},
    {"act-off", true, false, true},
    {"rst-off", true, true, false},
};

} // namespace

// --- The restart cadence ----------------------------------------------------

// The DFS restarts on the same Luby schedule as the SAT solver; pin the
// shared sequence (0-based, as sat::luby documents).
TEST(ConflictLubyTest, SequencePin) {
  const uint64_t Expect[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (size_t I = 0; I != std::size(Expect); ++I)
    EXPECT_EQ(sat::luby(I), Expect[I]) << "index " << I;
}

// --- ConstraintStore subsumption --------------------------------------------

TEST(ConflictStoreTest, SubsumesOrdersRefutationStrength) {
  using Entry = ConstraintStore::Entry;
  Entry Small{bits(6, {1, 3}), bits(6, {1})};
  Entry Fat{bits(6, {1, 2, 3}), bits(6, {1, 2})};
  Entry Disagrees{bits(6, {1, 2, 3}), bits(6, {2, 3})};
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

TEST(ConflictStoreTest, InsertTimeSubsumptionKeepsOnlyTheFrontier) {
  ConstraintStore Store;
  Digest Key = ConstraintStore::keyFor(Digest{11, 11}, false);

  // A fat ancestor, then the minimized core carved from it: the core
  // evicts the ancestor (reverse subsumption), and the drop is counted.
  size_t Dropped = 0;
  EXPECT_EQ(Store.publish(Key, 6, {{bits(6, {1, 2, 3}), bits(6, {1, 2})}},
                          &Dropped),
            1u);
  EXPECT_EQ(Dropped, 0u);
  EXPECT_EQ(Store.publish(Key, 6, {{bits(6, {1, 3}), bits(6, {1})}},
                          &Dropped),
            1u);
  EXPECT_EQ(Dropped, 1u) << "the minimized core must evict its ancestor";
  std::vector<ConstraintStore::Entry> Frontier = Store.fetch(Key, 6);
  ASSERT_EQ(Frontier.size(), 1u);
  EXPECT_EQ(Frontier[0].first, bits(6, {1, 3}));

  // Forward direction: an incoming entry dominated by the stored core
  // is dropped at insert, and also counted.
  Dropped = 0;
  EXPECT_EQ(Store.publish(Key, 6, {{bits(6, {1, 3, 5}), bits(6, {1, 5})}},
                          &Dropped),
            0u);
  EXPECT_EQ(Dropped, 1u) << "a dominated incoming entry must be dropped";
  EXPECT_EQ(Store.fetch(Key, 6).size(), 1u);

  // An up-front UNSAT proof survives later publishes, and publishes
  // survive the proof: the two records are independent halves of one key.
  EXPECT_FALSE(Store.knownImpossible(Key));
  Store.markImpossible(Key, 6);
  EXPECT_TRUE(Store.knownImpossible(Key));
  EXPECT_EQ(Store.publish(Key, 6, {{bits(6, {0, 2}), bits(6, {2})}}), 1u);
  EXPECT_TRUE(Store.knownImpossible(Key));
  EXPECT_EQ(Store.fetch(Key, 6).size(), 2u);
}

// --- Invariance matrix ------------------------------------------------------

// For every registered backend (the memoizing decorator included) and
// shard count, switching any one conflict knob off reproduces the
// all-on verdict; ClauseMinimization off additionally reproduces the
// byte-identical sequential sequence (minimization never changes which
// candidates get refuted, only how the refutations generalize).
TEST(ConflictInvarianceTest, FeasibleKnobMatrixAcrossBackendRegistry) {
  Scenario Feas = diamondWithUpdates(9000, 4);
  std::vector<std::string> Backends = BackendFactory::instance().names();
  Backends.push_back("memo:incremental");
  for (const std::string &Backend : Backends) {
    for (unsigned Shards : {1u, 4u}) {
      RunResult Ref = runOnce(Feas, Backend, Shards, nullptr);
      EXPECT_EQ(Ref.Status, SynthStatus::Success) << Backend;
      for (const Knobs &K : SingleOff) {
        RunResult Off = runOnce(Feas, Backend, Shards, nullptr,
                                [&K](SynthOptions &O) { applyKnobs(O, K); });
        EXPECT_EQ(Off.Status, Ref.Status)
            << Backend << " shards=" << Shards << " " << K.Name
            << ": a conflict knob changed the verdict";
        if (!K.Min && Shards == 1) {
          EXPECT_EQ(Off.Rendered, Ref.Rendered)
              << Backend << ": minimization moved the sequential sequence";
        } else if (Off.Status == SynthStatus::Success) {
          expectValidSequence(Feas, Off.Commands);
        }
      }
    }
  }
}

// Infeasibility is knob-independent at every setting, and the empty
// sequence makes every comparison byte-exact.
TEST(ConflictInvarianceTest, InfeasibleVerdictsSurviveEveryKnob) {
  Scenario Inf = doubleDiamond(9);
  const Knobs AllOff{"all-off", false, false, false};
  for (const char *Backend : {"incremental", "batch"}) {
    for (unsigned Shards : {1u, 4u}) {
      RunResult Ref = runOnce(Inf, Backend, Shards, nullptr);
      EXPECT_EQ(Ref.Status, SynthStatus::Impossible) << Backend;
      for (const Knobs *K : {&SingleOff[0], &SingleOff[1], &SingleOff[2],
                             &AllOff}) {
        RunResult Off = runOnce(Inf, Backend, Shards, nullptr,
                                [K](SynthOptions &O) { applyKnobs(O, *K); });
        EXPECT_EQ(Off.Status, Ref.Status)
            << Backend << " shards=" << Shards << " " << K->Name;
        EXPECT_EQ(Off.Rendered, Ref.Rendered);
      }
    }
  }
}

// Budget mode: at a fixed knob setting the outcome is a pure function
// of (job, budget) — byte-identical across shard counts, restart
// charges included — and a completing budget cell agrees with the
// unlimited verdict. Knob-off budget cells form their own purity group
// (the knobs are semantic, so they are never compared byte-for-byte to
// the knob-on budget reference — the contract the fuzzer's cell matrix
// holds at scale).
TEST(ConflictInvarianceTest, BudgetPurityPerKnobSettingAcrossShards) {
  Scenario Feas = diamondWithUpdates(9000, 4);
  RunResult Unlimited = runOnce(Feas, "incremental", 1, nullptr);
  ASSERT_EQ(Unlimited.Status, SynthStatus::Success);
  const Knobs Settings[] = {{"all-on", true, true, true},
                            {"all-off", false, false, false}};
  for (const Knobs &K : Settings) {
    for (uint64_t Unit : {uint64_t(2), uint64_t(100000)}) {
      auto Tweak = [&K, Unit](SynthOptions &O) {
        applyKnobs(O, K);
        O.UnitCheckCalls = Unit;
      };
      RunResult Seq = runOnce(Feas, "incremental", 1, nullptr, Tweak);
      RunResult Sharded = runOnce(Feas, "incremental", 4, nullptr, Tweak);
      EXPECT_EQ(Sharded.Status, Seq.Status)
          << K.Name << " unit=" << Unit
          << ": a budgeted verdict depended on the shard count";
      EXPECT_EQ(Sharded.Rendered, Seq.Rendered) << K.Name << " unit=" << Unit;
      EXPECT_EQ(Sharded.Stats.BudgetSpent, Seq.Stats.BudgetSpent)
          << K.Name << " unit=" << Unit;
      if (Seq.Status != SynthStatus::Aborted) {
        EXPECT_EQ(Seq.Status, Unlimited.Status)
            << K.Name << " unit=" << Unit
            << ": a completing budget cell drifted from the unlimited verdict";
      }
    }
  }
}

// --- Restart determinism ----------------------------------------------------

// A deep exhaustive proof crosses the Luby base: restarts actually fire,
// clause minimization actually shrinks masks, and two sequential runs
// agree on every conflict counter — the restart schedule is a pure
// function of the search, not of timing.
TEST(ConflictRestartTest, RestartsFireAndReplayDeterministically) {
  Scenario Deep = deepImpossible(1);
  auto NoEt = [](SynthOptions &O) { O.EarlyTermination = false; };
  RunResult A = runOnce(Deep, "incremental", 1, nullptr, NoEt);
  RunResult B = runOnce(Deep, "incremental", 1, nullptr, NoEt);
  ASSERT_EQ(A.Status, SynthStatus::Impossible);
  EXPECT_GT(A.Stats.Restarts, 0u) << "the deep proof never restarted — the "
                                     "instance no longer crosses the base";
  EXPECT_GT(A.Stats.ClausesMinimized, 0u);
  EXPECT_GT(A.Stats.LiteralsDropped, 0u);
  EXPECT_EQ(B.Status, A.Status);
  EXPECT_EQ(B.Rendered, A.Rendered);
  EXPECT_EQ(B.Stats.CheckCalls, A.Stats.CheckCalls);
  EXPECT_EQ(B.Stats.Restarts, A.Stats.Restarts);
  EXPECT_EQ(B.Stats.ClausesMinimized, A.Stats.ClausesMinimized);
  EXPECT_EQ(B.Stats.LiteralsDropped, A.Stats.LiteralsDropped);

  // Restarts off: same verdict, zero restarts charged or counted.
  RunResult Off = runOnce(Deep, "incremental", 1, nullptr,
                          [&](SynthOptions &O) {
                            NoEt(O);
                            O.Restarts = false;
                          });
  EXPECT_EQ(Off.Status, A.Status);
  EXPECT_EQ(Off.Stats.Restarts, 0u);
}

// --- Minimized clauses still refute -----------------------------------------

// Soundness end to end: a store populated by a minimizing run seeds a
// later run without changing one byte of a feasible sequential result
// (an over-generalized mask would prune a correct order), and a deep
// Impossible re-proof from minimized clauses is both correct and
// cheaper than the original derivation.
TEST(ConflictSoundnessTest, MinimizedClausesStillRefute) {
  Scenario Feas = diamondWithUpdates(9000, 4);
  RunResult Ref = runOnce(Feas, "incremental", 1, nullptr);
  auto Store = std::make_shared<ConstraintStore>();
  runOnce(Feas, "incremental", 1, Store); // Populates (minimizing).
  RunResult Seeded = runOnce(Feas, "incremental", 1, Store);
  EXPECT_EQ(Seeded.Status, Ref.Status);
  EXPECT_EQ(Seeded.Rendered, Ref.Rendered)
      << "seeding with minimized clauses changed the sequential sequence";

  Scenario Deep = deepImpossible(1);
  auto DeepStore = std::make_shared<ConstraintStore>();
  auto NoEt = [](SynthOptions &O) { O.EarlyTermination = false; };
  RunResult P1 = runOnce(Deep, "incremental", 1, DeepStore, NoEt);
  ASSERT_EQ(P1.Status, SynthStatus::Impossible);
  ASSERT_GT(P1.Stats.ClausesMinimized, 0u);
  ASSERT_GT(P1.Stats.ExportedConstraints, 0u);
  // Timed: the soft wall hint (never firing) makes the member
  // non-sheddable, so this exercises the seeded search rather than the
  // up-front shed P1's proof would trigger.
  RunResult P2 = runOnce(Deep, "incremental", 1, DeepStore,
                         [&](SynthOptions &O) {
                           NoEt(O);
                           O.TimeoutSeconds = 3600.0;
                         });
  EXPECT_EQ(P2.Status, SynthStatus::Impossible)
      << "minimized clauses failed to re-prove the instance";
  EXPECT_GT(P2.Stats.ImportedConstraints, 0u);
  EXPECT_LT(P2.Stats.CheckCalls, P1.Stats.CheckCalls)
      << "the seeded re-proof should be cheaper than the derivation";
}

// --- Learning-aware shed ----------------------------------------------------

// The shed consumes up-front UNSAT proofs only for members that opted
// into conflict-driven learning: a ClauseMinimization-off member runs
// the full standalone search (that is what the knob comparison
// measures) — but its own proof still publishes, so later opted-in
// members shed on it.
TEST(ConflictShedTest, KnobOffMembersRunFullButStillPublish) {
  Scenario Inf = doubleDiamond(9);

  // Proof published by a default (opted-in) run.
  auto Store = std::make_shared<ConstraintStore>();
  RunResult First = runOnce(Inf, "incremental", 1, Store);
  ASSERT_EQ(First.Status, SynthStatus::Impossible);
  ASSERT_EQ(First.Stats.ShedMembers, 0u);

  RunResult Shed = runOnce(Inf, "incremental", 1, Store);
  EXPECT_EQ(Shed.Status, SynthStatus::Impossible);
  EXPECT_EQ(Shed.Stats.ShedMembers, 1u);
  EXPECT_EQ(Shed.Stats.CheckCalls, 0u);

  RunResult MinOff =
      runOnce(Inf, "incremental", 1, Store,
              [](SynthOptions &O) { O.ClauseMinimization = false; });
  EXPECT_EQ(MinOff.Status, SynthStatus::Impossible)
      << "the shed gate must never change a verdict";
  EXPECT_EQ(MinOff.Stats.ShedMembers, 0u)
      << "a knob-off member consumed a proof it opted out of";
  EXPECT_GT(MinOff.Stats.CheckCalls, 0u)
      << "a knob-off member must pay for its own search";

  // The reverse direction: a knob-off run's proof feeds later opted-in
  // members.
  auto Fresh = std::make_shared<ConstraintStore>();
  RunResult OffFirst =
      runOnce(Inf, "incremental", 1, Fresh,
              [](SynthOptions &O) { O.ClauseMinimization = false; });
  ASSERT_EQ(OffFirst.Status, SynthStatus::Impossible);
  EXPECT_EQ(OffFirst.Stats.ShedMembers, 0u);
  EXPECT_GT(OffFirst.Stats.ExportedConstraints, 0u)
      << "knob-off members must still publish what they learned";
  RunResult OnSecond = runOnce(Inf, "incremental", 1, Fresh);
  EXPECT_EQ(OnSecond.Status, SynthStatus::Impossible);
  EXPECT_EQ(OnSecond.Stats.ShedMembers, 1u)
      << "an opted-in member should shed on the knob-off member's proof";
  EXPECT_EQ(OnSecond.Stats.CheckCalls, 0u);
}

