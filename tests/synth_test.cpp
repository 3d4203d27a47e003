//===- tests/synth_test.cpp - ORDERUPDATE synthesis tests ------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "mc/LabelingChecker.h"
#include "synth/Baselines.h"
#include "synth/EarlyTermination.h"
#include "synth/OrderUpdate.h"
#include "synth/WaitRemoval.h"
#include "topo/Fig1.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace netupd;
using namespace netupd::testutil;

namespace {

/// Indices of the update commands touching \p Sw.
std::vector<size_t> updatePositions(const CommandSeq &Seq, SwitchId Sw) {
  std::vector<size_t> Out;
  for (size_t I = 0; I != Seq.size(); ++I)
    if (Seq[I].K == Command::Kind::Update && Seq[I].Sw == Sw)
      Out.push_back(I);
  return Out;
}

} // namespace

/// §2's headline example: shifting red -> green must update C2 before A1.
TEST(OrderUpdateTest, RedToGreenOrdersC2BeforeA1) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, N.srcPort(), N.dstPort());

  LabelingChecker Checker;
  SynthResult R = synthesizeUpdate(N.Topo, N.Red, N.Green, {N.FlowH1H3},
                                   Phi, Checker);
  ASSERT_EQ(R.Status, SynthStatus::Success);

  std::vector<size_t> C2Pos = updatePositions(R.Commands, N.C2);
  std::vector<size_t> A1Pos = updatePositions(R.Commands, N.A[0]);
  ASSERT_EQ(C2Pos.size(), 1u);
  ASSERT_EQ(A1Pos.size(), 1u);
  EXPECT_LT(C2Pos[0], A1Pos[0]) << commandSeqToString(N.Topo, R.Commands);

  // Reaches the final configuration.
  Config End = N.Red;
  applyCommands(End, R.Commands);
  EXPECT_EQ(End, N.Green);

  // Every intermediate configuration satisfies the property (Lemma 2).
  EXPECT_TRUE(allIntermediateConfigsHold(N.Topo, N.Red, {N.FlowH1H3}, Phi,
                                         R.Commands));
}

/// §2's second example: red -> blue with connectivity and an A3-or-A4
/// waypoint. The paper's tool produces A2, A4, T1, wait, C1.
TEST(OrderUpdateTest, RedToBlueWithEitherWaypoint) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Phi = eitherWaypointProperty(FF, N.srcPort(), N.A[2], N.A[3],
                                       N.dstPort());

  LabelingChecker Checker;
  SynthResult R = synthesizeUpdate(N.Topo, N.Red, N.Blue, {N.FlowH1H3},
                                   Phi, Checker);
  ASSERT_EQ(R.Status, SynthStatus::Success);

  Config End = N.Red;
  applyCommands(End, R.Commands);
  EXPECT_EQ(End, N.Blue);
  EXPECT_TRUE(allIntermediateConfigsHold(N.Topo, N.Red, {N.FlowH1H3}, Phi,
                                         R.Commands));

  // T1 (the divergence point) must be updated before C1: once T1 sends
  // packets through A2, C1 must still point at A3 until everything else
  // is ready... the synthesizer figures out a correct order; we verify
  // the paper's key structural fact: A2 and A4 precede T1 and C1.
  size_t T1 = updatePositions(R.Commands, N.T[0]).at(0);
  size_t C1 = updatePositions(R.Commands, N.C1).at(0);
  size_t A2 = updatePositions(R.Commands, N.A[1]).at(0);
  size_t A4 = updatePositions(R.Commands, N.A[3]).at(0);
  EXPECT_LT(A2, T1);
  EXPECT_LT(A4, C1);
}

TEST(OrderUpdateTest, EmptyDiffSucceedsTrivially) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, N.srcPort(), N.dstPort());
  LabelingChecker Checker;
  SynthResult R =
      synthesizeUpdate(N.Topo, N.Red, N.Red, {N.FlowH1H3}, Phi, Checker);
  EXPECT_EQ(R.Status, SynthStatus::Success);
  EXPECT_TRUE(R.Commands.empty());
}

TEST(OrderUpdateTest, InitialViolationDetected) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  // Demand waypointing through C2, which the red path never visits.
  Formula Phi = waypointProperty(FF, N.srcPort(), Prop::onSwitch(N.C2),
                                 N.dstPort());
  LabelingChecker Checker;
  SynthResult R = synthesizeUpdate(N.Topo, N.Red, N.Green, {N.FlowH1H3},
                                   Phi, Checker);
  EXPECT_EQ(R.Status, SynthStatus::InitialViolation);
}

namespace {

struct SynthScenarioParam {
  uint64_t Seed;
  PropertyKind Kind;
  bool RuleGranularity;
};

class SynthScenarioTest
    : public ::testing::TestWithParam<SynthScenarioParam> {};

} // namespace

/// Soundness property test (Theorem 1): on random diamonds, synthesis
/// succeeds and every intermediate configuration satisfies the property.
TEST_P(SynthScenarioTest, SynthesizedSequenceIsSound) {
  SynthScenarioParam P = GetParam();
  Rng R(P.Seed);
  Topology Base = buildSmallWorld(18, 4, 0.2, R);
  std::optional<Scenario> S = makeDiamondScenario(Base, R, P.Kind);
  ASSERT_TRUE(S.has_value());

  FormulaFactory FF;
  LabelingChecker Checker;
  SynthOptions Opts;
  Opts.RuleGranularity = P.RuleGranularity;
  SynthResult Res = synthesizeUpdate(*S, FF, Checker, Opts);
  ASSERT_EQ(Res.Status, SynthStatus::Success);

  Formula Phi = S->buildProperty(FF);
  EXPECT_TRUE(allIntermediateConfigsHold(S->Topo, S->Initial, S->classes(),
                                         Phi, Res.Commands));

  // The final configuration is reached up to rule order.
  Config End = S->Initial;
  applyCommands(End, Res.Commands);
  EXPECT_TRUE(diffSwitches(End, S->Final).empty() ||
              [&] {
                // Rule-granularity replay may order rules differently;
                // compare semantically by checking table outputs on the
                // scenario classes.
                for (SwitchId Sw : diffSwitches(End, S->Final))
                  for (const TrafficClass &C : S->classes())
                    for (PortId Pt : S->Topo.switchPorts(Sw))
                      if (End.table(Sw).apply(C.Hdr, Pt) !=
                          S->Final.table(Sw).apply(C.Hdr, Pt))
                        return false;
                return true;
              }());
}

INSTANTIATE_TEST_SUITE_P(
    Random, SynthScenarioTest,
    ::testing::Values(
        SynthScenarioParam{201, PropertyKind::Reachability, false},
        SynthScenarioParam{202, PropertyKind::Waypoint, false},
        SynthScenarioParam{203, PropertyKind::ServiceChain, false},
        SynthScenarioParam{204, PropertyKind::Reachability, true},
        SynthScenarioParam{205, PropertyKind::Waypoint, true},
        SynthScenarioParam{206, PropertyKind::Reachability, false},
        SynthScenarioParam{207, PropertyKind::ServiceChain, false},
        SynthScenarioParam{208, PropertyKind::ServiceChain, true}));

/// Completeness property test (Theorem 2): on small instances, the
/// synthesizer finds a sequence exactly when brute-force enumeration over
/// all update permutations finds one.
TEST(OrderUpdateTest, CompletenessAgainstBruteForce) {
  Rng R(303);
  unsigned Feasible = 0, Infeasible = 0;
  for (int Round = 0; Round != 12; ++Round) {
    RandomNet Net = randomNet(R, 5);
    Config Ci = randomConfig(Net, R, 0.3);
    Config Cf = randomConfig(Net, R, 0.3);
    FormulaFactory FF;
    Formula Phi = randomFormula(FF, R, 2, Net.Topo.numSwitches(),
                                Net.Topo.numPorts());

    // Brute force: all permutations of the diff switches, checking every
    // prefix configuration with the naive checker.
    std::vector<SwitchId> Diff = diffSwitches(Ci, Cf);
    if (Diff.size() > 5)
      continue;
    auto ConfigOk = [&](const Config &C) {
      KripkeStructure K(Net.Topo, C, Net.Classes);
      NaiveTraceChecker Checker;
      return Checker.bind(K, Phi).Holds;
    };
    bool Expected = false;
    if (ConfigOk(Ci)) {
      std::vector<SwitchId> Perm = Diff;
      std::sort(Perm.begin(), Perm.end());
      do {
        Config Cur = Ci;
        bool AllOk = true;
        for (SwitchId Sw : Perm) {
          Cur.setTable(Sw, Cf.table(Sw));
          if (!ConfigOk(Cur)) {
            AllOk = false;
            break;
          }
        }
        if (AllOk) {
          Expected = true;
          break;
        }
      } while (std::next_permutation(Perm.begin(), Perm.end()));
    }

    LabelingChecker Checker;
    SynthResult Res = synthesizeUpdate(Net.Topo, Ci, Cf, Net.Classes, Phi,
                                       Checker);
    if (Expected) {
      EXPECT_EQ(Res.Status, SynthStatus::Success) << printFormula(Phi);
      ++Feasible;
    } else {
      EXPECT_TRUE(Res.Status == SynthStatus::Impossible ||
                  Res.Status == SynthStatus::InitialViolation)
          << printFormula(Phi);
      ++Infeasible;
    }
  }
  // The random mix must exercise both outcomes to be meaningful.
  EXPECT_GT(Feasible + Infeasible, 6u);
}

/// Fig. 8(h)/(i): the crossed double diamond has no switch-granularity
/// order but a rule-granularity one.
TEST(OrderUpdateTest, DoubleDiamondImpossibleThenRuleGranular) {
  Rng R(404);
  Topology Base = buildSmallWorld(16, 4, 0.2, R);
  std::optional<Scenario> S = makeDoubleDiamondScenario(Base, R);
  ASSERT_TRUE(S.has_value());

  FormulaFactory FF;
  {
    LabelingChecker Checker;
    SynthResult Res = synthesizeUpdate(*S, FF, Checker);
    EXPECT_EQ(Res.Status, SynthStatus::Impossible);
  }
  {
    LabelingChecker Checker;
    SynthOptions Opts;
    Opts.RuleGranularity = true;
    SynthResult Res = synthesizeUpdate(*S, FF, Checker, Opts);
    ASSERT_EQ(Res.Status, SynthStatus::Success);
    Formula Phi = S->buildProperty(FF);
    EXPECT_TRUE(allIntermediateConfigsHold(S->Topo, S->Initial,
                                           S->classes(), Phi,
                                           Res.Commands));
  }
}

/// Early termination and plain exhaustion agree on impossibility.
TEST(OrderUpdateTest, EarlyTerminationAgreesWithExhaustiveSearch) {
  Rng R(505);
  Topology Base = buildSmallWorld(14, 4, 0.2, R);
  std::optional<Scenario> S = makeDoubleDiamondScenario(Base, R);
  ASSERT_TRUE(S.has_value());

  FormulaFactory FF;
  SynthOptions NoEt;
  NoEt.EarlyTermination = false;
  LabelingChecker C1, C2;
  SynthResult A = synthesizeUpdate(*S, FF, C1, NoEt);
  SynthResult B = synthesizeUpdate(*S, FF, C2);
  EXPECT_EQ(A.Status, SynthStatus::Impossible);
  EXPECT_EQ(B.Status, SynthStatus::Impossible);
}

TEST(OrderUpdateTest, PruningDoesNotChangeOutcome) {
  Rng R(606);
  for (int Round = 0; Round != 4; ++Round) {
    Topology Base = buildSmallWorld(16, 4, 0.2, R);
    std::optional<Scenario> S =
        makeDiamondScenario(Base, R, PropertyKind::Reachability);
    ASSERT_TRUE(S.has_value());
    FormulaFactory FF;
    SynthOptions NoPrune;
    NoPrune.CexPruning = false;
    NoPrune.EarlyTermination = false;
    LabelingChecker C1, C2;
    SynthResult A = synthesizeUpdate(*S, FF, C1, NoPrune);
    SynthResult B = synthesizeUpdate(*S, FF, C2);
    EXPECT_EQ(A.Status, B.Status);
    EXPECT_EQ(A.Status, SynthStatus::Success);
    // Pruning can only reduce model-checking work.
    EXPECT_LE(B.Stats.CheckCalls, A.Stats.CheckCalls);
  }
}

TEST(WaitRemovalTest, RemovesMostWaitsAndKeepsCorrectness) {
  Rng R(707);
  Topology Base = buildSmallWorld(24, 4, 0.2, R);
  std::optional<Scenario> S =
      makeDiamondScenario(Base, R, PropertyKind::Reachability);
  ASSERT_TRUE(S.has_value());

  FormulaFactory FF;
  LabelingChecker Checker;
  SynthOptions Opts;
  Opts.WaitRemoval = true;
  SynthResult Res = synthesizeUpdate(*S, FF, Checker, Opts);
  ASSERT_EQ(Res.Status, SynthStatus::Success);
  EXPECT_LE(Res.Stats.WaitsAfterRemoval, Res.Stats.WaitsBeforeRemoval);
  // Diamond updates leave at most a couple of genuine waits (§6 reports
  // about 2 per instance).
  EXPECT_LE(Res.Stats.WaitsAfterRemoval, 3u);
}

TEST(WaitRemovalTest, KeepsWaitWhenInFlightPacketsMatter) {
  // Chain s0 -> s1: updating s0 then s1 (both on the packet's path, s1
  // downstream of s0) requires a wait between them.
  Fig1Network N = buildFig1();
  CommandSeq Seq;
  Seq.push_back(Command::update(N.T[0], N.Blue.table(N.T[0])));
  Seq.push_back(Command::wait());
  Seq.push_back(Command::update(N.C1, N.Blue.table(N.C1)));
  CommandSeq Out = removeWaits(N.Topo, N.Red, {N.FlowH1H3}, Seq);
  // T1 feeds C1 through A1/A2, so the wait must survive.
  EXPECT_EQ(countWaits(Out), 1u);
}

TEST(BaselinesTest, NaiveSequenceCoversDiff) {
  Fig1Network N = buildFig1();
  CommandSeq Seq = naiveSequence(N.Red, N.Green);
  EXPECT_EQ(Seq.size(), 2u);
  Config End = N.Red;
  applyCommands(End, Seq);
  EXPECT_EQ(End, N.Green);
  EXPECT_EQ(countWaits(Seq), 0u);
}

TEST(BaselinesTest, TwoPhaseRuleOverheadDoubles) {
  Fig1Network N = buildFig1();
  TwoPhasePlan Plan = makeTwoPhasePlan(N.Topo, N.Red, N.Green);
  std::vector<size_t> Ordering = orderingRuleHighWater(N.Red, N.Green);

  // On switches with both old and new rules, two-phase holds at least
  // double the ordering update's rules.
  size_t SwA1 = N.A[0];
  EXPECT_GE(Plan.MaxRulesPerSwitch[SwA1], 2 * Ordering[SwA1]);

  // The full sequence ends in the clean final configuration.
  Config End = N.Red;
  applyCommands(End, Plan.fullSequence());
  EXPECT_EQ(End, N.Green);
  EXPECT_EQ(countWaits(Plan.fullSequence()), 3u);
}

TEST(EarlyTerminationTest, DetectsDirectContradiction) {
  EarlyTermination ET;
  ET.addCexConstraint({0}, {1}); // 1 before 0.
  EXPECT_FALSE(ET.impossible());
  ET.addCexConstraint({1}, {0}); // 0 before 1.
  EXPECT_TRUE(ET.impossible());
}

TEST(EarlyTerminationTest, TransitiveContradiction) {
  EarlyTermination ET;
  ET.addCexConstraint({0}, {1}); // 1 < 0.
  ET.addCexConstraint({1}, {2}); // 2 < 1.
  ET.addCexConstraint({2}, {0}); // 0 < 2.
  EXPECT_TRUE(ET.impossible());
}

TEST(EarlyTerminationTest, DisjunctionKeepsOptionsOpen) {
  EarlyTermination ET;
  ET.addCexConstraint({0}, {1, 2}); // 1 < 0 or 2 < 0.
  ET.addCexConstraint({1}, {0});    // 0 < 1.
  EXPECT_FALSE(ET.impossible());    // 2 < 0 < 1 works.
  ET.addCexConstraint({2}, {0});    // 0 < 2: now circular.
  EXPECT_TRUE(ET.impossible());
}

TEST(EarlyTerminationTest, EmptyNotUpdatedMeansImpossible) {
  EarlyTermination ET;
  ET.addCexConstraint({3, 4}, {});
  EXPECT_TRUE(ET.impossible());
}

// --- SynthStats::mergeFrom coverage guard -----------------------------------

// PRs keep growing SynthStats by hand, and a field added without a
// mergeFrom line silently vanishes from every engine batch aggregate.
// Two tripwires: the size pin below fails to compile the moment a field
// is added (forcing whoever adds it to visit this test and mergeFrom),
// and the doubling check verifies each existing field actually merges.
#if defined(__x86_64__) || defined(__aarch64__)
static_assert(sizeof(SynthStats) == 216,
              "SynthStats changed size: add the new field to mergeFrom() "
              "and to MergeFromCoversEveryField, then update this pin");
#endif

TEST(SynthStatsTest, MergeFromCoversEveryField) {
  SynthStats A;
  A.CheckCalls = 1;
  A.VisitedPrunes = 2;
  A.CexPrunes = 3;
  A.SatClauses = 4;
  A.CacheHits = 5;
  A.CacheMisses = 6;
  A.BackendQueries = 7;
  A.EarlyTerminated = true;
  A.BudgetSpent = 8;
  A.BudgetRemaining = 9;
  A.ExhaustedUnits = 10;
  A.ImportedConstraints = 11;
  A.ExportedConstraints = 12;
  A.SeededPrunes = 13;
  A.StolenTasks = 22;
  A.ClausesMinimized = 23;
  A.Restarts = 25;
  A.SubsumedDropped = 26;
  A.ShedMembers = 27;
  A.HitBudget = true;
  A.Interrupted = true;
  A.WaitsBeforeRemoval = 14;
  A.WaitsAfterRemoval = 15;
  A.SynthSeconds = 16.0;
  A.WaitRemovalSeconds = 17.0;
  A.CheckSeconds = 18.0;
  A.MutateSeconds = 19.0;
  A.PruneSeconds = 20.0;
  A.SatSeconds = 21.0;

  SynthStats B;
  B.mergeFrom(A);
  B.mergeFrom(A);

  // Counters sum, flags OR, seconds add: everything must be exactly
  // double the source (so a forgotten merge line reads as 0 != 2x).
  EXPECT_EQ(B.CheckCalls, 2 * A.CheckCalls);
  EXPECT_EQ(B.VisitedPrunes, 2 * A.VisitedPrunes);
  EXPECT_EQ(B.CexPrunes, 2 * A.CexPrunes);
  EXPECT_EQ(B.SatClauses, 2 * A.SatClauses);
  EXPECT_EQ(B.CacheHits, 2 * A.CacheHits);
  EXPECT_EQ(B.CacheMisses, 2 * A.CacheMisses);
  EXPECT_EQ(B.BackendQueries, 2 * A.BackendQueries);
  EXPECT_TRUE(B.EarlyTerminated);
  EXPECT_EQ(B.BudgetSpent, 2 * A.BudgetSpent);
  EXPECT_EQ(B.BudgetRemaining, 2 * A.BudgetRemaining);
  EXPECT_EQ(B.ExhaustedUnits, 2 * A.ExhaustedUnits);
  EXPECT_EQ(B.ImportedConstraints, 2 * A.ImportedConstraints);
  EXPECT_EQ(B.ExportedConstraints, 2 * A.ExportedConstraints);
  EXPECT_EQ(B.SeededPrunes, 2 * A.SeededPrunes);
  EXPECT_EQ(B.StolenTasks, 2 * A.StolenTasks);
  EXPECT_EQ(B.ClausesMinimized, 2 * A.ClausesMinimized);
  EXPECT_EQ(B.Restarts, 2 * A.Restarts);
  EXPECT_EQ(B.SubsumedDropped, 2 * A.SubsumedDropped);
  EXPECT_EQ(B.ShedMembers, 2 * A.ShedMembers);
  EXPECT_TRUE(B.HitBudget);
  EXPECT_TRUE(B.Interrupted);
  EXPECT_EQ(B.WaitsBeforeRemoval, 2 * A.WaitsBeforeRemoval);
  EXPECT_EQ(B.WaitsAfterRemoval, 2 * A.WaitsAfterRemoval);
  EXPECT_DOUBLE_EQ(B.SynthSeconds, 2 * A.SynthSeconds);
  EXPECT_DOUBLE_EQ(B.WaitRemovalSeconds, 2 * A.WaitRemovalSeconds);
  EXPECT_DOUBLE_EQ(B.CheckSeconds, 2 * A.CheckSeconds);
  EXPECT_DOUBLE_EQ(B.MutateSeconds, 2 * A.MutateSeconds);
  EXPECT_DOUBLE_EQ(B.PruneSeconds, 2 * A.PruneSeconds);
  EXPECT_DOUBLE_EQ(B.SatSeconds, 2 * A.SatSeconds);
}
