//===- tests/synth_test.cpp - ORDERUPDATE synthesis tests ------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"
#include "fuzz/Repro.h"
#include "mc/LabelingChecker.h"
#include "obs/Metrics.h"
#include "synth/Baselines.h"
#include "synth/EarlyTermination.h"
#include "synth/OrderUpdate.h"
#include "synth/WaitRemoval.h"
#include "topo/Fig1.h"

#include "TestUtil.h"
#include "WaitRemovalOracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>

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

/// True if \p A and \p B are the same commands: kinds, switches and
/// every rule of every table.
bool sameCommands(const CommandSeq &A, const CommandSeq &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I) {
    if (A[I].K != B[I].K)
      return false;
    if (A[I].K == Command::Kind::Update &&
        (A[I].Sw != B[I].Sw || A[I].NewTable != B[I].NewTable))
      return false;
  }
  return true;
}

/// \p Seq without its waits.
CommandSeq updatesOf(const CommandSeq &Seq) {
  CommandSeq Out;
  for (const Command &C : Seq)
    if (C.K == Command::Kind::Update)
      Out.push_back(C);
  return Out;
}

/// Random update sequences over the diff of \p S. Each diff switch steps
/// from its initial to its final table at once (switch granularity) or
/// one rule at a time: each new rule appended, then each dropped rule
/// removed (rule granularity). The switches' steps are interleaved at
/// random. Each interleaving comes with no waits, a wait between every
/// two updates, and a wait in each gap with probability 1/2.
std::vector<CommandSeq> randomDiffSequences(const Scenario &S, Rng &R) {
  std::vector<CommandSeq> Out;
  const std::vector<SwitchId> Diff = diffSwitches(S.Initial, S.Final);
  for (bool PerRule : {false, true}) {
    for (unsigned Draw = 0; Draw != 2; ++Draw) {
      // Each switch's chain of tables, and a shuffled multiset of switch
      // indices saying whose next table comes next.
      std::vector<std::vector<Table>> Chains(Diff.size());
      std::vector<size_t> Order;
      for (size_t I = 0; I != Diff.size(); ++I) {
        const Table &Old = S.Initial.table(Diff[I]);
        const Table &New = S.Final.table(Diff[I]);
        if (PerRule) {
          std::vector<Rule> Rules = Old.rules();
          for (const Rule &NR : New.rules())
            if (std::find(Rules.begin(), Rules.end(), NR) == Rules.end()) {
              Rules.push_back(NR);
              Chains[I].emplace_back(Rules);
            }
          for (const Rule &OR : Old.rules()) {
            if (std::find(New.rules().begin(), New.rules().end(), OR) !=
                New.rules().end())
              continue;
            Rules.erase(std::find(Rules.begin(), Rules.end(), OR));
            Chains[I].emplace_back(Rules);
          }
        }
        if (Chains[I].empty() || Chains[I].back() != New)
          Chains[I].push_back(New);
        Order.insert(Order.end(), Chains[I].size(), I);
      }
      R.shuffle(Order);
      std::vector<size_t> Step(Diff.size(), 0);
      CommandSeq Bare, Careful, Sprinkled;
      for (size_t I : Order) {
        Command C = Command::update(Diff[I], Chains[I][Step[I]++]);
        if (!Careful.empty())
          Careful.push_back(Command::wait());
        if (R.nextBool())
          Sprinkled.push_back(Command::wait());
        Bare.push_back(C);
        Careful.push_back(C);
        Sprinkled.push_back(std::move(C));
      }
      Out.push_back(std::move(Bare));
      Out.push_back(std::move(Careful));
      Out.push_back(std::move(Sprinkled));
    }
  }
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

/// The detail tier charges the SAT phase only for the early-termination
/// layer's clause pushes and solves: with the layer off, a proof that
/// learns from counterexamples reports no SAT seconds at all.
TEST(OrderUpdateTest, SatSecondsOnlyWithEarlyTermination) {
  bool OldDetail = obs::detailEnabled();
  obs::setDetail(true);
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
  obs::setDetail(OldDetail);
  EXPECT_EQ(A.Status, SynthStatus::Impossible);
  EXPECT_GT(A.Stats.PruneSeconds, 0.0);
  EXPECT_EQ(A.Stats.SatSeconds, 0.0);
  EXPECT_GT(B.Stats.SatSeconds, 0.0);
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
  SynthOptions Careful;
  Careful.WaitRemoval = false;
  LabelingChecker C1, C2;
  SynthResult In = synthesizeUpdate(*S, FF, C1, Careful);
  SynthResult Res = synthesizeUpdate(*S, FF, C2);
  ASSERT_EQ(In.Status, SynthStatus::Success);
  ASSERT_EQ(Res.Status, SynthStatus::Success);
  EXPECT_LE(Res.Stats.WaitsAfterRemoval, Res.Stats.WaitsBeforeRemoval);
  // Diamond updates leave at most a couple of genuine waits (§6 reports
  // about 2 per instance).
  EXPECT_LE(Res.Stats.WaitsAfterRemoval, 3u);

  // Only waits go: the updates are the careful sequence's, in order.
  EXPECT_TRUE(sameCommands(updatesOf(Res.Commands), updatesOf(In.Commands)))
      << commandSeqToString(S->Topo, Res.Commands) << " vs "
      << commandSeqToString(S->Topo, In.Commands);
  Config End = S->Initial;
  applyCommands(End, Res.Commands);
  EXPECT_EQ(End, S->Final);
  // A wait is only ever kept in front of an update.
  ASSERT_FALSE(Res.Commands.empty());
  EXPECT_EQ(Res.Commands.front().K, Command::Kind::Update);
  for (size_t I = 1; I != Res.Commands.size(); ++I)
    EXPECT_FALSE(Res.Commands[I].K == Command::Kind::Wait &&
                 Res.Commands[I - 1].K == Command::Kind::Wait)
        << "two waits in a row at " << I;
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

/// The incremental pass against the non-incremental oracle: byte-identical
/// sequences on the first 40 fuzz instances, the corpus repros and the
/// coverage families, for the synthesized careful sequences and for
/// random interleavings of each diff at switch and rule granularity, with
/// and without waits.
TEST(WaitRemovalTest, MatchesReferenceOracle) {
  std::vector<std::pair<std::string, Scenario>> Cases;
  Rng FuzzR(1);
  for (unsigned I = 0; I != 40; ++I)
    Cases.emplace_back("fuzz-" + std::to_string(I),
                       fuzz::generateInstance(FuzzR));
  std::vector<std::filesystem::path> Corpus;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(NETUPD_SOURCE_DIR) + "/tests/corpus"))
    if (E.path().extension() == ".repro")
      Corpus.push_back(E.path());
  std::sort(Corpus.begin(), Corpus.end()); // The draws below follow it.
  for (const std::filesystem::path &P : Corpus)
    if (std::optional<fuzz::Repro> R = fuzz::loadReproFile(P.string()))
      Cases.emplace_back(P.stem().string(), std::move(R->S));
  for (unsigned V = 0; V != 9; ++V) {
    Rng R(2500 + V);
    if (std::optional<Scenario> S = makeDiamondScenario(
            familyTopology(V), R, static_cast<PropertyKind>(V / 3)))
      Cases.emplace_back("family-" + std::to_string(V), std::move(*S));
  }
  ASSERT_GE(Cases.size(), 50u);

  unsigned MultiClass = 0, Compared = 0;
  Rng R(2026);
  for (const auto &[Name, S] : Cases) {
    const std::vector<TrafficClass> Classes = S.classes();
    MultiClass += Classes.size() > 1;
    std::vector<CommandSeq> Inputs = randomDiffSequences(S, R);
    for (bool PerRule : {false, true}) {
      FormulaFactory FF;
      LabelingChecker Checker;
      SynthOptions Opts;
      Opts.WaitRemoval = false;
      Opts.RuleGranularity = PerRule;
      SynthResult Res = synthesizeUpdate(S, FF, Checker, Opts);
      if (Res.ok())
        Inputs.push_back(std::move(Res.Commands));
    }
    for (const CommandSeq &In : Inputs) {
      CommandSeq Want = oracle::removeWaits(S.Topo, S.Initial, Classes, In);
      CommandSeq Got = removeWaits(S.Topo, S.Initial, Classes, In);
      ++Compared;
      ASSERT_TRUE(sameCommands(Got, Want))
          << Name << ": input " << commandSeqToString(S.Topo, In)
          << "\n  oracle " << commandSeqToString(S.Topo, Want)
          << "\n  got    " << commandSeqToString(S.Topo, Got);
    }
  }
  EXPECT_GE(MultiClass, 10u);
  EXPECT_GE(Compared, 500u);
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

/// reset() forgets every constraint, a proven contradiction included,
/// and the object learns afresh afterwards.
TEST(EarlyTerminationTest, ResetForgetsEverything) {
  EarlyTermination ET;
  ET.addCexConstraint({0}, {1});
  ET.addCexConstraint({1}, {0});
  ET.addCexConstraint({3, 4}, {});
  EXPECT_TRUE(ET.impossible());
  ET.reset();
  EXPECT_EQ(ET.numClauses(), 0u);
  EXPECT_FALSE(ET.impossible());
  ET.addCexConstraint({0}, {1});
  EXPECT_FALSE(ET.impossible());
  ET.addCexConstraint({1}, {0});
  EXPECT_TRUE(ET.impossible());
}

/// A counterexample with no updated operation would hold in the initial
/// configuration; learning its empty clause would be a wrong Impossible.
/// It must teach nothing in Debug and Release alike.
TEST(EarlyTerminationTest, EmptyUpdatedTeachesNothing) {
  EarlyTermination ET;
  ET.addCexConstraint({}, {0});
  ET.addCexConstraint({}, {});
  Bitset Mask(4);
  Mask.set(1);
  Mask.set(2);
  ET.addMaskValueConstraint(Mask, Bitset(4)); // Nothing updated.
  EXPECT_EQ(ET.numClauses(), 0u);
  EXPECT_FALSE(ET.impossible());
  ET.addCexConstraint({0}, {1});
  EXPECT_FALSE(ET.impossible());
}

/// A cycle of singleton precedences longer than any small bound: the
/// lazy theory finds it however many operations it spans, and the same
/// chain without its closing edge stays possible.
TEST(EarlyTerminationTest, LongPrecedenceCycleIsImpossible) {
  EarlyTermination Chain, Cycle;
  for (unsigned I = 0; I + 1 != 20; ++I) {
    Chain.addCexConstraint({I + 1}, {I}); // a_I before a_I+1.
    Cycle.addCexConstraint({I + 1}, {I});
  }
  Cycle.addCexConstraint({0}, {19}); // a_19 before a_0 closes it.
  EXPECT_FALSE(Chain.impossible());
  EXPECT_TRUE(Cycle.impossible());
}

namespace {
/// One disjunctive precedence constraint over operation indices: some
/// operation of NotUpdated precedes some operation of Updated.
struct Precedence {
  std::vector<unsigned> Updated, NotUpdated;
};

/// Every order of \p N operations, each as a position per operation.
std::vector<std::vector<unsigned>> allOrders(unsigned N) {
  std::vector<unsigned> Perm(N);
  for (unsigned I = 0; I != N; ++I)
    Perm[I] = I;
  std::vector<std::vector<unsigned>> Out;
  do {
    std::vector<unsigned> Pos(N);
    for (unsigned I = 0; I != N; ++I)
      Pos[Perm[I]] = I;
    Out.push_back(std::move(Pos));
  } while (std::next_permutation(Perm.begin(), Perm.end()));
  return Out;
}

bool admits(const std::vector<unsigned> &Pos, const Precedence &C) {
  for (unsigned D : C.NotUpdated)
    for (unsigned U : C.Updated)
      if (Pos[D] < Pos[U])
        return true;
  return false;
}
} // namespace

/// impossible() is exact: it holds precisely when no order of the
/// operations satisfies every constraint learned since the last reset(),
/// which a brute force over all (at most 7!) orders decides. Constraints
/// and checks interleave, and one instance serves every trial, with a
/// reset() partway through some, so retained buffers are exercised too.
TEST(EarlyTerminationTest, AgreesWithBruteForceOracle) {
  Rng R(2121);
  EarlyTermination ET;
  unsigned Possible = 0, Impossible = 0;
  for (unsigned Trial = 0;
       Trial != 5000 && (Possible < 200 || Impossible < 200); ++Trial) {
    ET.reset();
    unsigned N = 3 + static_cast<unsigned>(R.nextBelow(5)); // 3..7 ops.
    // Sparse operation ids, so the pair index sees more than 0..N-1.
    std::vector<unsigned> Id(N);
    for (unsigned I = 0; I != N; ++I)
      Id[I] = I * 7 + static_cast<unsigned>(R.nextBelow(7));
    std::vector<std::vector<unsigned>> Orders = allOrders(N);
    unsigned Steps = 1 + static_cast<unsigned>(R.nextBelow(3 * N));
    unsigned ResetAt = static_cast<unsigned>(R.nextBelow(2 * Steps));
    for (unsigned Step = 0; Step != Steps; ++Step) {
      if (Step == ResetAt) {
        ET.reset();
        Orders = allOrders(N);
      }
      std::vector<unsigned> Shuffled(N);
      for (unsigned I = 0; I != N; ++I)
        Shuffled[I] = I;
      for (unsigned I = N; I > 1; --I)
        std::swap(Shuffled[I - 1], Shuffled[R.nextBelow(I)]);
      unsigned NumU = 1 + static_cast<unsigned>(R.nextBelow(2));
      unsigned NumD = 1 + static_cast<unsigned>(R.nextBelow(N - NumU < 3
                                                                ? N - NumU
                                                                : 3));
      Precedence C;
      std::vector<unsigned> UpdatedIds, NotUpdatedIds;
      for (unsigned I = 0; I != NumU + NumD; ++I) {
        (I < NumU ? C.Updated : C.NotUpdated).push_back(Shuffled[I]);
        (I < NumU ? UpdatedIds : NotUpdatedIds).push_back(Id[Shuffled[I]]);
      }
      ET.addCexConstraint(UpdatedIds, NotUpdatedIds);
      Orders.erase(std::remove_if(Orders.begin(), Orders.end(),
                                  [&C](const std::vector<unsigned> &Pos) {
                                    return !admits(Pos, C);
                                  }),
                   Orders.end());
      if (R.nextBelow(3) != 0 && Step + 1 != Steps)
        continue;
      bool Expected = Orders.empty();
      ASSERT_EQ(ET.impossible(), Expected)
          << "trial " << Trial << ", step " << Step << ", " << N << " ops";
      ++(Expected ? Impossible : Possible);
    }
  }
  EXPECT_GE(Possible, 200u);
  EXPECT_GE(Impossible, 200u);
}

/// Each cycle-check round that finds a cycle adds one clause, so
/// numClauses() (SynthStats::SatClauses) counts the theory's extra
/// rounds. A 3-cycle of singleton precedences takes one: a model
/// containing the cycle, then UNSAT once its clause is added.
TEST(EarlyTerminationTest, ReportsTheoryRounds) {
  EarlyTermination ET;
  ET.addCexConstraint({1}, {0});
  ET.addCexConstraint({2}, {1});
  ET.addCexConstraint({0}, {2});
  EXPECT_TRUE(ET.impossible());
  EXPECT_EQ(ET.numClauses(), 4u) << "three constraints and one cycle";
}

// --- SynthStats::mergeFrom coverage guard -----------------------------------

// PRs keep growing SynthStats by hand, and a field added without a
// mergeFrom line silently vanishes from every engine batch aggregate.
// Two tripwires: the size pin below fails to compile the moment a field
// is added (forcing whoever adds it to visit this test and mergeFrom),
// and the doubling check verifies each existing field actually merges.
#if defined(__x86_64__) || defined(__aarch64__)
static_assert(sizeof(SynthStats) == 208,
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
  A.ExhaustedUnits = 10;
  A.ImportedConstraints = 11;
  A.ExportedConstraints = 12;
  A.SeededPrunes = 13;
  A.StolenTasks = 22;
  A.ClausesMinimized = 23;
  A.Restarts = 25;
  A.SubsumedDropped = 26;
  A.ShedMembers = 27;
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
  EXPECT_EQ(B.ExhaustedUnits, 2 * A.ExhaustedUnits);
  EXPECT_EQ(B.ImportedConstraints, 2 * A.ImportedConstraints);
  EXPECT_EQ(B.ExportedConstraints, 2 * A.ExportedConstraints);
  EXPECT_EQ(B.SeededPrunes, 2 * A.SeededPrunes);
  EXPECT_EQ(B.StolenTasks, 2 * A.StolenTasks);
  EXPECT_EQ(B.ClausesMinimized, 2 * A.ClausesMinimized);
  EXPECT_EQ(B.Restarts, 2 * A.Restarts);
  EXPECT_EQ(B.SubsumedDropped, 2 * A.SubsumedDropped);
  EXPECT_EQ(B.ShedMembers, 2 * A.ShedMembers);
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

// --- Search trace pins ------------------------------------------------------

// Golden values for the search itself, not just its verdicts: the
// returned sequence and the pruning counters of every deterministic
// configuration are pinned per scenario, so a refactor of the search
// core that changes which candidates are probed, claimed or learned
// from fails here even when every verdict survives. The scenarios are
// the tests/corpus repros plus seeded diamonds and double diamonds.

namespace {

struct PinScenario {
  std::string Name;
  Scenario S;
};

const std::vector<PinScenario> &pinScenarios() {
  static const std::vector<PinScenario> Out = [] {
    std::vector<PinScenario> V;
    std::vector<std::filesystem::path> Files;
    for (const auto &E : std::filesystem::directory_iterator(
             std::string(NETUPD_SOURCE_DIR) + "/tests/corpus"))
      if (E.path().extension() == ".repro")
        Files.push_back(E.path());
    std::sort(Files.begin(), Files.end());
    for (const std::filesystem::path &P : Files)
      if (std::optional<fuzz::Repro> R = fuzz::loadReproFile(P.string()))
        V.push_back({P.stem().string(), std::move(R->S)});
    const PropertyKind Kinds[] = {PropertyKind::Reachability,
                                  PropertyKind::Waypoint,
                                  PropertyKind::ServiceChain};
    for (uint64_t Seed = 811; Seed != 814; ++Seed) {
      Rng R(Seed);
      Topology Base = buildSmallWorld(16, 4, 0.2, R);
      if (std::optional<Scenario> S =
              makeDiamondScenario(Base, R, Kinds[Seed - 811]))
        V.push_back({"diamond-" + std::to_string(Seed), std::move(*S)});
    }
    for (uint64_t Seed = 821; Seed != 823; ++Seed) {
      Rng R(Seed);
      Topology Base = buildSmallWorld(16, 4, 0.2, R);
      if (std::optional<Scenario> S = makeDoubleDiamondScenario(Base, R))
        V.push_back({"double-" + std::to_string(Seed), std::move(*S)});
    }
    V.push_back({"deep-impossible", deepImpossible(1)});
    return V;
  }();
  return Out;
}

/// FNV-1a over every update's switch and full table, so rule-granularity
/// sequences that differ only in which class slice moves still differ.
uint64_t tablesHash(const CommandSeq &Seq) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&](const std::string &S) {
    for (unsigned char C : S)
      H = (H ^ C) * 1099511628211ull;
  };
  for (const Command &C : Seq)
    Mix(C.K == Command::Kind::Wait ? std::string("wait")
                                   : std::to_string(C.Sw) + C.NewTable.str());
  return H;
}

enum class PinCounters { None, Search, SearchAndBudget };

/// One pinned cell: "<scenario> <granularity>: <status> | <sequence> |
/// <tables hash>" plus the counters \p What asks for.
std::string pinRow(const PinScenario &P, bool Rule, const SynthOptions &Base,
                   PinCounters What) {
  SynthOptions Opts = Base;
  Opts.RuleGranularity = Rule;
  if (Opts.Shards > 1)
    Opts.ShardCheckerFactory = [] {
      return std::make_unique<LabelingChecker>();
    };
  FormulaFactory FF;
  LabelingChecker Checker;
  SynthResult R = synthesizeUpdate(P.S, FF, Checker, Opts);
  std::string Row = P.Name + (Rule ? " rule: " : " switch: ") +
                    statusName(R.Status) + " | " +
                    commandSeqToString(P.S.Topo, R.Commands) + " | " +
                    std::to_string(tablesHash(R.Commands));
  if (What != PinCounters::None)
    Row += " | calls=" + std::to_string(R.Stats.CheckCalls) +
           " visited=" + std::to_string(R.Stats.VisitedPrunes) +
           " cex=" + std::to_string(R.Stats.CexPrunes) +
           " sat=" + std::to_string(R.Stats.SatClauses);
  if (What == PinCounters::SearchAndBudget)
    Row += " spent=" + std::to_string(R.Stats.BudgetSpent);
  return Row;
}

/// Runs every pinned scenario at both granularities and compares the
/// rows against \p Expected, in order. A failure prints the actual row,
/// ready to paste.
void expectPins(const SynthOptions &Opts, PinCounters What,
                const std::vector<std::string> &Expected) {
  std::vector<std::string> Actual;
  for (const PinScenario &P : pinScenarios())
    for (bool Rule : {false, true})
      Actual.push_back(pinRow(P, Rule, Opts, What));
  ASSERT_EQ(pinScenarios().size(), 13u) << "a pinned scenario went missing";
  for (size_t I = 0; I != Actual.size(); ++I)
    EXPECT_EQ(I < Expected.size() ? Expected[I] : std::string(), Actual[I])
        << "      \"" << Actual[I] << "\",";
  EXPECT_EQ(Expected.size(), Actual.size());
}

} // namespace

/// The sequential search without budgets: sequences and every pruning
/// counter.
TEST(SearchPinTest, SequentialUnlimited) {
  expectPins(SynthOptions{}, PinCounters::Search, {
      "churn-step switch: Success | upd sw1; upd sw21; upd sw23; upd sw20; wait; upd sw0; upd sw22 | 8570944015681924894 | calls=8 visited=0 cex=0 sat=1",
      "churn-step rule: Success | upd sw1; upd sw21; upd sw23; upd sw20; wait; upd sw0; upd sw22 | 8570944015681924894 | calls=8 visited=0 cex=0 sat=1",
      "double-diamond switch: Impossible |  | 1469598103934665603 | calls=6 visited=0 cex=0 sat=5",
      "double-diamond rule: Success | upd sw5; upd sw6; upd sw7; upd sw4; wait; upd sw6; upd sw8; wait; upd sw5; upd sw7 | 6907229058659628618 | calls=11 visited=0 cex=1 sat=2",
      "fattree-blackhole switch: Impossible |  | 1469598103934665603 | calls=31 visited=21 cex=42 sat=0",
      "fattree-blackhole rule: Impossible |  | 1469598103934665603 | calls=31 visited=21 cex=42 sat=0",
      "liar-reachability-min switch: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0",
      "liar-reachability-min rule: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0",
      "liar-servicechain-min switch: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0",
      "liar-servicechain-min rule: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0",
      "liar-waypoint-min switch: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0",
      "liar-waypoint-min rule: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0",
      "wan-multiflow-waypoint switch: Success | upd r0_pop11; upd r0_pop12; upd r0_pop13; upd r0_pop14; upd r1_pop2; upd r1_pop13; upd r0_pop5; wait; upd r0_pop1; upd r1_pop3; wait; upd r1_pop0; upd r1_pop10; wait; upd r1_pop11 | 6341639753985368319 | calls=15 visited=0 cex=0 sat=2",
      "wan-multiflow-waypoint rule: Success | upd r0_pop11; upd r0_pop12; upd r0_pop13; upd r0_pop14; upd r1_pop2; upd r1_pop13; upd r0_pop5; wait; upd r0_pop1; upd r1_pop3; wait; upd r1_pop0; upd r1_pop10; wait; upd r1_pop11 | 6341639753985368319 | calls=15 visited=0 cex=0 sat=2",
      "diamond-811 switch: Success | upd sw1; upd sw15; upd sw2; wait; upd sw0 | 7760706676265626571 | calls=6 visited=0 cex=0 sat=1",
      "diamond-811 rule: Success | upd sw1; upd sw15; upd sw2; wait; upd sw0 | 7760706676265626571 | calls=6 visited=0 cex=0 sat=1",
      "diamond-812 switch: Success | upd sw12; upd sw14; upd sw15; upd sw1; wait; upd sw9 | 9245922362877536336 | calls=6 visited=0 cex=0 sat=0",
      "diamond-812 rule: Success | upd sw12; upd sw14; upd sw15; upd sw1; wait; upd sw9 | 9245922362877536336 | calls=6 visited=0 cex=0 sat=0",
      "diamond-813 switch: Success | upd sw3; upd sw5; upd sw7; upd sw2; wait; upd sw4; upd sw6 | 6097897775204880161 | calls=7 visited=0 cex=0 sat=0",
      "diamond-813 rule: Success | upd sw3; upd sw5; upd sw7; upd sw2; wait; upd sw4; upd sw6 | 6097897775204880161 | calls=7 visited=0 cex=0 sat=0",
      "double-821 switch: Impossible |  | 1469598103934665603 | calls=8 visited=0 cex=0 sat=7",
      "double-821 rule: Success | upd sw0; upd sw1; upd sw2; upd sw4; upd sw7; upd sw5; wait; upd sw0; upd sw2; upd sw4; upd sw15; wait; upd sw1; upd sw7 | 16210707980843615605 | calls=18 visited=0 cex=3 sat=5",
      "double-822 switch: Impossible |  | 1469598103934665603 | calls=6 visited=0 cex=0 sat=5",
      "double-822 rule: Success | upd sw3; upd sw4; upd sw5; upd sw2; wait; upd sw3; upd sw5; upd sw6; wait; upd sw4 | 13521125900654781792 | calls=10 visited=0 cex=1 sat=1",
      "deep-impossible switch: Impossible |  | 1469598103934665603 | calls=22 visited=0 cex=0 sat=7",
      "deep-impossible rule: Impossible |  | 1469598103934665603 | calls=22 visited=0 cex=0 sat=7",
  });
}

/// The sequential search with the SAT layer off, so proofs run by
/// exhaustion and the visited and wrong sets do the pruning.
TEST(SearchPinTest, SequentialExhaustive) {
  SynthOptions Opts;
  Opts.EarlyTermination = false;
  expectPins(Opts, PinCounters::Search, {
      "churn-step switch: Success | upd sw1; upd sw21; upd sw23; upd sw20; wait; upd sw0; upd sw22 | 8570944015681924894 | calls=8 visited=0 cex=0 sat=0",
      "churn-step rule: Success | upd sw1; upd sw21; upd sw23; upd sw20; wait; upd sw0; upd sw22 | 8570944015681924894 | calls=8 visited=0 cex=0 sat=0",
      "double-diamond switch: Impossible |  | 1469598103934665603 | calls=6 visited=0 cex=0 sat=0",
      "double-diamond rule: Success | upd sw5; upd sw6; upd sw7; upd sw4; wait; upd sw6; upd sw8; wait; upd sw5; upd sw7 | 6907229058659628618 | calls=11 visited=0 cex=1 sat=0",
      "fattree-blackhole switch: Impossible |  | 1469598103934665603 | calls=42 visited=49 cex=89 sat=0",
      "fattree-blackhole rule: Impossible |  | 1469598103934665603 | calls=42 visited=49 cex=89 sat=0",
      "liar-reachability-min switch: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0",
      "liar-reachability-min rule: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0",
      "liar-servicechain-min switch: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0",
      "liar-servicechain-min rule: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0",
      "liar-waypoint-min switch: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0",
      "liar-waypoint-min rule: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0",
      "wan-multiflow-waypoint switch: Success | upd r0_pop11; upd r0_pop12; upd r0_pop13; upd r0_pop14; upd r1_pop2; upd r1_pop13; upd r0_pop5; wait; upd r0_pop1; upd r1_pop3; wait; upd r1_pop0; upd r1_pop10; wait; upd r1_pop11 | 6341639753985368319 | calls=15 visited=0 cex=0 sat=0",
      "wan-multiflow-waypoint rule: Success | upd r0_pop11; upd r0_pop12; upd r0_pop13; upd r0_pop14; upd r1_pop2; upd r1_pop13; upd r0_pop5; wait; upd r0_pop1; upd r1_pop3; wait; upd r1_pop0; upd r1_pop10; wait; upd r1_pop11 | 6341639753985368319 | calls=15 visited=0 cex=0 sat=0",
      "diamond-811 switch: Success | upd sw1; upd sw15; upd sw2; wait; upd sw0 | 7760706676265626571 | calls=6 visited=0 cex=0 sat=0",
      "diamond-811 rule: Success | upd sw1; upd sw15; upd sw2; wait; upd sw0 | 7760706676265626571 | calls=6 visited=0 cex=0 sat=0",
      "diamond-812 switch: Success | upd sw12; upd sw14; upd sw15; upd sw1; wait; upd sw9 | 9245922362877536336 | calls=6 visited=0 cex=0 sat=0",
      "diamond-812 rule: Success | upd sw12; upd sw14; upd sw15; upd sw1; wait; upd sw9 | 9245922362877536336 | calls=6 visited=0 cex=0 sat=0",
      "diamond-813 switch: Success | upd sw3; upd sw5; upd sw7; upd sw2; wait; upd sw4; upd sw6 | 6097897775204880161 | calls=7 visited=0 cex=0 sat=0",
      "diamond-813 rule: Success | upd sw3; upd sw5; upd sw7; upd sw2; wait; upd sw4; upd sw6 | 6097897775204880161 | calls=7 visited=0 cex=0 sat=0",
      "double-821 switch: Impossible |  | 1469598103934665603 | calls=8 visited=0 cex=0 sat=0",
      "double-821 rule: Success | upd sw0; upd sw1; upd sw2; upd sw4; upd sw7; upd sw5; wait; upd sw0; upd sw2; upd sw4; upd sw15; wait; upd sw1; upd sw7 | 16210707980843615605 | calls=18 visited=0 cex=3 sat=0",
      "double-822 switch: Impossible |  | 1469598103934665603 | calls=6 visited=0 cex=0 sat=0",
      "double-822 rule: Success | upd sw3; upd sw4; upd sw5; upd sw2; wait; upd sw3; upd sw5; upd sw6; wait; upd sw4 | 13521125900654781792 | calls=10 visited=0 cex=1 sat=0",
      "deep-impossible switch: Impossible |  | 1469598103934665603 | calls=8203 visited=45057 cex=73717 sat=0",
      "deep-impossible rule: Impossible |  | 1469598103934665603 | calls=8203 visited=45057 cex=73717 sat=0",
  });
}

/// Deterministic budget mode on one shard: sequences, pruning counters
/// and the charged calls.
TEST(SearchPinTest, BudgetOneShard) {
  SynthOptions Opts;
  Opts.MaxCheckCalls = 30;
  Opts.Shards = 1;
  expectPins(Opts, PinCounters::SearchAndBudget, {
      "churn-step switch: Aborted |  | 1469598103934665603 | calls=19 visited=0 cex=0 sat=6 spent=18",
      "churn-step rule: Aborted |  | 1469598103934665603 | calls=19 visited=0 cex=0 sat=6 spent=18",
      "double-diamond switch: Impossible |  | 1469598103934665603 | calls=6 visited=0 cex=0 sat=5 spent=5",
      "double-diamond rule: Aborted |  | 1469598103934665603 | calls=18 visited=0 cex=0 sat=5 spent=17",
      "fattree-blackhole switch: Aborted |  | 1469598103934665603 | calls=24 visited=0 cex=0 sat=3 spent=23",
      "fattree-blackhole rule: Aborted |  | 1469598103934665603 | calls=24 visited=0 cex=0 sat=3 spent=23",
      "liar-reachability-min switch: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0 spent=1",
      "liar-reachability-min rule: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0 spent=1",
      "liar-servicechain-min switch: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0 spent=1",
      "liar-servicechain-min rule: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0 spent=1",
      "liar-waypoint-min switch: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0 spent=1",
      "liar-waypoint-min rule: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0 spent=1",
      "wan-multiflow-waypoint switch: Aborted |  | 1469598103934665603 | calls=25 visited=0 cex=0 sat=6 spent=24",
      "wan-multiflow-waypoint rule: Aborted |  | 1469598103934665603 | calls=25 visited=0 cex=0 sat=6 spent=24",
      "diamond-811 switch: Success | upd sw1; upd sw15; upd sw2; wait; upd sw0 | 7760706676265626571 | calls=6 visited=0 cex=0 sat=1 spent=5",
      "diamond-811 rule: Success | upd sw1; upd sw15; upd sw2; wait; upd sw0 | 7760706676265626571 | calls=6 visited=0 cex=0 sat=1 spent=5",
      "diamond-812 switch: Success | upd sw12; upd sw14; upd sw15; upd sw1; wait; upd sw9 | 9245922362877536336 | calls=6 visited=0 cex=0 sat=0 spent=5",
      "diamond-812 rule: Success | upd sw12; upd sw14; upd sw15; upd sw1; wait; upd sw9 | 9245922362877536336 | calls=6 visited=0 cex=0 sat=0 spent=5",
      "diamond-813 switch: Aborted |  | 1469598103934665603 | calls=19 visited=0 cex=0 sat=3 spent=18",
      "diamond-813 rule: Aborted |  | 1469598103934665603 | calls=19 visited=0 cex=0 sat=3 spent=18",
      "double-821 switch: Impossible |  | 1469598103934665603 | calls=8 visited=0 cex=0 sat=7 spent=7",
      "double-821 rule: Aborted |  | 1469598103934665603 | calls=23 visited=0 cex=0 sat=7 spent=22",
      "double-822 switch: Impossible |  | 1469598103934665603 | calls=6 visited=0 cex=0 sat=5 spent=5",
      "double-822 rule: Aborted |  | 1469598103934665603 | calls=18 visited=0 cex=0 sat=5 spent=17",
      "deep-impossible switch: Aborted |  | 1469598103934665603 | calls=31 visited=0 cex=0 sat=9 spent=30",
      "deep-impossible rule: Aborted |  | 1469598103934665603 | calls=31 visited=0 cex=0 sat=9 spent=30",
  });
}

/// A per-unit budget large enough for units to prune, with the SAT layer
/// off: the unit-local visited and wrong sets do the pruning.
TEST(SearchPinTest, PerUnitBudgetOneShard) {
  SynthOptions Opts;
  Opts.UnitCheckCalls = 200;
  Opts.EarlyTermination = false;
  Opts.Shards = 1;
  expectPins(Opts, PinCounters::SearchAndBudget, {
      "churn-step switch: Success | upd sw1; upd sw21; upd sw23; upd sw20; wait; upd sw0; upd sw22 | 8570944015681924894 | calls=8 visited=0 cex=0 sat=0 spent=7",
      "churn-step rule: Success | upd sw1; upd sw21; upd sw23; upd sw20; wait; upd sw0; upd sw22 | 8570944015681924894 | calls=8 visited=0 cex=0 sat=0 spent=7",
      "double-diamond switch: Impossible |  | 1469598103934665603 | calls=6 visited=0 cex=0 sat=0 spent=5",
      "double-diamond rule: Success | upd sw5; upd sw6; upd sw7; upd sw4; wait; upd sw6; upd sw8; wait; upd sw5; upd sw7 | 6907229058659628618 | calls=11 visited=0 cex=1 sat=0 spent=10",
      "fattree-blackhole switch: Impossible |  | 1469598103934665603 | calls=129 visited=85 cex=210 sat=0 spent=128",
      "fattree-blackhole rule: Impossible |  | 1469598103934665603 | calls=129 visited=85 cex=210 sat=0 spent=128",
      "liar-reachability-min switch: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0 spent=1",
      "liar-reachability-min rule: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0 spent=1",
      "liar-servicechain-min switch: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0 spent=1",
      "liar-servicechain-min rule: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0 spent=1",
      "liar-waypoint-min switch: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0 spent=1",
      "liar-waypoint-min rule: Impossible |  | 1469598103934665603 | calls=2 visited=0 cex=0 sat=0 spent=1",
      "wan-multiflow-waypoint switch: Success | upd r0_pop11; upd r0_pop12; upd r0_pop13; upd r0_pop14; upd r1_pop2; upd r1_pop13; upd r0_pop5; wait; upd r0_pop1; upd r1_pop3; wait; upd r1_pop0; upd r1_pop10; wait; upd r1_pop11 | 6341639753985368319 | calls=15 visited=0 cex=0 sat=0 spent=14",
      "wan-multiflow-waypoint rule: Success | upd r0_pop11; upd r0_pop12; upd r0_pop13; upd r0_pop14; upd r1_pop2; upd r1_pop13; upd r0_pop5; wait; upd r0_pop1; upd r1_pop3; wait; upd r1_pop0; upd r1_pop10; wait; upd r1_pop11 | 6341639753985368319 | calls=15 visited=0 cex=0 sat=0 spent=14",
      "diamond-811 switch: Success | upd sw1; upd sw15; upd sw2; wait; upd sw0 | 7760706676265626571 | calls=6 visited=0 cex=0 sat=0 spent=5",
      "diamond-811 rule: Success | upd sw1; upd sw15; upd sw2; wait; upd sw0 | 7760706676265626571 | calls=6 visited=0 cex=0 sat=0 spent=5",
      "diamond-812 switch: Success | upd sw12; upd sw14; upd sw15; upd sw1; wait; upd sw9 | 9245922362877536336 | calls=6 visited=0 cex=0 sat=0 spent=5",
      "diamond-812 rule: Success | upd sw12; upd sw14; upd sw15; upd sw1; wait; upd sw9 | 9245922362877536336 | calls=6 visited=0 cex=0 sat=0 spent=5",
      "diamond-813 switch: Success | upd sw3; upd sw5; upd sw7; upd sw2; wait; upd sw4; upd sw6 | 6097897775204880161 | calls=7 visited=0 cex=0 sat=0 spent=6",
      "diamond-813 rule: Success | upd sw3; upd sw5; upd sw7; upd sw2; wait; upd sw4; upd sw6 | 6097897775204880161 | calls=7 visited=0 cex=0 sat=0 spent=6",
      "double-821 switch: Impossible |  | 1469598103934665603 | calls=8 visited=0 cex=0 sat=0 spent=7",
      "double-821 rule: Success | upd sw0; upd sw1; upd sw2; upd sw4; upd sw7; upd sw5; wait; upd sw0; upd sw2; upd sw4; upd sw15; wait; upd sw1; upd sw7 | 16210707980843615605 | calls=18 visited=0 cex=3 sat=0 spent=17",
      "double-822 switch: Impossible |  | 1469598103934665603 | calls=6 visited=0 cex=0 sat=0 spent=5",
      "double-822 rule: Success | upd sw3; upd sw4; upd sw5; upd sw2; wait; upd sw3; upd sw5; upd sw6; wait; upd sw4 | 13521125900654781792 | calls=10 visited=0 cex=1 sat=0 spent=9",
      "deep-impossible switch: Aborted |  | 1469598103934665603 | calls=2610 visited=6198 cex=21189 sat=0 spent=2609",
      "deep-impossible rule: Aborted |  | 1469598103934665603 | calls=2610 visited=6198 cex=21189 sat=0 spent=2609",
  });
}

/// The same per-unit budget on four shards: verdicts and sequences. The
/// learning store makes retiring units export their wrong sets from
/// every shard at once; budget mode never imports, so the store cannot
/// change an outcome.
TEST(SearchPinTest, PerUnitBudgetFourShards) {
  SynthOptions Opts;
  Opts.UnitCheckCalls = 200;
  Opts.EarlyTermination = false;
  Opts.Shards = 4;
  Opts.Learning = std::make_shared<ConstraintStore>();
  expectPins(Opts, PinCounters::None, {
      "churn-step switch: Success | upd sw1; upd sw21; upd sw23; upd sw20; wait; upd sw0; upd sw22 | 8570944015681924894",
      "churn-step rule: Success | upd sw1; upd sw21; upd sw23; upd sw20; wait; upd sw0; upd sw22 | 8570944015681924894",
      "double-diamond switch: Impossible |  | 1469598103934665603",
      "double-diamond rule: Success | upd sw5; upd sw6; upd sw7; upd sw4; wait; upd sw6; upd sw8; wait; upd sw5; upd sw7 | 6907229058659628618",
      "fattree-blackhole switch: Impossible |  | 1469598103934665603",
      "fattree-blackhole rule: Impossible |  | 1469598103934665603",
      "liar-reachability-min switch: Impossible |  | 1469598103934665603",
      "liar-reachability-min rule: Impossible |  | 1469598103934665603",
      "liar-servicechain-min switch: Impossible |  | 1469598103934665603",
      "liar-servicechain-min rule: Impossible |  | 1469598103934665603",
      "liar-waypoint-min switch: Impossible |  | 1469598103934665603",
      "liar-waypoint-min rule: Impossible |  | 1469598103934665603",
      "wan-multiflow-waypoint switch: Success | upd r0_pop11; upd r0_pop12; upd r0_pop13; upd r0_pop14; upd r1_pop2; upd r1_pop13; upd r0_pop5; wait; upd r0_pop1; upd r1_pop3; wait; upd r1_pop0; upd r1_pop10; wait; upd r1_pop11 | 6341639753985368319",
      "wan-multiflow-waypoint rule: Success | upd r0_pop11; upd r0_pop12; upd r0_pop13; upd r0_pop14; upd r1_pop2; upd r1_pop13; upd r0_pop5; wait; upd r0_pop1; upd r1_pop3; wait; upd r1_pop0; upd r1_pop10; wait; upd r1_pop11 | 6341639753985368319",
      "diamond-811 switch: Success | upd sw1; upd sw15; upd sw2; wait; upd sw0 | 7760706676265626571",
      "diamond-811 rule: Success | upd sw1; upd sw15; upd sw2; wait; upd sw0 | 7760706676265626571",
      "diamond-812 switch: Success | upd sw12; upd sw14; upd sw15; upd sw1; wait; upd sw9 | 9245922362877536336",
      "diamond-812 rule: Success | upd sw12; upd sw14; upd sw15; upd sw1; wait; upd sw9 | 9245922362877536336",
      "diamond-813 switch: Success | upd sw3; upd sw5; upd sw7; upd sw2; wait; upd sw4; upd sw6 | 6097897775204880161",
      "diamond-813 rule: Success | upd sw3; upd sw5; upd sw7; upd sw2; wait; upd sw4; upd sw6 | 6097897775204880161",
      "double-821 switch: Impossible |  | 1469598103934665603",
      "double-821 rule: Success | upd sw0; upd sw1; upd sw2; upd sw4; upd sw7; upd sw5; wait; upd sw0; upd sw2; upd sw4; upd sw15; wait; upd sw1; upd sw7 | 16210707980843615605",
      "double-822 switch: Impossible |  | 1469598103934665603",
      "double-822 rule: Success | upd sw3; upd sw4; upd sw5; upd sw2; wait; upd sw3; upd sw5; upd sw6; wait; upd sw4 | 13521125900654781792",
      "deep-impossible switch: Aborted |  | 1469598103934665603",
      "deep-impossible rule: Aborted |  | 1469598103934665603",
  });
}

/// Deterministic budget mode on four shards: verdicts and sequences are
/// shard-count independent by contract, so they must equal the one-shard
/// pins above; the counters may vary with scheduling and are not pinned.
/// A learning store engages the export, as above.
TEST(SearchPinTest, BudgetFourShards) {
  SynthOptions Opts;
  Opts.MaxCheckCalls = 30;
  Opts.Shards = 4;
  Opts.Learning = std::make_shared<ConstraintStore>();
  expectPins(Opts, PinCounters::None, {
      "churn-step switch: Aborted |  | 1469598103934665603",
      "churn-step rule: Aborted |  | 1469598103934665603",
      "double-diamond switch: Impossible |  | 1469598103934665603",
      "double-diamond rule: Aborted |  | 1469598103934665603",
      "fattree-blackhole switch: Aborted |  | 1469598103934665603",
      "fattree-blackhole rule: Aborted |  | 1469598103934665603",
      "liar-reachability-min switch: Impossible |  | 1469598103934665603",
      "liar-reachability-min rule: Impossible |  | 1469598103934665603",
      "liar-servicechain-min switch: Impossible |  | 1469598103934665603",
      "liar-servicechain-min rule: Impossible |  | 1469598103934665603",
      "liar-waypoint-min switch: Impossible |  | 1469598103934665603",
      "liar-waypoint-min rule: Impossible |  | 1469598103934665603",
      "wan-multiflow-waypoint switch: Aborted |  | 1469598103934665603",
      "wan-multiflow-waypoint rule: Aborted |  | 1469598103934665603",
      "diamond-811 switch: Success | upd sw1; upd sw15; upd sw2; wait; upd sw0 | 7760706676265626571",
      "diamond-811 rule: Success | upd sw1; upd sw15; upd sw2; wait; upd sw0 | 7760706676265626571",
      "diamond-812 switch: Success | upd sw12; upd sw14; upd sw15; upd sw1; wait; upd sw9 | 9245922362877536336",
      "diamond-812 rule: Success | upd sw12; upd sw14; upd sw15; upd sw1; wait; upd sw9 | 9245922362877536336",
      "diamond-813 switch: Aborted |  | 1469598103934665603",
      "diamond-813 rule: Aborted |  | 1469598103934665603",
      "double-821 switch: Impossible |  | 1469598103934665603",
      "double-821 rule: Aborted |  | 1469598103934665603",
      "double-822 switch: Impossible |  | 1469598103934665603",
      "double-822 rule: Aborted |  | 1469598103934665603",
      "deep-impossible switch: Aborted |  | 1469598103934665603",
      "deep-impossible rule: Aborted |  | 1469598103934665603",
  });
}
