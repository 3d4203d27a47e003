//===- tests/hsa_test.cpp - header-space backend tests ---------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "hsa/HsaChecker.h"
#include "hsa/HeaderSpace.h"

#include "mc/LabelingChecker.h"
#include "synth/OrderUpdate.h"
#include "topo/Fig1.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace netupd;
using namespace netupd::testutil;

TEST(HeaderSpaceTest, EncodeAndCover) {
  Header H = makeHeader(3, 5, 1);
  TernaryMatch Exact = TernaryMatch::ofHeader(H);
  EXPECT_TRUE(Exact.concrete());
  EXPECT_TRUE(Exact.covers(Exact));

  Pattern P = Pattern::onField(Field::Dst, 5);
  TernaryMatch M = TernaryMatch::ofPattern(P);
  EXPECT_FALSE(M.concrete());
  EXPECT_TRUE(M.covers(Exact));
  EXPECT_FALSE(M.covers(TernaryMatch::ofHeader(makeHeader(3, 6, 1))));
}

TEST(HeaderSpaceTest, IntersectAndOverlap) {
  TernaryMatch A = TernaryMatch::ofPattern(Pattern::onField(Field::Src, 1));
  TernaryMatch B = TernaryMatch::ofPattern(Pattern::onField(Field::Dst, 2));
  ASSERT_TRUE(A.overlaps(B));
  std::optional<TernaryMatch> I = A.intersect(B);
  ASSERT_TRUE(I.has_value());
  EXPECT_TRUE(I->covers(TernaryMatch::ofHeader(makeHeader(1, 2, 0))));

  TernaryMatch C = TernaryMatch::ofPattern(Pattern::onField(Field::Src, 9));
  EXPECT_FALSE(A.overlaps(C));
  EXPECT_FALSE(A.intersect(C).has_value());

  TernaryMatch W = TernaryMatch::wildcard();
  EXPECT_TRUE(W.overlaps(A));
  EXPECT_EQ(*W.intersect(A), A);
}

namespace {

/// Builds the Fig. 1 probe for H1 -> H3 reachability.
std::vector<ProbeSpec> fig1Probes(const Fig1Network &N) {
  ProbeSpec P;
  P.K = ProbeSpec::Kind::Reachability;
  P.ClassIdx = 0;
  P.SrcPort = N.srcPort();
  P.DstPort = N.dstPort();
  return {P};
}

} // namespace

TEST(PlumberTest, Fig1RedPasses) {
  Fig1Network N = buildFig1();
  Plumber P(N.Topo, N.Red, {N.FlowH1H3}, fig1Probes(N));
  EXPECT_TRUE(P.allProbesPass());
  EXPECT_GT(P.numFlowExpansions(), 0u);
}

TEST(PlumberTest, IncrementalUpdateFlipsVerdict) {
  Fig1Network N = buildFig1();
  Plumber P(N.Topo, N.Red, {N.FlowH1H3}, fig1Probes(N));
  ASSERT_TRUE(P.allProbesPass());

  // A1 -> green while C2 is empty: blackhole.
  P.updateSwitch(N.A[0], N.Green.table(N.A[0]));
  EXPECT_FALSE(P.allProbesPass());

  // C2 -> green fixes it.
  P.updateSwitch(N.C2, N.Green.table(N.C2));
  EXPECT_TRUE(P.allProbesPass());

  // And back to red still passes.
  P.updateSwitch(N.A[0], N.Red.table(N.A[0]));
  EXPECT_TRUE(P.allProbesPass());
}

TEST(PlumberTest, DetectsForwardingLoop) {
  Topology T;
  SwitchId A = T.addSwitch("a");
  SwitchId B = T.addSwitch("b");
  auto [PA, PB] = T.connectSwitches(A, B);
  HostId H = T.addHost("h");
  PortId In = T.attachHost(H, A);

  Config Cfg(2);
  Rule RA;
  RA.Priority = 1;
  RA.Pat = Pattern::wildcard();
  RA.Actions.push_back(Action::forward(PA));
  Cfg.setTable(A, Table({RA}));
  Rule RB;
  RB.Priority = 1;
  RB.Pat = Pattern::wildcard();
  RB.Actions.push_back(Action::forward(PB));
  Cfg.setTable(B, Table({RB}));

  ProbeSpec P;
  P.K = ProbeSpec::Kind::Reachability;
  P.ClassIdx = 0;
  P.SrcPort = In;
  P.DstPort = In;
  Plumber Engine(T, Cfg, {TrafficClass{makeHeader(1, 2), "c"}}, {P});
  EXPECT_FALSE(Engine.allProbesPass());
}

/// The HSA backend agrees with the labeling checker across random
/// mid-update configurations of diamond scenarios, for all three probe
/// kinds.
TEST(HsaCheckerTest, AgreesWithLabelingAcrossIntermediateConfigs) {
  Rng R(71);
  for (PropertyKind Kind :
       {PropertyKind::Reachability, PropertyKind::Waypoint,
        PropertyKind::ServiceChain}) {
    Topology Base = buildSmallWorld(18, 4, 0.2, R);
    std::optional<Scenario> S = makeDiamondScenario(Base, R, Kind);
    ASSERT_TRUE(S.has_value());
    FormulaFactory FF;
    Formula Phi = S->buildProperty(FF);

    std::vector<SwitchId> Diff = diffSwitches(S->Initial, S->Final);
    for (int Round = 0; Round != 20; ++Round) {
      // Random mid-update configuration.
      Config Mid = S->Initial;
      for (SwitchId Sw : Diff)
        if (R.nextBool())
          Mid.setTable(Sw, S->Final.table(Sw));

      KripkeStructure K1(S->Topo, Mid, S->classes());
      KripkeStructure K2(S->Topo, Mid, S->classes());
      LabelingChecker Labeling;
      HsaChecker Hsa(HsaChecker::probesFromScenario(*S));
      bool A = Labeling.bind(K1, Phi).Holds;
      bool B = Hsa.bind(K2, Phi).Holds;
      EXPECT_EQ(A, B) << "kind " << static_cast<int>(Kind) << " round "
                      << Round;
    }
  }
}

TEST(HsaCheckerTest, RollbackRestoresVerdicts) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, N.srcPort(), N.dstPort());

  ProbeSpec Spec;
  Spec.K = ProbeSpec::Kind::Reachability;
  Spec.SrcPort = N.srcPort();
  Spec.DstPort = N.dstPort();
  HsaChecker Checker({Spec});

  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  ASSERT_TRUE(Checker.bind(K, Phi).Holds);

  std::vector<StateId> Changed;
  auto Undo = K.applySwitchUpdate(N.A[0], N.Green.table(N.A[0]), Changed);
  UpdateInfo Info;
  Info.Sw = N.A[0];
  Info.OldTable = &Undo.Old->table();
  Info.ChangedStates = &Changed;
  EXPECT_FALSE(Checker.recheckAfterUpdate(Info).Holds);
  Checker.notifyRollback();
  K.undo(Undo);

  // The good first step still passes after the rollback.
  std::vector<StateId> Changed2;
  auto Undo2 = K.applySwitchUpdate(N.C2, N.Green.table(N.C2), Changed2);
  UpdateInfo Info2;
  Info2.Sw = N.C2;
  Info2.OldTable = &Undo2.Old->table();
  Info2.ChangedStates = &Changed2;
  EXPECT_TRUE(Checker.recheckAfterUpdate(Info2).Holds);
}

/// The synthesizer driven by the HSA backend (no counterexamples, like
/// NetPlumber) still produces sound sequences.
TEST(HsaCheckerTest, DrivesSynthesisWithoutCounterexamples) {
  Rng R(72);
  Topology Base = buildSmallWorld(16, 4, 0.2, R);
  std::optional<Scenario> S =
      makeDiamondScenario(Base, R, PropertyKind::Reachability);
  ASSERT_TRUE(S.has_value());

  FormulaFactory FF;
  HsaChecker Checker(HsaChecker::probesFromScenario(*S));
  SynthOptions Opts;
  Opts.RuleGranularity = true; // The mode the paper benches NetPlumber in.
  SynthResult Res = synthesizeUpdate(*S, FF, Checker, Opts);
  ASSERT_EQ(Res.Status, SynthStatus::Success);
  Formula Phi = S->buildProperty(FF);
  EXPECT_TRUE(allIntermediateConfigsHold(S->Topo, S->Initial, S->classes(),
                                         Phi, Res.Commands));
}
