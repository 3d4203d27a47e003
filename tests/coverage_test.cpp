//===- tests/coverage_test.cpp - breadth tests -----------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Breadth coverage across modules: semantic identities of the LTL
/// toolchain, synthesis sweeps over every topology family, simulator
/// corner cases, and the documented relaxations of the optimization
/// machinery.
///
//===----------------------------------------------------------------------===//

#include "ltl/Parser.h"
#include "ltl/Properties.h"
#include "ltl/TraceEval.h"
#include "mc/LabelingChecker.h"
#include "sim/Simulator.h"
#include "synth/EarlyTermination.h"
#include "synth/OrderUpdate.h"
#include "synth/WaitRemoval.h"
#include "topo/Fig1.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace netupd;
using namespace netupd::testutil;

/// Classic LTL identities hold under the trace evaluator.
TEST(LtlIdentitiesTest, DualityAndUnrolling) {
  FormulaFactory FF;
  Rng R(2301);
  for (int Round = 0; Round != 150; ++Round) {
    Formula A = randomFormula(FF, R, 2);
    Formula B = randomFormula(FF, R, 2);
    Trace T = randomTrace(R, 1 + R.nextBelow(6));

    // !F a == G !a and !G a == F !a.
    EXPECT_EQ(evalOnTrace(FF.negate(FF.finally_(A)), T),
              evalOnTrace(FF.globally(FF.negate(A)), T));
    EXPECT_EQ(evalOnTrace(FF.negate(FF.globally(A)), T),
              evalOnTrace(FF.finally_(FF.negate(A)), T));
    // a U b == b | (a & X(a U b)).
    EXPECT_EQ(evalOnTrace(FF.until(A, B), T),
              evalOnTrace(FF.disj(B, FF.conj(A, FF.next(FF.until(A, B)))),
                          T));
    // a R b == b & (a | X(a R b)).
    EXPECT_EQ(
        evalOnTrace(FF.release(A, B), T),
        evalOnTrace(FF.conj(B, FF.disj(A, FF.next(FF.release(A, B)))), T));
    // F F a == F a; G G a == G a.
    EXPECT_EQ(evalOnTrace(FF.finally_(FF.finally_(A)), T),
              evalOnTrace(FF.finally_(A), T));
    EXPECT_EQ(evalOnTrace(FF.globally(FF.globally(A)), T),
              evalOnTrace(FF.globally(A), T));
  }
}

TEST(LtlIdentitiesTest, ImplicationIsMaterial) {
  FormulaFactory FF;
  Rng R(2302);
  for (int Round = 0; Round != 100; ++Round) {
    Formula A = randomFormula(FF, R, 2);
    Formula B = randomFormula(FF, R, 2);
    Trace T = randomTrace(R, 1 + R.nextBelow(5));
    EXPECT_EQ(evalOnTrace(FF.implies(A, B), T),
              !evalOnTrace(A, T) || evalOnTrace(B, T));
  }
}

namespace {

struct FamilyParam {
  const char *Family;
  unsigned Variant;
  PropertyKind Kind;
};

class FamilySynthesisTest : public ::testing::TestWithParam<FamilyParam> {};

} // namespace

/// Synthesis succeeds and is sound on diamonds over every topology
/// family the paper evaluates.
TEST_P(FamilySynthesisTest, SoundAcrossFamilies) {
  FamilyParam P = GetParam();
  Topology Topo = familyTopology(P.Variant);
  Rng R(2500 + P.Variant);
  std::optional<Scenario> S = makeDiamondScenario(Topo, R, P.Kind);
  if (!S)
    GTEST_SKIP() << "no diamond in this topology";

  FormulaFactory FF;
  LabelingChecker Checker;
  SynthResult Res = synthesizeUpdate(*S, FF, Checker);
  ASSERT_EQ(Res.Status, SynthStatus::Success);
  Formula Phi = S->buildProperty(FF);
  EXPECT_TRUE(allIntermediateConfigsHold(S->Topo, S->Initial, S->classes(),
                                         Phi, Res.Commands));
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilySynthesisTest,
    ::testing::Values(
        FamilyParam{"fattree", 0, PropertyKind::Reachability},
        FamilyParam{"zoo", 1, PropertyKind::Reachability},
        FamilyParam{"smallworld", 2, PropertyKind::Reachability},
        FamilyParam{"fattree", 3, PropertyKind::Waypoint},
        FamilyParam{"zoo", 4, PropertyKind::Waypoint},
        FamilyParam{"smallworld", 5, PropertyKind::Waypoint},
        FamilyParam{"fattree", 6, PropertyKind::ServiceChain},
        FamilyParam{"zoo", 7, PropertyKind::ServiceChain},
        FamilyParam{"smallworld", 8, PropertyKind::ServiceChain}),
    [](const ::testing::TestParamInfo<FamilyParam> &Info) {
      return std::string(Info.param.Family) + "_" +
             std::to_string(Info.param.Variant);
    });

TEST(SimulatorCornersTest, MulticastDeliversAllCopies) {
  // One rule forwarding out two host-facing ports.
  Topology T;
  SwitchId Sw = T.addSwitch("s");
  HostId HIn = T.addHost("in");
  HostId H1 = T.addHost("h1");
  HostId H2 = T.addHost("h2");
  T.attachHost(HIn, Sw);
  PortId P1 = T.attachHost(H1, Sw);
  PortId P2 = T.attachHost(H2, Sw);

  Rule R;
  R.Priority = 1;
  R.Pat = Pattern::wildcard();
  R.Actions.push_back(Action::forward(P1));
  R.Actions.push_back(Action::forward(P2));
  Config Cfg(1);
  Cfg.setTable(Sw, Table({R}));

  Simulator Sim(T, Cfg);
  Sim.injectPacket(HIn, makeHeader(1, 2), 5);
  ASSERT_TRUE(Sim.runToQuiescence());
  EXPECT_EQ(Sim.deliveries().size(), 2u);
  EXPECT_EQ(Sim.droppedCount(), 0u);
}

TEST(SimulatorCornersTest, HeaderRewriteObservedAtDelivery) {
  Topology T;
  SwitchId Sw = T.addSwitch("s");
  HostId HIn = T.addHost("in");
  HostId HOut = T.addHost("out");
  T.attachHost(HIn, Sw);
  PortId POut = T.attachHost(HOut, Sw);

  Rule R;
  R.Priority = 1;
  R.Pat = Pattern::wildcard();
  R.Actions.push_back(Action::setField(Field::Typ, 7));
  R.Actions.push_back(Action::forward(POut));
  Config Cfg(1);
  Cfg.setTable(Sw, Table({R}));

  Simulator Sim(T, Cfg);
  Sim.injectPacket(HIn, makeHeader(1, 2, 0));
  ASSERT_TRUE(Sim.runToQuiescence());
  ASSERT_EQ(Sim.deliveries().size(), 1u);
  EXPECT_EQ(Sim.deliveries()[0].Hdr.get(Field::Typ), 7u);
}

TEST(WaitRemovalCornersTest, EmptyAndAdditiveSequences) {
  Fig1Network N = buildFig1();
  EXPECT_TRUE(removeWaits(N.Topo, N.Red, {N.FlowH1H3}, {}).empty());

  // Purely additive updates (C2 gains rules while unreachable): the
  // candidate wait disappears.
  CommandSeq Seq;
  Seq.push_back(Command::update(N.C2, N.Green.table(N.C2)));
  Seq.push_back(Command::wait());
  Seq.push_back(Command::update(N.A[0], N.Green.table(N.A[0])));
  CommandSeq Out = removeWaits(N.Topo, N.Red, {N.FlowH1H3}, Seq);
  EXPECT_EQ(countWaits(Out), 0u);
}

TEST(EarlyTerminationCornersTest, OversizedClausesAreDroppedSoundly) {
  // Ops 0..32 updated, 33..64 not: a 33x32 constraint of 1,056 literals,
  // over the bound, is dropped. The chain 0 < 1 < ... < 64 puts every
  // updated op first, which the dropped constraint would contradict, so
  // the relaxation stays satisfiable.
  static_assert(33 * 32 > EarlyTermination::MaxClauseLits,
                "the oversized constraint must exceed the bound");
  std::vector<unsigned> Updated, NotUpdated;
  for (unsigned I = 0; I != 65; ++I)
    (I < 33 ? Updated : NotUpdated).push_back(I);
  EarlyTermination ET;
  ET.addCexConstraint(Updated, NotUpdated); // Dropped.
  for (unsigned I = 0; I != 64; ++I)
    ET.addCexConstraint({I + 1}, {I}); // I before I + 1.
  EXPECT_FALSE(ET.impossible()); // Relaxed: still satisfiable.
  EXPECT_EQ(ET.numClauses(), 64u);

  // Small contradictions are still caught.
  ET.addCexConstraint({0}, {64}); // 64 before 0 closes a cycle.
  EXPECT_TRUE(ET.impossible());

  // At the bound a 32x32 constraint is kept, and against the same chain
  // it is contradictory.
  static_assert(32 * 32 == EarlyTermination::MaxClauseLits,
                "the kept constraint must sit exactly at the bound");
  Updated.pop_back(); // 0..31 updated, 33..64 not.
  EarlyTermination AtBound;
  AtBound.addCexConstraint(Updated, NotUpdated);
  for (unsigned I = 0; I != 64; ++I)
    AtBound.addCexConstraint({I + 1}, {I});
  EXPECT_TRUE(AtBound.impossible());
}

TEST(PropertyTextTest, PaperFormulasParse) {
  // The §6 property templates, written in the concrete syntax.
  FormulaFactory FF;
  for (const char *Text :
       {"port=1 -> F port=2",
        "port=1 -> ((port!=2) U ((port=3) & F port=2))",
        "port=1 -> ((port!=4 & port!=2) U ((port=3) & "
        "((port!=2) U ((port=4) & F port=2))))",
        "G (sw=1 -> X sw=2)", "true U (false R port=9)"}) {
    ParseResult P = parseLtl(FF, Text);
    EXPECT_TRUE(P.ok()) << Text << ": " << P.Error;
    // Round-trips through the printer.
    ParseResult Q = parseLtl(FF, printFormula(P.F));
    ASSERT_TRUE(Q.ok());
    EXPECT_EQ(P.F, Q.F);
  }
}

TEST(CommandTest, PrinterAndApplication) {
  Fig1Network N = buildFig1();
  CommandSeq Seq;
  Seq.push_back(Command::update(N.C2, N.Green.table(N.C2)));
  Seq.push_back(Command::wait());
  Seq.push_back(Command::update(N.A[0], N.Green.table(N.A[0])));
  EXPECT_EQ(commandSeqToString(N.Topo, Seq), "upd C2; wait; upd A1");
  EXPECT_EQ(countWaits(Seq), 1u);

  Config End = N.Red;
  applyCommands(End, Seq);
  EXPECT_EQ(End, N.Green);
}

/// Rule-granularity ops compose: applying them in any successful order
/// reaches tables semantically identical to the final configuration.
TEST(RuleGranularityTest, OpsComposeToFinalTables) {
  Rng R(2601);
  Topology Base = buildSmallWorld(16, 4, 0.2, R);
  DiamondOptions Opts;
  Opts.NumFlows = 2;
  Opts.DisjointFlows = false;
  std::optional<Scenario> S =
      makeDiamondScenario(Base, R, PropertyKind::Reachability, Opts);
  ASSERT_TRUE(S.has_value());

  FormulaFactory FF;
  LabelingChecker Checker;
  SynthOptions SOpts;
  SOpts.RuleGranularity = true;
  SynthResult Res = synthesizeUpdate(*S, FF, Checker, SOpts);
  ASSERT_EQ(Res.Status, SynthStatus::Success);

  Config End = S->Initial;
  applyCommands(End, Res.Commands);
  for (SwitchId Sw = 0; Sw != End.numSwitches(); ++Sw)
    for (const TrafficClass &C : S->classes())
      for (PortId Pt : S->Topo.switchPorts(Sw))
        EXPECT_EQ(End.table(Sw).apply(C.Hdr, Pt),
                  S->Final.table(Sw).apply(C.Hdr, Pt));
}
