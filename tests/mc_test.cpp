//===- tests/mc_test.cpp - model checker tests -----------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "ltl/Properties.h"
#include "ltl/TraceEval.h"
#include "mc/LabelingChecker.h"
#include "mc/NaiveTraceChecker.h"
#include "topo/Fig1.h"

#include "AllocCounter.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace netupd;
using namespace netupd::testutil;

TEST(LabelingCheckerTest, Fig1RedSatisfiesReachability) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, N.srcPort(), N.dstPort());

  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  LabelingChecker Checker;
  EXPECT_TRUE(Checker.bind(K, Phi).Holds);
}

TEST(LabelingCheckerTest, BrokenConfigYieldsCounterexample) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, N.srcPort(), N.dstPort());

  // Update A1 to green (points to C2) while C2 has no rules: blackhole.
  Config Broken = N.Red;
  Broken.setTable(N.A[0], N.Green.table(N.A[0]));

  KripkeStructure K(N.Topo, Broken, {N.FlowH1H3});
  LabelingChecker Checker;
  CheckResult R = Checker.bind(K, Phi);
  ASSERT_FALSE(R.Holds);
  ASSERT_FALSE(R.Cex.empty());

  // The counterexample is a real trace that violates the property.
  Trace T;
  for (StateId S : R.Cex)
    T.push_back(K.stateInfo(S));
  EXPECT_FALSE(evalOnTrace(Phi, T));
  // It passes through the updated switch A1 and dies at C2.
  bool SeesA1 = false;
  for (StateId S : R.Cex)
    SeesA1 |= K.stateSwitch(S) == N.A[0];
  EXPECT_TRUE(SeesA1);
}

TEST(LabelingCheckerTest, IncrementalTracksUpdatesAndRollbacks) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, N.srcPort(), N.dstPort());

  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  LabelingChecker Checker;
  ASSERT_TRUE(Checker.bind(K, Phi).Holds);

  // Bad first step: A1 -> green. Recheck must fail.
  std::vector<StateId> Changed;
  auto Undo = K.applySwitchUpdate(N.A[0], N.Green.table(N.A[0]), Changed);
  UpdateInfo Info;
  Info.Sw = N.A[0];
  Info.ChangedStates = &Changed;
  EXPECT_FALSE(Checker.recheckAfterUpdate(Info).Holds);
  Checker.notifyRollback();
  K.undo(Undo);

  // Good first step: C2 -> green (C2 unreachable initially).
  Changed.clear();
  auto Undo2 = K.applySwitchUpdate(N.C2, N.Green.table(N.C2), Changed);
  Info.Sw = N.C2;
  EXPECT_TRUE(Checker.recheckAfterUpdate(Info).Holds);

  // Then A1 -> green completes the transition.
  std::vector<StateId> Changed2;
  auto Undo3 = K.applySwitchUpdate(N.A[0], N.Green.table(N.A[0]), Changed2);
  Info.Sw = N.A[0];
  Info.ChangedStates = &Changed2;
  EXPECT_TRUE(Checker.recheckAfterUpdate(Info).Holds);

  // Roll everything back; the labels must equal the original ones
  // (verified against a fresh bind below).
  Checker.notifyRollback();
  K.undo(Undo3);
  Checker.notifyRollback();
  K.undo(Undo2);

  LabelingChecker Fresh;
  KripkeStructure K2(N.Topo, N.Red, {N.FlowH1H3});
  ASSERT_TRUE(Fresh.bind(K2, Phi).Holds);
  for (StateId S = 0; S != K.numStates(); ++S)
    EXPECT_EQ(Checker.label(S), Fresh.label(S)) << K.stateName(S);
}

namespace {

struct CheckerAgreementParam {
  uint64_t Seed;
  unsigned NumSwitches;
  unsigned FormulaDepth;
};

class CheckerAgreementTest
    : public ::testing::TestWithParam<CheckerAgreementParam> {};

} // namespace

/// Property test: on random configurations and random formulas, the
/// labeling checker agrees with brute-force trace enumeration.
TEST_P(CheckerAgreementTest, LabelingMatchesNaive) {
  CheckerAgreementParam P = GetParam();
  Rng R(P.Seed);
  for (int Round = 0; Round != 25; ++Round) {
    RandomNet Net = randomNet(R, P.NumSwitches);
    Config Cfg = randomConfig(Net, R);
    FormulaFactory FF;
    Formula Phi = randomFormula(FF, R, P.FormulaDepth, Net.Topo.numSwitches(),
                                Net.Topo.numPorts());

    KripkeStructure K1(Net.Topo, Cfg, Net.Classes);
    KripkeStructure K2(Net.Topo, Cfg, Net.Classes);
    LabelingChecker Labeling;
    NaiveTraceChecker Naive;
    bool A = Labeling.bind(K1, Phi).Holds;
    bool B = Naive.bind(K2, Phi).Holds;
    EXPECT_EQ(A, B) << printFormula(Phi);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, CheckerAgreementTest,
    ::testing::Values(CheckerAgreementParam{21, 4, 2},
                      CheckerAgreementParam{22, 5, 3},
                      CheckerAgreementParam{23, 6, 3},
                      CheckerAgreementParam{24, 7, 2},
                      CheckerAgreementParam{25, 5, 4},
                      CheckerAgreementParam{26, 8, 3}));

namespace {

/// A random property of one of the three §6 families over \p Net. The
/// waypoints are drawn in order from the path \p K's configuration gives
/// packets entering at the source, so the base configuration satisfies
/// the property about as often as it satisfies reachability.
Formula stormProperty(FormulaFactory &FF, const RandomNet &Net,
                      const KripkeStructure &K, Rng &R, unsigned Family) {
  std::vector<SwitchId> Path;
  for (StateId S : K.initialStates()) {
    if (K.statePort(S) != Net.SrcPort)
      continue;
    for (unsigned Hops = 0; Hops != K.numStates() && !K.isSink(S); ++Hops) {
      Path.push_back(K.stateSwitch(S));
      S = K.succs(S)[0];
    }
    break;
  }
  // A switch from Path[From..], or any switch once the path is used up.
  auto Waypoint = [&](size_t From) -> SwitchId {
    if (From < Path.size())
      return Path[From + R.nextBelow(Path.size() - From)];
    return static_cast<SwitchId>(R.nextBelow(Net.Topo.numSwitches()));
  };
  switch (Family) {
  case 0:
    return reachabilityProperty(FF, Net.SrcPort, Net.DstPort);
  case 1:
    return waypointProperty(FF, Net.SrcPort, Prop::onSwitch(Waypoint(0)),
                            Net.DstPort);
  default: {
    SwitchId First = Waypoint(0);
    size_t At = std::find(Path.begin(), Path.end(), First) - Path.begin();
    return serviceChainProperty(
        FF, Net.SrcPort,
        {Prop::onSwitch(First), Prop::onSwitch(Waypoint(At + 1))},
        Net.DstPort);
  }
  }
}

/// True if \p Cycle is a forwarding loop of \p K through a state of
/// \p Changed: consecutive states (and last to first) are joined by
/// non-self-loop edges.
bool isLoopThrough(const KripkeStructure &K, const std::vector<StateId> &Cycle,
                   const std::vector<StateId> &Changed) {
  if (Cycle.empty())
    return false;
  bool ThroughChanged = false;
  for (size_t I = 0; I != Cycle.size(); ++I) {
    StateId From = Cycle[I], To = Cycle[(I + 1) % Cycle.size()];
    StateSpan Succs = K.succs(From);
    if (From == To || std::find(Succs.begin(), Succs.end(), To) == Succs.end())
      return false;
    ThroughChanged |=
        std::find(Changed.begin(), Changed.end(), From) != Changed.end();
  }
  return ThroughChanged;
}

} // namespace

/// Property test: after random update/rollback storms over all three §6
/// property families, incremental rechecking agrees with a batch checker
/// bound fresh to the same configuration — verdict, counterexample and
/// labels. Passing updates stack up, so rollbacks run at depths above 1
/// and reuse the undo frames and scratch buffers of earlier queries.
TEST(LabelingCheckerTest, IncrementalEqualsBatchUnderUpdateStorm) {
  Rng R(31);
  for (unsigned Family = 0; Family != 3; ++Family) {
    unsigned Exercised = 0, MaxDepth = 0;
    for (int Round = 0; Round != 500 && Exercised != 6; ++Round) {
      RandomNet Net = randomNet(R, 6);
      Config Cfg = randomConfig(Net, R);
      KripkeStructure K(Net.Topo, Cfg, Net.Classes);
      FormulaFactory FF;
      Formula Phi = stormProperty(FF, Net, K, R, Family);
      LabelingChecker Inc(LabelingChecker::Mode::Incremental);
      if (!Inc.bind(K, Phi).Holds)
        continue; // The random base config must satisfy the property.
      ++Exercised;

      // Mirror the synthesizer's discipline: a failed recheck is rolled
      // back immediately, a passing one may stick around or be rolled
      // back later.
      std::vector<KripkeStructure::UndoRecord> Undos;
      for (int Step = 0; Step != 16; ++Step) {
        if (!Undos.empty() && R.nextBool(0.4)) {
          Inc.notifyRollback();
          K.undo(Undos.back());
          Undos.pop_back();
        } else {
          Config Mut = randomConfig(Net, R);
          SwitchId Sw =
              static_cast<SwitchId>(R.nextBelow(Net.Topo.numSwitches()));
          std::vector<StateId> Changed;
          KripkeStructure::UndoRecord Undo =
              K.applySwitchUpdate(Sw, Mut.table(Sw), Changed);
          UpdateInfo Info;
          Info.Sw = Sw;
          Info.ChangedStates = &Changed;
          CheckResult Got = Inc.recheckAfterUpdate(Info);

          // Verdict and counterexample equal a fresh bind's. A new loop
          // is the exception: the incremental search starts at the
          // changed states, so it may report another cycle of the same
          // configuration than the whole-structure search does.
          KripkeStructure KNew(Net.Topo, K.config(), Net.Classes);
          LabelingChecker Fresh(LabelingChecker::Mode::Batch);
          CheckResult Want = Fresh.bind(KNew, Phi);
          EXPECT_EQ(Got.Holds, Want.Holds) << printFormula(Phi);
          if (KNew.findForwardingLoop())
            EXPECT_TRUE(isLoopThrough(K, Got.Cex, Changed));
          else
            EXPECT_EQ(Got.Cex, Want.Cex) << printFormula(Phi);

          if (Got.Holds) {
            Undos.push_back(std::move(Undo));
            MaxDepth = std::max(MaxDepth, unsigned(Undos.size()));
          } else {
            Inc.notifyRollback();
            K.undo(Undo);
          }
        }

        // The labels must equal those of a fresh bind on the current
        // configuration.
        KripkeStructure KRef(Net.Topo, K.config(), Net.Classes);
        LabelingChecker Ref(LabelingChecker::Mode::Batch);
        CheckResult RefRes = Ref.bind(KRef, Phi);
        EXPECT_TRUE(RefRes.Holds); // Only passing configs survive.
        for (StateId S = 0; S != K.numStates(); ++S)
          EXPECT_EQ(Inc.label(S), Ref.label(S)) << K.stateName(S);
      }
    }
    EXPECT_EQ(Exercised, 6u) << "family " << Family;
    EXPECT_GE(MaxDepth, 2u) << "family " << Family;
  }
}

/// The Batch checker's single DFS both rejects loops and orders the
/// labeling. Its counterexample for a loop must be exactly the cycle
/// KripkeStructure::findForwardingLoop() reports (the search learns W
/// constraints from it), and on DAG-like configurations its labels must
/// equal a fresh Incremental bind's.
TEST(LabelingCheckerTest, OnePassFullCheckMatchesLoopSearchAndFreshBind) {
  Rng R(41);
  unsigned Loops = 0, Dags = 0;
  for (int Round = 0; Round != 40; ++Round) {
    RandomNet Net = randomNet(R, 4 + static_cast<unsigned>(R.nextBelow(5)));
    FormulaFactory FF;
    Formula Phi = randomFormula(FF, R, 3, Net.Topo.numSwitches(),
                                Net.Topo.numPorts());

    // Bind both modes on one configuration, then let the Batch checker
    // recheck a chain of further configurations.
    KripkeStructure K(Net.Topo, randomConfig(Net, R), Net.Classes);
    LabelingChecker Batch(LabelingChecker::Mode::Batch);
    KripkeStructure KInc(Net.Topo, K.config(), Net.Classes);
    LabelingChecker IncBind(LabelingChecker::Mode::Incremental);
    CheckResult IncRes = IncBind.bind(KInc, Phi);
    CheckResult Got = Batch.bind(K, Phi);
    for (int Step = 0; Step != 6; ++Step) {
      if (Step != 0) {
        Config Mut = randomConfig(Net, R);
        SwitchId Sw =
            static_cast<SwitchId>(R.nextBelow(Net.Topo.numSwitches()));
        std::vector<StateId> Changed;
        K.applySwitchUpdate(Sw, Mut.table(Sw), Changed);
        UpdateInfo Info;
        Info.Sw = Sw;
        Info.ChangedStates = &Changed;
        Got = Batch.recheckAfterUpdate(Info);
      }

      KripkeStructure KFresh(Net.Topo, K.config(), Net.Classes);
      LabelingChecker Fresh(LabelingChecker::Mode::Incremental);
      CheckResult Want = Fresh.bind(KFresh, Phi);
      if (Step == 0) {
        EXPECT_EQ(IncRes.Holds, Want.Holds);
        EXPECT_EQ(IncRes.Cex, Want.Cex);
      }
      EXPECT_EQ(Got.Holds, Want.Holds) << printFormula(Phi);
      EXPECT_EQ(Got.Cex, Want.Cex) << printFormula(Phi);

      if (auto Loop = K.findForwardingLoop()) {
        ++Loops;
        EXPECT_FALSE(Got.Holds);
        EXPECT_EQ(Got.Cex, *Loop);
        EXPECT_EQ(Want.Cex, *Loop);
        continue;
      }
      ++Dags;
      for (StateId S = 0; S != K.numStates(); ++S)
        EXPECT_EQ(Batch.label(S), Fresh.label(S)) << K.stateName(S);
    }
  }
  // Both kinds of configuration were exercised.
  EXPECT_GE(Loops, 20u);
  EXPECT_GE(Dags, 20u);
}

TEST(LabelingCheckerTest, PostOrderPutsSuccessorsFirst) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, N.srcPort(), N.dstPort());
  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  LabelingChecker Checker(LabelingChecker::Mode::Batch);
  ASSERT_TRUE(Checker.bind(K, Phi).Holds);

  const std::vector<StateId> &Order = Checker.postOrder();
  ASSERT_EQ(Order.size(), K.numStates());
  std::vector<unsigned> Pos(K.numStates(), K.numStates());
  for (unsigned I = 0; I != Order.size(); ++I)
    Pos[Order[I]] = I;
  for (StateId S = 0; S != K.numStates(); ++S) {
    ASSERT_LT(Pos[S], K.numStates()) << "state missing from the order";
    for (StateId Next : K.succs(S)) {
      if (Next != S) {
        EXPECT_LT(Pos[Next], Pos[S]);
      }
    }
  }
}

TEST(LabelingCheckerTest, BatchModeWorksWithoutRollbacks) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, N.srcPort(), N.dstPort());

  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  LabelingChecker Batch(LabelingChecker::Mode::Batch);
  ASSERT_TRUE(Batch.bind(K, Phi).Holds);

  std::vector<StateId> Changed;
  auto Undo = K.applySwitchUpdate(N.C2, N.Green.table(N.C2), Changed);
  UpdateInfo Info;
  Info.Sw = N.C2;
  Info.ChangedStates = &Changed;
  EXPECT_TRUE(Batch.recheckAfterUpdate(Info).Holds);
  Batch.notifyRollback();
  K.undo(Undo);
  EXPECT_TRUE(Batch.recheckAfterUpdate(Info).Holds);
}

TEST(LabelingCheckerTest, IncrementalDoesLessWorkThanBatch) {
  // On a long chain, updating the switch next to the destination must
  // relabel only a handful of ancestors, far fewer than a full pass.
  Topology T;
  const unsigned Len = 40;
  std::vector<SwitchId> Chain;
  for (unsigned I = 0; I != Len; ++I)
    Chain.push_back(T.addSwitch("s" + std::to_string(I)));
  for (unsigned I = 0; I + 1 != Len; ++I)
    T.connectSwitches(Chain[I], Chain[I + 1]);
  HostId H0 = T.addHost("h0");
  HostId H1 = T.addHost("h1");
  PortId Src = T.attachHost(H0, Chain[0]);
  PortId Dst = T.attachHost(H1, Chain[Len - 1]);

  TrafficClass C{makeHeader(1, 2), "c"};
  Config Cfg(Len);
  installPath(T, Cfg, C, Chain, H1);

  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, Src, Dst);

  KripkeStructure K(T, Cfg, {C});
  LabelingChecker Inc;
  ASSERT_TRUE(Inc.bind(K, Phi).Holds);
  uint64_t OpsAfterBind = Inc.numLabelOps();

  // Re-install the same last-hop rule with a cosmetic priority change so
  // edges stay identical except for recomputation at that switch.
  Table NewTable = Cfg.table(Chain[Len - 1]);
  std::vector<StateId> Changed;
  auto Undo = K.applySwitchUpdate(Chain[Len - 1], NewTable, Changed);
  UpdateInfo Info;
  Info.Sw = Chain[Len - 1];
  Info.ChangedStates = &Changed;
  ASSERT_TRUE(Inc.recheckAfterUpdate(Info).Holds);
  uint64_t IncrementalOps = Inc.numLabelOps() - OpsAfterBind;
  EXPECT_LT(IncrementalOps, OpsAfterBind / 4)
      << "incremental recheck relabeled too much of the structure";
  Inc.notifyRollback();
  K.undo(Undo);
}

/// After one warm-up, a recheck plus rollback that leaves every label
/// unchanged allocates nothing, in either mode: the labels, the relabel
/// order, the DFS stacks and the undo frames all live in reused checker buffers.
TEST(LabelingCheckerTest, UnchangedRecheckAndRollbackAllocateNothing) {
  // The chain and cosmetic last-hop update of
  // IncrementalDoesLessWorkThanBatch.
  Topology T;
  const unsigned Len = 40;
  std::vector<SwitchId> Chain;
  for (unsigned I = 0; I != Len; ++I)
    Chain.push_back(T.addSwitch("s" + std::to_string(I)));
  for (unsigned I = 0; I + 1 != Len; ++I)
    T.connectSwitches(Chain[I], Chain[I + 1]);
  HostId H0 = T.addHost("h0");
  HostId H1 = T.addHost("h1");
  PortId Src = T.attachHost(H0, Chain[0]);
  PortId Dst = T.attachHost(H1, Chain[Len - 1]);

  TrafficClass C{makeHeader(1, 2), "c"};
  Config Cfg(Len);
  installPath(T, Cfg, C, Chain, H1);

  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, Src, Dst);

  for (auto Mode :
       {LabelingChecker::Mode::Incremental, LabelingChecker::Mode::Batch}) {
    KripkeStructure K(T, Cfg, {C});
    LabelingChecker Checker(Mode);
    ASSERT_TRUE(Checker.bind(K, Phi).Holds);

    SwitchId Last = Chain[Len - 1];
    std::vector<StateId> Changed;
    auto Undo = K.applySwitchUpdate(Last, Cfg.table(Last), Changed);
    // The update leaves every edge as it was; name the last two hops'
    // states as changed anyway, so the recheck relabels them (to the
    // labels they already have).
    for (StateId S = 0; S != K.numStates(); ++S)
      if (K.stateSwitch(S) == Last || K.stateSwitch(S) == Chain[Len - 2])
        Changed.push_back(S);
    UpdateInfo Info;
    Info.Sw = Last;
    Info.ChangedStates = &Changed;

    ASSERT_TRUE(Checker.recheckAfterUpdate(Info).Holds); // Warm-up.
    Checker.notifyRollback();

    uint64_t OpsBefore = Checker.numLabelOps();
    uint64_t AllocsBefore = NumAllocs.load(std::memory_order_relaxed);
    CheckResult Res = Checker.recheckAfterUpdate(Info);
    Checker.notifyRollback();
    uint64_t Allocs =
        NumAllocs.load(std::memory_order_relaxed) - AllocsBefore;

    EXPECT_TRUE(Res.Holds) << Checker.name();
    // Incremental relabels exactly the named states: none changes, so
    // nothing propagates. Batch relabels every state.
    EXPECT_EQ(Checker.numLabelOps() - OpsBefore,
              Mode == LabelingChecker::Mode::Batch ? K.numStates()
                                                   : Changed.size())
        << Checker.name();
    EXPECT_EQ(Allocs, 0u) << Checker.name();
    K.undo(Undo);
  }
}

TEST(NaiveTraceCheckerTest, AgreesWithTraceEvalOnFig1) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Good = reachabilityProperty(FF, N.srcPort(), N.dstPort());
  // Reversed property is violated (H3 sends nothing in this class).
  Formula AlwaysC2 = FF.finally_(FF.atom(Prop::onSwitch(N.C2)));

  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  NaiveTraceChecker Checker;
  EXPECT_TRUE(Checker.bind(K, Good).Holds);
  KripkeStructure K2(N.Topo, N.Red, {N.FlowH1H3});
  EXPECT_FALSE(Checker.bind(K2, AlwaysC2).Holds);
}
