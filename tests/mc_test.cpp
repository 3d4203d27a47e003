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

namespace {

/// A chain s0 -> ... -> s(Len-1) with one host at each end and the path
/// between them installed for one traffic class.
struct ChainNet {
  Topology T;
  std::vector<SwitchId> Chain;
  PortId Src, Dst;
  TrafficClass C{makeHeader(1, 2), "c"};
  Config Cfg;
};

ChainNet buildChain(unsigned Len) {
  ChainNet N;
  for (unsigned I = 0; I != Len; ++I)
    N.Chain.push_back(N.T.addSwitch("s" + std::to_string(I)));
  for (unsigned I = 0; I + 1 != Len; ++I)
    N.T.connectSwitches(N.Chain[I], N.Chain[I + 1]);
  HostId H0 = N.T.addHost("h0");
  HostId H1 = N.T.addHost("h1");
  N.Src = N.T.attachHost(H0, N.Chain[0]);
  N.Dst = N.T.attachHost(H1, N.Chain[Len - 1]);
  N.Cfg = Config(Len);
  installPath(N.T, N.Cfg, N.C, N.Chain, H1);
  return N;
}

} // namespace

TEST(LabelingCheckerTest, IncrementalDoesLessWorkThanBatch) {
  // On a long chain, updating the switch next to the destination must
  // relabel only a handful of ancestors, far fewer than a full pass.
  const unsigned Len = 40;
  ChainNet N = buildChain(Len);
  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, N.Src, N.Dst);

  KripkeStructure K(N.T, N.Cfg, {N.C});
  LabelingChecker Inc;
  ASSERT_TRUE(Inc.bind(K, Phi).Holds);
  uint64_t OpsAfterBind = Inc.numLabelOps();

  // Re-install the same last-hop rule with a cosmetic priority change so
  // edges stay identical except for recomputation at that switch.
  SwitchId Last = N.Chain[Len - 1];
  Table NewTable = N.Cfg.table(Last);
  std::vector<StateId> Changed;
  auto Undo = K.applySwitchUpdate(Last, NewTable, Changed);
  UpdateInfo Info;
  Info.Sw = Last;
  Info.ChangedStates = &Changed;
  ASSERT_TRUE(Inc.recheckAfterUpdate(Info).Holds);
  uint64_t IncrementalOps = Inc.numLabelOps() - OpsAfterBind;
  EXPECT_LT(IncrementalOps, OpsAfterBind / 4)
      << "incremental recheck relabeled too much of the structure";
  Inc.notifyRollback();
  K.undo(Undo);
}

namespace {

/// Runs one warm-up recheck/rollback round trip of \p Info on \p Checker,
/// then a second one, and returns how many blocks the second allocated.
/// \p Res receives the second recheck's result and \p Ops the label
/// computations it made.
uint64_t allocsOfRoundTrip(LabelingChecker &Checker, const UpdateInfo &Info,
                           CheckResult &Res, uint64_t &Ops) {
  EXPECT_TRUE(Checker.recheckAfterUpdate(Info).Holds) << Checker.name();
  Checker.notifyRollback();

  uint64_t OpsBefore = Checker.numLabelOps();
  uint64_t AllocsBefore = NumAllocs.load(std::memory_order_relaxed);
  Res = Checker.recheckAfterUpdate(Info);
  Checker.notifyRollback();
  uint64_t Allocs = NumAllocs.load(std::memory_order_relaxed) - AllocsBefore;
  Ops = Checker.numLabelOps() - OpsBefore;
  return Allocs;
}

} // namespace

/// After one warm-up, a recheck plus rollback allocates nothing, in
/// either mode, whether or not the recheck changes labels: the label
/// arena, the saved-span trail, the frames, the relabel order and the
/// DFS stacks all keep their capacity across queries.
TEST(LabelingCheckerTest, UnchangedRecheckAndRollbackAllocateNothing) {
  // The chain and cosmetic last-hop update of
  // IncrementalDoesLessWorkThanBatch.
  const unsigned Len = 40;
  ChainNet N = buildChain(Len);
  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, N.Src, N.Dst);

  for (auto Mode :
       {LabelingChecker::Mode::Incremental, LabelingChecker::Mode::Batch}) {
    KripkeStructure K(N.T, N.Cfg, {N.C});
    LabelingChecker Checker(Mode);
    ASSERT_TRUE(Checker.bind(K, Phi).Holds);

    SwitchId Last = N.Chain[Len - 1];
    std::vector<StateId> Changed;
    auto Undo = K.applySwitchUpdate(Last, N.Cfg.table(Last), Changed);
    // The update leaves every edge as it was; name the last two hops'
    // states as changed anyway, so the recheck relabels them (to the
    // labels they already have).
    for (StateId S = 0; S != K.numStates(); ++S)
      if (K.stateSwitch(S) == Last || K.stateSwitch(S) == N.Chain[Len - 2])
        Changed.push_back(S);
    UpdateInfo Info;
    Info.Sw = Last;
    Info.ChangedStates = &Changed;

    CheckResult Res;
    uint64_t Ops = 0;
    uint64_t Allocs = allocsOfRoundTrip(Checker, Info, Res, Ops);
    EXPECT_TRUE(Res.Holds) << Checker.name();
    // Incremental relabels exactly the named states: none changes, so
    // nothing propagates. Batch relabels every state.
    EXPECT_EQ(Ops, Mode == LabelingChecker::Mode::Batch ? K.numStates()
                                                        : Changed.size())
        << Checker.name();
    EXPECT_EQ(Allocs, 0u) << Checker.name();
    K.undo(Undo);
  }

  // A recheck that does change labels: on Fig. 1, moving the unreachable
  // C2 to its green table turns its sink states into forwarding ones. The
  // property still holds, so no counterexample is built either.
  Fig1Network F = buildFig1();
  Formula Reach = reachabilityProperty(FF, F.srcPort(), F.dstPort());
  for (auto Mode :
       {LabelingChecker::Mode::Incremental, LabelingChecker::Mode::Batch}) {
    KripkeStructure K(F.Topo, F.Red, {F.FlowH1H3});
    LabelingChecker Checker(Mode);
    ASSERT_TRUE(Checker.bind(K, Reach).Holds);
    std::vector<LabelSet> Before;
    for (StateId S = 0; S != K.numStates(); ++S)
      Before.push_back(Checker.label(S));

    std::vector<StateId> Changed;
    auto Undo = K.applySwitchUpdate(F.C2, F.Green.table(F.C2), Changed);
    UpdateInfo Info;
    Info.Sw = F.C2;
    Info.ChangedStates = &Changed;

    CheckResult Res;
    uint64_t Ops = 0;
    uint64_t Allocs = allocsOfRoundTrip(Checker, Info, Res, Ops);
    EXPECT_TRUE(Res.Holds) << Checker.name();
    EXPECT_EQ(Allocs, 0u) << Checker.name();

    // The recheck really changed a label, and the rollback restored it.
    ASSERT_TRUE(Checker.recheckAfterUpdate(Info).Holds);
    unsigned Relabeled = 0;
    for (StateId S = 0; S != K.numStates(); ++S)
      Relabeled += Checker.label(S) != Before[S];
    EXPECT_GT(Relabeled, 0u) << Checker.name();
    Checker.notifyRollback();
    K.undo(Undo);
    if (Mode != LabelingChecker::Mode::Incremental)
      continue; // Batch relabels from scratch; it restores nothing.
    for (StateId S = 0; S != K.numStates(); ++S)
      EXPECT_EQ(Checker.label(S), Before[S]) << K.stateName(S);
  }
}

/// Binding a checker allocates a fixed number of buffers, none per state:
/// the labels share one arena, so a 4,096-state chain costs at most a few
/// more blocks (growth of the arena past one set per state) than a
/// 64-state one.
TEST(LabelingCheckerTest, BindAllocationsDoNotGrowWithStates) {
  auto allocsOfBind = [](unsigned Len, unsigned &NumStates) {
    ChainNet N = buildChain(Len);
    FormulaFactory FF;
    Formula Phi = reachabilityProperty(FF, N.Src, N.Dst);
    KripkeStructure K(N.T, N.Cfg, {N.C});
    NumStates = K.numStates();
    LabelingChecker Checker;
    uint64_t Before = NumAllocs.load(std::memory_order_relaxed);
    EXPECT_TRUE(Checker.bind(K, Phi).Holds);
    return NumAllocs.load(std::memory_order_relaxed) - Before;
  };
  unsigned SmallStates = 0, LargeStates = 0;
  allocsOfBind(64, SmallStates); // Warm-up: first-use statics.
  uint64_t Small = allocsOfBind(64, SmallStates);
  uint64_t Large = allocsOfBind(4096, LargeStates);
  ASSERT_GE(LargeStates, 4096u);
  EXPECT_LE(Large, Small + 4) << "bind allocates per state: " << Small
                              << " blocks for " << SmallStates << " states, "
                              << Large << " for " << LargeStates;
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
