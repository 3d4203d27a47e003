//===- tests/kripke_test.cpp - Kripke structure tests ----------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "kripke/Kripke.h"
#include "topo/Fig1.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace netupd;
using namespace netupd::testutil;

namespace {

/// The switch sequence of a Kripke trace, dropping repeated entries at the
/// same switch (arrival + egress).
std::vector<SwitchId> switchPath(const KripkeStructure &K,
                                 const std::vector<StateId> &T) {
  std::vector<SwitchId> Out;
  for (StateId S : T)
    if (Out.empty() || Out.back() != K.stateSwitch(S))
      Out.push_back(K.stateSwitch(S));
  return Out;
}

} // namespace

TEST(KripkeTest, Fig1RedConfigTraces) {
  Fig1Network N = buildFig1();
  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});

  EXPECT_TRUE(K.findForwardingLoop() == std::nullopt);

  // The trace entering at H1 follows the red path to H3's egress. (A
  // packet of this class injected at H3's own attachment is delivered
  // immediately — also an end-to-end trace, so filter by entry port.)
  std::vector<std::vector<StateId>> Traces = K.enumerateTraces(1000);
  std::vector<SwitchId> RedPath = {N.T[0], N.A[0], N.C1, N.A[2], N.T[2]};
  unsigned FromH1 = 0;
  for (const auto &T : Traces) {
    if (K.stateRole(T.back()) != KripkeStructure::Role::Egress)
      continue;
    if (K.statePort(T.front()) != N.srcPort())
      continue;
    ++FromH1;
    EXPECT_EQ(switchPath(K, T), RedPath);
    EXPECT_EQ(K.statePort(T.back()), N.dstPort());
  }
  EXPECT_EQ(FromH1, 1u);
}

TEST(KripkeTest, InitialStatesCoverIngresses) {
  Fig1Network N = buildFig1();
  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  // Four hosts, one class: four initial states.
  EXPECT_EQ(K.initialStates().size(), 4u);
  for (StateId S : K.initialStates())
    EXPECT_EQ(K.stateRole(S), KripkeStructure::Role::Arrival);
}

TEST(KripkeTest, CompleteAndSinksSelfLoop) {
  Fig1Network N = buildFig1();
  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  for (StateId S = 0; S != K.numStates(); ++S) {
    ASSERT_FALSE(K.succs(S).empty()) << K.stateName(S);
    if (K.isSink(S))
      EXPECT_EQ(K.succs(S)[0], S);
    else
      EXPECT_EQ(std::count(K.succs(S).begin(), K.succs(S).end(), S), 0)
          << K.stateName(S);
  }
}

TEST(KripkeTest, PredsMirrorSuccs) {
  Fig1Network N = buildFig1();
  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  for (StateId S = 0; S != K.numStates(); ++S)
    for (StateId Next : K.succs(S))
      EXPECT_NE(std::find(K.preds(Next).begin(), K.preds(Next).end(), S),
                K.preds(Next).end());
}

TEST(KripkeTest, ForwardingLoopDetected) {
  // Two switches forwarding a class to each other forever.
  Topology T;
  SwitchId A = T.addSwitch("a");
  SwitchId B = T.addSwitch("b");
  auto [PA, PB] = T.connectSwitches(A, B);
  HostId H = T.addHost("h");
  T.attachHost(H, A);

  Config Cfg(2);
  Rule RA;
  RA.Priority = 1;
  RA.Pat = Pattern::wildcard();
  RA.Actions.push_back(Action::forward(PA));
  Table TA;
  TA.addRule(RA);
  Cfg.setTable(A, TA);

  Rule RB;
  RB.Priority = 1;
  RB.Pat = Pattern::wildcard();
  RB.Actions.push_back(Action::forward(PB));
  Table TB;
  TB.addRule(RB);
  Cfg.setTable(B, TB);

  KripkeStructure K(T, Cfg, {TrafficClass{makeHeader(1, 2), "c"}});
  auto Loop = K.findForwardingLoop();
  ASSERT_TRUE(Loop.has_value());
  EXPECT_GE(Loop->size(), 2u);
  // The cycle stays within switches A and B.
  for (StateId S : *Loop)
    EXPECT_TRUE(K.stateSwitch(S) == A || K.stateSwitch(S) == B);
}

TEST(KripkeTest, SwitchUpdateChangesEdgesAndUndoRestores) {
  Fig1Network N = buildFig1();
  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});

  // Snapshot all successor lists.
  std::vector<std::vector<StateId>> Before;
  for (StateId S = 0; S != K.numStates(); ++S)
    Before.push_back(K.succs(S));

  // Update A1 to the green table (forward to C2 instead of C1).
  std::vector<StateId> Changed;
  KripkeStructure::UndoRecord Undo =
      K.applySwitchUpdate(N.A[0], N.Green.table(N.A[0]), Changed);
  EXPECT_FALSE(Changed.empty());
  for (StateId S : Changed)
    EXPECT_EQ(K.stateSwitch(S), N.A[0]);
  EXPECT_EQ(K.config().table(N.A[0]), N.Green.table(N.A[0]));

  K.undo(Undo);
  EXPECT_EQ(K.config().table(N.A[0]), N.Red.table(N.A[0]));
  for (StateId S = 0; S != K.numStates(); ++S)
    EXPECT_EQ(K.succs(S), Before[S]) << K.stateName(S);
}

// The buffer-reusing overload pair the DFS hot path runs on: apply into
// a caller-owned UndoRecord, undo(&&) donates the buffers back, and the
// next apply at the same depth reuses them — with results identical to
// the returning overload at every step.
TEST(KripkeTest, ReusedUndoRecordMatchesReturningOverload) {
  Fig1Network N = buildFig1();
  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});

  std::vector<std::vector<StateId>> Before;
  for (StateId S = 0; S != K.numStates(); ++S)
    Before.push_back(K.succs(S));

  KripkeStructure::UndoRecord Undo;
  std::vector<StateId> Changed;
  for (int Round = 0; Round != 3; ++Round) {
    // The reuse overload APPENDS to Changed (recomputeSwitch's
    // contract); the caller clears between edges, as the DFS does.
    Changed.clear();
    K.applySwitchUpdate(N.A[0], N.Green.table(N.A[0]), Changed, Undo);
    EXPECT_FALSE(Changed.empty());
    for (StateId S : Changed)
      EXPECT_EQ(K.stateSwitch(S), N.A[0]);
    EXPECT_EQ(K.config().table(N.A[0]), N.Green.table(N.A[0]));

    K.undo(std::move(Undo));
    EXPECT_EQ(K.config().table(N.A[0]), N.Red.table(N.A[0]));
    for (StateId S = 0; S != K.numStates(); ++S)
      EXPECT_EQ(K.succs(S), Before[S])
          << "round " << Round << ": " << K.stateName(S);
  }
}

TEST(KripkeTest, UpdateOfIdenticalTableChangesNothing) {
  Fig1Network N = buildFig1();
  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  std::vector<StateId> Changed;
  KripkeStructure::UndoRecord Undo =
      K.applySwitchUpdate(N.A[0], N.Red.table(N.A[0]), Changed);
  EXPECT_TRUE(Changed.empty());
  K.undo(Undo);
}

TEST(KripkeTest, MultipleClassesAreDisjoint) {
  Fig1Network N = buildFig1();
  TrafficClass Other{makeHeader(3, 1), "h3->h1"};
  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3, Other});
  for (StateId S = 0; S != K.numStates(); ++S)
    for (StateId Next : K.succs(S))
      EXPECT_EQ(K.stateClass(S), K.stateClass(Next));
}

TEST(KripkeTest, RandomConfigsNeverLoseCompleteness) {
  Rng R(77);
  for (int Round = 0; Round != 30; ++Round) {
    RandomNet Net = randomNet(R, 6);
    Config Cfg = randomConfig(Net, R);
    KripkeStructure K(Net.Topo, Cfg, Net.Classes);
    for (StateId S = 0; S != K.numStates(); ++S)
      EXPECT_FALSE(K.succs(S).empty());
  }
}
