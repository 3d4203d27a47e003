//===- tests/kripke_test.cpp - Kripke structure tests ----------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"
#include "kripke/Kripke.h"
#include "topo/Fig1.h"

#include "AllocCounter.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

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

/// \p Current with class \p Hdr's rules replaced by \p FinalT's: the table
/// one rule-granularity op installs (synth/OrderUpdate.cpp composes it
/// the same way).
Table withClassSlice(const Table &Current, const Table &FinalT,
                     const Header &Hdr) {
  auto InClass = [&](const Rule &R) {
    for (unsigned I = 0; I != NumFields; ++I)
      if (R.Pat.Values[I] && *R.Pat.Values[I] != Hdr.Values[I])
        return false;
    return true;
  };
  std::vector<Rule> Rules;
  for (const Rule &R : Current.rules())
    if (!InClass(R))
      Rules.push_back(R);
  for (const Rule &R : FinalT.rules())
    if (InClass(R))
      Rules.push_back(R);
  return Table(std::move(Rules));
}

/// Every successor and predecessor list of \p K, in order.
struct EdgeSnapshot {
  std::vector<std::vector<StateId>> Succs, Preds;
};

EdgeSnapshot snapshot(const KripkeStructure &K) {
  EdgeSnapshot E;
  for (StateId S = 0; S != K.numStates(); ++S) {
    E.Succs.emplace_back(K.succs(S).begin(), K.succs(S).end());
    E.Preds.emplace_back(K.preds(S).begin(), K.preds(S).end());
  }
  return E;
}

/// A fuzz instance with several traffic classes and a diff switch whose
/// class slices differ: the shape rule-granularity ops need.
std::optional<Scenario> multiClassInstance(SwitchId &Sw, unsigned &Class) {
  Rng R(11);
  for (unsigned Try = 0; Try != 200; ++Try) {
    Scenario S = fuzz::generateInstance(R);
    std::vector<TrafficClass> Cs = S.classes();
    if (Cs.size() < 2)
      continue;
    KripkeStructure K(S.Topo, S.Initial, Cs);
    for (SwitchId D : diffSwitches(S.Initial, S.Final))
      for (unsigned C = 0; C != Cs.size(); ++C) {
        std::vector<StateId> Changed;
        K.undo(K.applySwitchUpdate(
            D, withClassSlice(S.Initial.table(D), S.Final.table(D), Cs[C].Hdr),
            Changed));
        if (!Changed.empty()) {
          Sw = D;
          Class = C;
          return S;
        }
      }
  }
  return std::nullopt;
}

/// Applies \p Ops in stack order, one record per depth, and undoes them;
/// the first round warms the records' buffers up, and every later round
/// must allocate nothing.
void expectApplyUndoAllocFree(KripkeStructure &K,
                              const std::vector<TableHandle> &Ops) {
  std::vector<KripkeStructure::UndoRecord> Frames(Ops.size());
  for (int Round = 0; Round != 3; ++Round) {
    uint64_t Before = NumAllocs.load(std::memory_order_relaxed);
    for (size_t I = 0; I != Ops.size(); ++I)
      K.applyHandle(Ops[I], Frames[I]);
    size_t Changed = Frames[0].Changed.size();
    for (size_t I = Ops.size(); I-- != 0;)
      K.undo(Frames[I]);
    uint64_t Allocs = NumAllocs.load(std::memory_order_relaxed) - Before;
    EXPECT_NE(Changed, 0u) << "the op must relink something";
    if (Round != 0) {
      EXPECT_EQ(Allocs, 0u) << "round " << Round;
    }
  }
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
    Before.emplace_back(K.succs(S).begin(), K.succs(S).end());

  // Update A1 to the green table (forward to C2 instead of C1).
  std::vector<StateId> Changed;
  KripkeStructure::UndoRecord Undo =
      K.applySwitchUpdate(N.A[0], N.Green.table(N.A[0]), Changed);
  EXPECT_FALSE(Changed.empty());
  for (StateId S : Changed)
    EXPECT_EQ(K.stateSwitch(S), N.A[0]);
  EXPECT_EQ(K.table(N.A[0]), N.Green.table(N.A[0]));

  K.undo(Undo);
  EXPECT_EQ(K.table(N.A[0]), N.Red.table(N.A[0]));
  for (StateId S = 0; S != K.numStates(); ++S)
    EXPECT_EQ(K.succs(S), Before[S]) << K.stateName(S);
}

// The handle path the DFS runs on: intern a table once, then apply it
// into one caller-owned UndoRecord round after round — the same changed
// states as the table-taking wrapper, and an exact restore every time.
TEST(KripkeTest, ReusedUndoRecordMatchesReturningOverload) {
  Fig1Network N = buildFig1();
  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});

  std::vector<std::vector<StateId>> Before;
  for (StateId S = 0; S != K.numStates(); ++S)
    Before.emplace_back(K.succs(S).begin(), K.succs(S).end());

  std::vector<StateId> WrapperChanged;
  K.undo(K.applySwitchUpdate(N.A[0], N.Green.table(N.A[0]), WrapperChanged));
  ASSERT_FALSE(WrapperChanged.empty());

  TableHandle Green = K.intern(N.A[0], N.Green.table(N.A[0]));
  EXPECT_EQ(K.intern(N.A[0], N.Green.table(N.A[0])), Green)
      << "interning is idempotent";
  KripkeStructure::UndoRecord Undo;
  for (int Round = 0; Round != 3; ++Round) {
    K.applyHandle(Green, Undo);
    EXPECT_EQ(Undo.Changed, WrapperChanged) << "round " << Round;
    EXPECT_EQ(K.handle(N.A[0]), Green);
    EXPECT_EQ(K.table(N.A[0]), N.Green.table(N.A[0]));

    K.undo(Undo);
    EXPECT_EQ(K.table(N.A[0]), N.Red.table(N.A[0]));
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

// The DFS hot path: once the per-depth undo records have grown, applying
// and undoing an interned table allocates nothing — for a whole-switch
// (switch-granularity) table and for a class-slice mix
// (rule-granularity) interned into the structure's private overlay.
TEST(KripkeTest, ApplyUndoAllocateNothingAfterWarmup) {
  Fig1Network N = buildFig1();
  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  expectApplyUndoAllocFree(K, {K.intern(N.A[0], N.Green.table(N.A[0])),
                               K.intern(N.C2, N.Green.table(N.C2))});

  SwitchId Sw = 0;
  unsigned Class = 0;
  std::optional<Scenario> S = multiClassInstance(Sw, Class);
  ASSERT_TRUE(S.has_value()) << "no multi-class fuzz instance";
  std::vector<TrafficClass> Cs = S->classes();
  KripkeStructure KR(S->Topo, S->Initial, Cs);
  TableHandle Mix = KR.intern(
      Sw, withClassSlice(KR.table(Sw), S->Final.table(Sw), Cs[Class].Hdr));
  expectApplyUndoAllocFree(KR, {Mix});
}

// Random apply/undo walks on fuzz instances, at both granularities: every
// undo restores each successor and predecessor list exactly, order
// included, and after any prefix the successors equal those of a fresh
// structure over the same configuration (predecessors as multisets — a
// fresh build lists them in state order, a relink appends).
TEST(KripkeTest, RandomApplyUndoRoundTripsPinEdgeOrder) {
  Rng R(5);
  unsigned Walks = 0;
  for (unsigned Inst = 0; Inst != 10; ++Inst) {
    Scenario S = fuzz::generateInstance(R);
    std::vector<TrafficClass> Cs = S.classes();
    std::vector<SwitchId> Diff = diffSwitches(S.Initial, S.Final);
    if (Diff.empty())
      continue;
    for (bool RuleGran : {false, true}) {
      ++Walks;
      KripkeStructure K(S.Topo, S.Initial, Cs);
      std::vector<KripkeStructure::UndoRecord> Undos;
      std::vector<EdgeSnapshot> Before;
      for (unsigned Step = 0; Step != 40; ++Step) {
        if (Undos.empty() || R.next() % 3 != 0) {
          SwitchId Sw = Diff[R.next() % Diff.size()];
          const Table &Target =
              R.next() % 4 == 0 ? S.Initial.table(Sw) : S.Final.table(Sw);
          Table NewT = RuleGran ? withClassSlice(K.table(Sw), Target,
                                                 Cs[R.next() % Cs.size()].Hdr)
                                : Target;
          Before.push_back(snapshot(K));
          Undos.emplace_back();
          K.applyHandle(K.intern(Sw, std::move(NewT)), Undos.back());
        } else {
          K.undo(Undos.back());
          Undos.pop_back();
          EdgeSnapshot After = snapshot(K);
          ASSERT_EQ(After.Succs, Before.back().Succs) << "step " << Step;
          ASSERT_EQ(After.Preds, Before.back().Preds) << "step " << Step;
          Before.pop_back();
        }
        KripkeStructure Fresh(S.Topo, K.config(), Cs);
        ASSERT_EQ(Fresh.numStates(), K.numStates());
        for (StateId St = 0; St != K.numStates(); ++St) {
          ASSERT_EQ(K.succs(St), Fresh.succs(St))
              << "step " << Step << ": " << K.stateName(St);
          std::vector<StateId> P(K.preds(St).begin(), K.preds(St).end());
          std::vector<StateId> Q(Fresh.preds(St).begin(),
                                 Fresh.preds(St).end());
          std::sort(P.begin(), P.end());
          std::sort(Q.begin(), Q.end());
          ASSERT_EQ(P, Q) << "step " << Step << ": " << K.stateName(St);
        }
      }
    }
  }
  EXPECT_GE(Walks, 12u) << "too few fuzz instances had a diff";
}
