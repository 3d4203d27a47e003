//===- tests/TestUtil.h - Shared test helpers ------------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Random generators and checking helpers shared by the test suites:
/// random LTL formulas, random network configurations (loops and
/// blackholes included), a replay-based soundness check for
/// synthesized command sequences, and the deep Impossible-proof
/// instance the search tests share.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_TESTS_TESTUTIL_H
#define NETUPD_TESTS_TESTUTIL_H

#include "kripke/Kripke.h"
#include "ltl/Formula.h"
#include "ltl/TraceEval.h"
#include "mc/NaiveTraceChecker.h"
#include "net/Config.h"
#include "support/Random.h"
#include "synth/Command.h"
#include "topo/Generators.h"
#include "topo/Scenario.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

namespace netupd {
namespace testutil {

/// A random atomic proposition over small switch/port/field ranges.
inline Prop randomProp(Rng &R, unsigned MaxSwitch, unsigned MaxPort) {
  switch (R.nextBelow(3)) {
  case 0:
    return Prop::onSwitch(static_cast<SwitchId>(R.nextBelow(MaxSwitch)));
  case 1:
    return Prop::onPort(static_cast<PortId>(R.nextBelow(MaxPort)));
  default:
    return Prop::onField(Field::Dst, static_cast<uint32_t>(R.nextBelow(4)));
  }
}

/// A random NNF formula of the given depth budget.
inline Formula randomFormula(FormulaFactory &FF, Rng &R, unsigned Depth,
                             unsigned MaxSwitch = 6, unsigned MaxPort = 12) {
  if (Depth == 0 || R.nextBelow(5) == 0) {
    switch (R.nextBelow(4)) {
    case 0:
      return FF.top();
    case 1:
      return FF.bottom();
    case 2:
      return FF.atom(randomProp(R, MaxSwitch, MaxPort));
    default:
      return FF.notAtom(randomProp(R, MaxSwitch, MaxPort));
    }
  }
  Formula A = randomFormula(FF, R, Depth - 1, MaxSwitch, MaxPort);
  Formula B = randomFormula(FF, R, Depth - 1, MaxSwitch, MaxPort);
  switch (R.nextBelow(5)) {
  case 0:
    return FF.conj(A, B);
  case 1:
    return FF.disj(A, B);
  case 2:
    return FF.next(A);
  case 3:
    return FF.until(A, B);
  default:
    return FF.release(A, B);
  }
}

/// A random trace of StateInfos over small ranges.
inline Trace randomTrace(Rng &R, size_t Len, unsigned MaxSwitch = 6,
                         unsigned MaxPort = 12) {
  Trace T;
  for (size_t I = 0; I != Len; ++I) {
    StateInfo S;
    S.Sw = static_cast<SwitchId>(R.nextBelow(MaxSwitch));
    S.Pt = static_cast<PortId>(R.nextBelow(MaxPort));
    S.Hdr = makeHeader(static_cast<uint32_t>(R.nextBelow(4)),
                       static_cast<uint32_t>(R.nextBelow(4)));
    T.push_back(S);
  }
  return T;
}

/// A small random topology: ring of \p NumSwitches plus chords, with two
/// hosts on random switches.
struct RandomNet {
  Topology Topo;
  std::vector<TrafficClass> Classes;
  PortId SrcPort = InvalidPort;
  PortId DstPort = InvalidPort;
};

inline RandomNet randomNet(Rng &R, unsigned NumSwitches) {
  RandomNet N;
  for (unsigned I = 0; I != NumSwitches; ++I)
    N.Topo.addSwitch("s" + std::to_string(I));
  for (unsigned I = 0; I != NumSwitches; ++I)
    N.Topo.connectSwitches(I, (I + 1) % NumSwitches);
  unsigned Chords = NumSwitches / 2;
  for (unsigned I = 0; I != Chords; ++I) {
    SwitchId A = static_cast<SwitchId>(R.nextBelow(NumSwitches));
    SwitchId B = static_cast<SwitchId>(R.nextBelow(NumSwitches));
    if (A != B)
      N.Topo.connectSwitches(A, B);
  }
  HostId HS = N.Topo.addHost("hs");
  HostId HD = N.Topo.addHost("hd");
  SwitchId SwS = static_cast<SwitchId>(R.nextBelow(NumSwitches));
  SwitchId SwD = static_cast<SwitchId>(R.nextBelow(NumSwitches));
  N.SrcPort = N.Topo.attachHost(HS, SwS);
  N.DstPort = N.Topo.attachHost(HD, SwD == SwS ? (SwD + 1) % NumSwitches
                                               : SwD);
  N.Classes.push_back(TrafficClass{makeHeader(1, 2), "c0"});
  return N;
}

/// A random configuration for \p Net: every switch forwards the class out
/// a random port, or drops it. Loops and blackholes are possible by
/// design — tests exercise rejection paths with these.
inline Config randomConfig(const RandomNet &Net, Rng &R,
                           double DropProb = 0.2) {
  Config Cfg(Net.Topo.numSwitches());
  for (SwitchId Sw = 0; Sw != Net.Topo.numSwitches(); ++Sw) {
    if (R.nextDouble() < DropProb)
      continue; // No rule: blackhole.
    const std::vector<PortId> &Ports = Net.Topo.switchPorts(Sw);
    if (Ports.empty())
      continue;
    Rule Rl;
    Rl.Priority = 10;
    Rl.Pat = Pattern::wildcard();
    Rl.Actions.push_back(
        Action::forward(Ports[R.nextBelow(Ports.size())]));
    Table T;
    T.addRule(Rl);
    Cfg.setTable(Sw, T);
  }
  return Cfg;
}

/// Replays \p Cmds from \p Initial and model-checks every intermediate
/// configuration with a fresh brute-force checker. Returns true iff all
/// configurations (including the initial one) satisfy \p Phi — the
/// careful-correctness condition of Lemma 2.
inline bool allIntermediateConfigsHold(const Topology &Topo,
                                       const Config &Initial,
                                       const std::vector<TrafficClass> &Cs,
                                       Formula Phi, const CommandSeq &Cmds) {
  Config Cur = Initial;
  auto Holds = [&](const Config &C) {
    KripkeStructure K(Topo, C, Cs);
    NaiveTraceChecker Checker;
    return Checker.bind(K, Phi).Holds;
  };
  if (!Holds(Cur))
    return false;
  for (const Command &C : Cmds) {
    if (C.K != Command::Kind::Update)
      continue;
    Cur.setTable(C.Sw, C.NewTable);
    if (!Holds(Cur))
      return false;
  }
  return true;
}

/// The topology of one coverage family variant: a fat tree, a zoo-like
/// WAN or a small world, by \p Variant mod 3, growing with \p Variant.
inline Topology familyTopology(unsigned Variant) {
  switch (Variant % 3) {
  case 0:
    return buildFatTree(4 + 2 * (Variant / 3));
  case 1:
    return buildZooLike(40 + 13 * Variant);
  default: {
    Rng R(2400 + Variant);
    return buildSmallWorld(20 + 10 * Variant, 4, 0.25, R);
  }
  }
}

/// A deep exhaustive Impossible proof at a test-sized diff cap: a
/// long-path diamond whose final config blackholes the destination, so
/// the search must refute the entire safe sub-lattice, thousands of
/// refuted configurations. \p Skip selects among the instances the seed grows;
/// Skip=1's proof takes a few thousand checker queries.
inline Scenario deepImpossible(unsigned Skip = 0) {
  constexpr unsigned DiffCap = 22;
  Rng SR(23);
  DiamondOptions DO;
  DO.LongPaths = true;
  for (unsigned I = 0; I != 32; ++I) {
    Rng Fork = SR.fork();
    Topology Base = buildSmallWorld(96, 4, 0.2, Fork);
    std::optional<Scenario> S =
        makeDiamondScenario(Base, Fork, PropertyKind::Reachability, DO);
    if (!S)
      continue;
    if (Skip > 0) {
      --Skip;
      continue;
    }
    SwitchId Dst = S->Flows[0].FinalPath.back();
    S->Final.setTable(Dst, Table());
    std::vector<SwitchId> Diff = diffSwitches(S->Initial, S->Final);
    unsigned Kept = 0;
    for (SwitchId Sw : Diff) {
      if (Sw == Dst)
        continue;
      if (++Kept > DiffCap - 1)
        S->Final.setTable(Sw, S->Initial.table(Sw));
    }
    return std::move(*S);
  }
  ADD_FAILURE() << "no deep-proof instance grew from seed 23";
  return Scenario{};
}

} // namespace testutil
} // namespace netupd

#endif // NETUPD_TESTS_TESTUTIL_H
