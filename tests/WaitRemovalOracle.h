//===- tests/WaitRemovalOracle.h - Reference wait removal ------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The non-incremental wait-removal pass, kept as a test oracle for
/// synth/WaitRemoval.cpp. For every update command it re-slices both
/// tables, then runs a fresh BFS over the class-c union graph from the
/// dirty set and from every ingress. It is slow on large fabrics, but
/// obviously follows the rule in synth/WaitRemoval.h. The production pass
/// must return byte-identical sequences
/// (WaitRemovalTest.MatchesReferenceOracle).
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_TESTS_WAITREMOVALORACLE_H
#define NETUPD_TESTS_WAITREMOVALORACLE_H

#include "synth/Command.h"

#include <queue>
#include <vector>

namespace netupd {
namespace oracle {

/// True if \p R can apply to packets of class \p Hdr.
inline bool ruleMatchesClass(const Rule &R, const Header &Hdr) {
  for (unsigned I = 0; I != NumFields; ++I) {
    const std::optional<uint32_t> &V = R.Pat.Values[I];
    if (V && *V != Hdr.Values[I])
      return false;
  }
  return true;
}

/// The switch-level forwarding edges one table contributes for one class:
/// Sw -> Sw' whenever a class-matching rule forwards out a port linked to
/// Sw'. Port constraints are ignored (conservative: only adds edges).
inline std::vector<SwitchId> tableEdgesForClass(const Topology &Topo,
                                                SwitchId Sw, const Table &T,
                                                const Header &Hdr) {
  std::vector<SwitchId> Out;
  for (const Rule &R : T.rules()) {
    if (!ruleMatchesClass(R, Hdr))
      continue;
    for (const Action &A : R.Actions) {
      if (A.K != Action::Kind::Forward)
        continue;
      const Location *Dst = Topo.linkFrom(Sw, A.OutPort);
      if (Dst && !Dst->isHost())
        Out.push_back(Dst->Switch);
    }
  }
  return Out;
}

/// Union forwarding graph for one class, accumulated since the last
/// retained wait.
class UnionGraph {
public:
  explicit UnionGraph(unsigned NumSwitches) : Adj(NumSwitches) {}

  void addEdges(SwitchId From, const std::vector<SwitchId> &To) {
    for (SwitchId S : To)
      Adj[From].push_back(S);
  }

  void resetFrom(const Topology &Topo, const Config &Cfg,
                 const Header &Hdr) {
    for (auto &Edges : Adj)
      Edges.clear();
    for (SwitchId S = 0; S != Cfg.numSwitches(); ++S)
      addEdges(S, tableEdgesForClass(Topo, S, Cfg.table(S), Hdr));
  }

  /// True if any switch in \p Sources reaches \p Target.
  bool reaches(const std::vector<SwitchId> &Sources,
               SwitchId Target) const {
    std::vector<uint8_t> Seen(Adj.size(), 0);
    std::queue<SwitchId> Queue;
    for (SwitchId S : Sources) {
      if (S == Target)
        return true;
      if (!Seen[S]) {
        Seen[S] = 1;
        Queue.push(S);
      }
    }
    while (!Queue.empty()) {
      SwitchId Cur = Queue.front();
      Queue.pop();
      for (SwitchId Next : Adj[Cur]) {
        if (Next == Target)
          return true;
        if (!Seen[Next]) {
          Seen[Next] = 1;
          Queue.push(Next);
        }
      }
    }
    return false;
  }

  /// True if \p Target is reachable from any of \p Seeds (inclusive).
  bool reachableFrom(const std::vector<SwitchId> &Seeds,
                     SwitchId Target) const {
    return reaches(Seeds, Target);
  }

private:
  std::vector<std::vector<SwitchId>> Adj;
};

/// The classes whose rule slice differs between two tables; a rule that
/// matches no tracked class is in no slice.
inline std::vector<unsigned>
affectedClasses(const Table &Old, const Table &New,
                const std::vector<TrafficClass> &Cs) {
  std::vector<unsigned> Out;
  for (unsigned C = 0; C != Cs.size(); ++C) {
    auto Slice = [&](const Table &T) {
      std::vector<Rule> S;
      for (const Rule &R : T.rules())
        if (ruleMatchesClass(R, Cs[C].Hdr))
          S.push_back(R);
      return S;
    };
    if (!(Slice(Old) == Slice(New)))
      Out.push_back(C);
  }
  return Out;
}

inline CommandSeq removeWaits(const Topology &Topo, const Config &Initial,
                              const std::vector<TrafficClass> &Classes,
                              const CommandSeq &Cmds) {
  Config Current = Initial;

  std::vector<SwitchId> Ingresses;
  for (const Location &In : Topo.ingressLocations())
    Ingresses.push_back(In.Switch);

  // One union graph and one dirty set per class.
  std::vector<UnionGraph> Unions(Classes.size(),
                                 UnionGraph(Initial.numSwitches()));
  for (unsigned C = 0; C != Classes.size(); ++C)
    Unions[C].resetFrom(Topo, Current, Classes[C].Hdr);
  std::vector<std::vector<SwitchId>> Dirty(Classes.size());

  CommandSeq Out;
  for (const Command &Cmd : Cmds) {
    if (Cmd.K == Command::Kind::Wait)
      continue; // Regenerated below only where needed.

    std::vector<unsigned> Affected = affectedClasses(
        Current.table(Cmd.Sw), Cmd.NewTable, Classes);

    // A wait is required if an in-flight packet of some affected class
    // (forwarded by a dirty switch) can still arrive here.
    bool NeedWait = false;
    for (unsigned C : Affected)
      NeedWait |= Unions[C].reaches(Dirty[C], Cmd.Sw);
    if (NeedWait) {
      Out.push_back(Command::wait());
      for (unsigned C = 0; C != Classes.size(); ++C) {
        Dirty[C].clear();
        Unions[C].resetFrom(Topo, Current, Classes[C].Hdr);
      }
    }

    Out.push_back(Cmd);
    // The switch becomes dirty for each class whose rules change —
    // provided it was live (reachable from an ingress) for that class,
    // otherwise no packet of the class can have crossed it.
    for (unsigned C : Affected)
      if (Unions[C].reachableFrom(Ingresses, Cmd.Sw))
        Dirty[C].push_back(Cmd.Sw);

    Current.setTable(Cmd.Sw, Cmd.NewTable);
    for (unsigned C = 0; C != Classes.size(); ++C)
      Unions[C].addEdges(Cmd.Sw, tableEdgesForClass(Topo, Cmd.Sw,
                                                    Cmd.NewTable,
                                                    Classes[C].Hdr));
  }
  return Out;
}

} // namespace oracle
} // namespace netupd

#endif // NETUPD_TESTS_WAITREMOVALORACLE_H
