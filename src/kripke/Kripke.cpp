//===- kripke/Kripke.cpp - Network Kripke structures -----------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "kripke/Kripke.h"

#include "support/Strings.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace netupd;

KripkeStructure::KripkeStructure(const Topology &Topo, Config Cfg,
                                 std::vector<TrafficClass> Classes)
    : Topo(Topo), Cfg(std::move(Cfg)), Classes(std::move(Classes)) {
  assert(!this->Classes.empty() && "need at least one traffic class");

  // Build the per-class local state space from the topology: one arrival
  // state per link target (sw, pt), one egress state per host-facing port.
  ArrivalLocal.assign(Topo.numPorts(), -1);
  EgressLocal.assign(Topo.numPorts(), -1);
  SwitchArrivals.resize(Topo.numSwitches());

  for (const Link &L : Topo.links()) {
    if (!L.To.isHost() && ArrivalLocal[L.To.Port] < 0) {
      ArrivalLocal[L.To.Port] = static_cast<int>(Locs.size());
      SwitchArrivals[L.To.Switch].push_back(
          static_cast<unsigned>(Locs.size()));
      Locs.push_back(LocalState{L.To.Switch, L.To.Port, Role::Arrival});
    }
    if (L.To.isHost() && !L.From.isHost() && EgressLocal[L.From.Port] < 0) {
      EgressLocal[L.From.Port] = static_cast<int>(Locs.size());
      Locs.push_back(LocalState{L.From.Switch, L.From.Port, Role::Egress});
    }
  }
  NumLocal = static_cast<unsigned>(Locs.size());

  unsigned NumStates = NumLocal * numClasses();
  Succs.resize(NumStates);
  Preds.resize(NumStates);

  for (StateId S = 0; S != NumStates; ++S)
    setSuccs(S, computeSuccs(S));

  // Initial states: arrival states fed by a host link, in every class.
  for (const Location &In : Topo.ingressLocations()) {
    int Local = ArrivalLocal[In.Port];
    assert(Local >= 0 && "ingress port without arrival state");
    for (unsigned C = 0; C != numClasses(); ++C)
      Initials.push_back(stateAt(C, static_cast<unsigned>(Local)));
  }

  // Digest state: the immutable base plus the per-switch table digests
  // that applySwitchUpdate/undo keep current (see digest()).
  DigestBuilder Base;
  Base.addDigest(digestOf(Topo));
  Base.addU64(this->Classes.size());
  for (const TrafficClass &C : this->Classes)
    Base.addDigest(digestOf(C.Hdr));
  BaseDigest = Base.finish();

  TableDigests.resize(this->Cfg.numSwitches());
  DigestBuilder CfgMeta;
  CfgMeta.addU64(this->Cfg.numSwitches());
  CfgXor = CfgMeta.finish();
  for (SwitchId Sw = 0; Sw != this->Cfg.numSwitches(); ++Sw) {
    TableDigests[Sw] = digestOf(this->Cfg.table(Sw));
    CfgXor ^= configSlotDigest(Sw, TableDigests[Sw]);
  }
}

StateInfo KripkeStructure::stateInfo(StateId S) const {
  const LocalState &L = Locs[localOf(S)];
  return StateInfo{L.Sw, L.Pt, Classes[stateClass(S)].Hdr};
}

std::string KripkeStructure::stateName(StateId S) const {
  const LocalState &L = Locs[localOf(S)];
  return format("(%s %s, pt %u, class %s)",
                L.R == Role::Arrival ? "at" : "egress",
                Topo.switchName(L.Sw).c_str(), L.Pt,
                Classes[stateClass(S)].Name.c_str());
}

std::vector<StateId> KripkeStructure::computeSuccs(StateId S) const {
  std::vector<StateId> Next;
  computeSuccs(S, Next);
  return Next;
}

void KripkeStructure::computeSuccs(StateId S,
                                   std::vector<StateId> &Next) const {
  Next.clear();
  const LocalState &L = Locs[localOf(S)];
  unsigned ClassIdx = stateClass(S);

  // Egress states only self-loop (case 4 of Def. 9).
  if (L.R == Role::Egress) {
    Next.push_back(S);
    return;
  }

  const Header &Hdr = Classes[ClassIdx].Hdr;
  std::vector<Output> Outs = Cfg.table(L.Sw).apply(Hdr, L.Pt);

  for (const Output &O : Outs) {
    // The Kripke encoding keeps traffic classes disjoint (§3.3: packet
    // modification is future work), so tables must preserve headers here.
    assert(O.Hdr == Hdr &&
           "header-modifying rule in a Kripke-checked configuration");
    const Location *Dst = Topo.linkFrom(L.Sw, O.OutPort);
    if (!Dst)
      continue; // Forwarded out an unwired port: the packet vanishes.
    if (Dst->isHost()) {
      int Local = EgressLocal[O.OutPort];
      assert(Local >= 0 && "host-facing port without egress state");
      Next.push_back(stateAt(ClassIdx, static_cast<unsigned>(Local)));
    } else {
      int Local = ArrivalLocal[Dst->Port];
      assert(Local >= 0 && "link target without arrival state");
      Next.push_back(stateAt(ClassIdx, static_cast<unsigned>(Local)));
    }
  }

  // Dedupe (multicast to the same next hop adds no Kripke information).
  std::sort(Next.begin(), Next.end());
  Next.erase(std::unique(Next.begin(), Next.end()), Next.end());

  // Dropped packets self-loop (case 3 of Def. 9), keeping the structure
  // complete.
  if (Next.empty())
    Next.push_back(S);
}

void KripkeStructure::setSuccs(StateId S, std::vector<StateId> NewSuccs) {
  for (StateId Old : Succs[S]) {
    auto &P = Preds[Old];
    auto It = std::find(P.begin(), P.end(), S);
    if (It != P.end())
      P.erase(It);
  }
  Succs[S] = std::move(NewSuccs);
  for (StateId New : Succs[S])
    Preds[New].push_back(S);
}

void KripkeStructure::recomputeSwitch(
    SwitchId Sw,
    std::vector<std::pair<StateId, std::vector<StateId>>> &OldEdges,
    std::vector<StateId> &ChangedStates) {
  for (unsigned Local : SwitchArrivals[Sw]) {
    for (unsigned C = 0; C != numClasses(); ++C) {
      StateId S = stateAt(C, Local);
      computeSuccs(S, ScratchSuccs);
      if (ScratchSuccs == Succs[S])
        continue;
      // Unhook S from its old successors' pred lists, swap the new list
      // in, and donate the old list — buffer and all — to the undo log.
      for (StateId Old : Succs[S]) {
        auto &P = Preds[Old];
        auto It = std::find(P.begin(), P.end(), S);
        if (It != P.end())
          P.erase(It);
      }
      std::swap(Succs[S], ScratchSuccs);
      for (StateId New : Succs[S])
        Preds[New].push_back(S);
      OldEdges.emplace_back(S, std::move(ScratchSuccs));
      ChangedStates.push_back(S);
    }
  }
}

KripkeStructure::UndoRecord
KripkeStructure::applySwitchUpdate(SwitchId Sw, const Table &NewTable,
                                   std::vector<StateId> &ChangedStates) {
  UndoRecord Undo;
  applySwitchUpdate(Sw, NewTable, ChangedStates, Undo);
  return Undo;
}

void KripkeStructure::applySwitchUpdate(SwitchId Sw, const Table &NewTable,
                                        std::vector<StateId> &ChangedStates,
                                        UndoRecord &Undo) {
  Undo.Sw = Sw;
  Undo.OldTable = Cfg.table(Sw);
  Undo.OldTableDigest = TableDigests[Sw];
  Undo.OldEdges.clear();
  Cfg.setTable(Sw, NewTable);

  CfgXor ^= configSlotDigest(Sw, TableDigests[Sw]);
  TableDigests[Sw] = digestOf(NewTable);
  CfgXor ^= configSlotDigest(Sw, TableDigests[Sw]);

  recomputeSwitch(Sw, Undo.OldEdges, ChangedStates);
}

void KripkeStructure::undo(const UndoRecord &Undo) {
  Cfg.setTable(Undo.Sw, Undo.OldTable);

  CfgXor ^= configSlotDigest(Undo.Sw, TableDigests[Undo.Sw]);
  TableDigests[Undo.Sw] = Undo.OldTableDigest;
  CfgXor ^= configSlotDigest(Undo.Sw, TableDigests[Undo.Sw]);

  for (const auto &[S, Old] : Undo.OldEdges)
    setSuccs(S, Old);
}

void KripkeStructure::undo(UndoRecord &&Undo) {
  Cfg.setTable(Undo.Sw, std::move(Undo.OldTable));

  CfgXor ^= configSlotDigest(Undo.Sw, TableDigests[Undo.Sw]);
  TableDigests[Undo.Sw] = Undo.OldTableDigest;
  CfgXor ^= configSlotDigest(Undo.Sw, TableDigests[Undo.Sw]);

  for (auto &[S, Old] : Undo.OldEdges)
    setSuccs(S, std::move(Old));
}

std::optional<std::vector<StateId>>
KripkeStructure::findForwardingLoop() const {
  // Iterative three-color DFS over non-self-loop edges.
  enum : uint8_t { White, Gray, Black };
  std::vector<uint8_t> Color(numStates(), White);
  std::vector<std::pair<StateId, size_t>> Stack;

  for (StateId Root = 0; Root != numStates(); ++Root) {
    if (Color[Root] != White)
      continue;
    Stack.emplace_back(Root, 0);
    Color[Root] = Gray;
    while (!Stack.empty()) {
      auto &[S, EdgeIdx] = Stack.back();
      if (EdgeIdx == Succs[S].size()) {
        Color[S] = Black;
        Stack.pop_back();
        continue;
      }
      StateId Next = Succs[S][EdgeIdx++];
      if (Next == S)
        continue; // Sink self-loop.
      if (Color[Next] == Gray) {
        // Back edge: the cycle is the DFS-stack suffix from Next to S.
        std::vector<StateId> Cycle;
        bool InCycle = false;
        for (const auto &[Q, Unused] : Stack) {
          (void)Unused;
          if (Q == Next)
            InCycle = true;
          if (InCycle)
            Cycle.push_back(Q);
        }
        return Cycle;
      }
      if (Color[Next] == White) {
        Color[Next] = Gray;
        Stack.emplace_back(Next, 0);
      }
    }
  }
  return std::nullopt;
}

std::vector<std::vector<StateId>>
KripkeStructure::enumerateTraces(size_t MaxTraces) const {
  std::vector<std::vector<StateId>> Traces;
  std::vector<StateId> Path;

  // Depth-first path enumeration; bounded by MaxTraces.
  std::function<void(StateId)> Walk = [&](StateId S) {
    if (Traces.size() >= MaxTraces)
      return;
    Path.push_back(S);
    if (isSink(S)) {
      Traces.push_back(Path);
    } else {
      for (StateId Next : Succs[S]) {
        if (Next == S)
          continue;
        Walk(Next);
      }
    }
    Path.pop_back();
  };

  for (StateId S : Initials)
    Walk(S);
  return Traces;
}
