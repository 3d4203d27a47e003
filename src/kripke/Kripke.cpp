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

KripkeLayout::KripkeLayout(const Topology &Topo,
                           std::vector<TrafficClass> Classes)
    : Topo(Topo), Classes(std::move(Classes)) {
  assert(!this->Classes.empty() && "need at least one traffic class");

  // The per-class local state space comes from the topology: one arrival
  // state per link target (sw, pt), one egress state per host-facing port.
  ArrivalLocal.assign(Topo.numPorts(), -1);
  EgressLocal.assign(Topo.numPorts(), -1);
  ArrivalOff.assign(Topo.numSwitches() + 1, 0);
  Locs.reserve(Topo.numLinks());
  for (const Link &L : Topo.links()) {
    if (!L.To.isHost() && ArrivalLocal[L.To.Port] < 0) {
      ArrivalLocal[L.To.Port] = static_cast<int>(Locs.size());
      ++ArrivalOff[L.To.Switch + 1];
      Locs.push_back(LocalState{L.To.Switch, L.To.Port, Role::Arrival});
    }
    if (L.To.isHost() && !L.From.isHost() && EgressLocal[L.From.Port] < 0) {
      EgressLocal[L.From.Port] = static_cast<int>(Locs.size());
      Locs.push_back(LocalState{L.From.Switch, L.From.Port, Role::Egress});
    }
  }
  NumLocal = static_cast<unsigned>(Locs.size());

  // Arrival locals grouped by switch, each group in link order.
  for (SwitchId Sw = 0; Sw != Topo.numSwitches(); ++Sw)
    ArrivalOff[Sw + 1] += ArrivalOff[Sw];
  SwitchArrivals.resize(ArrivalOff.back());
  RowIdx.assign(NumLocal, 0);
  {
    std::vector<uint32_t> Fill(ArrivalOff.begin(), ArrivalOff.end() - 1);
    for (unsigned Local = 0; Local != NumLocal; ++Local) {
      if (Locs[Local].R != Role::Arrival)
        continue;
      SwitchId Sw = Locs[Local].Sw;
      RowIdx[Local] = Fill[Sw] - ArrivalOff[Sw];
      SwitchArrivals[Fill[Sw]++] = Local;
    }
  }

  // Initial states: arrival states fed by a host link, in every class.
  for (const Location &In : Topo.ingressLocations()) {
    int Local = ArrivalLocal[In.Port];
    assert(Local >= 0 && "ingress port without arrival state");
    for (unsigned C = 0; C != numClasses(); ++C)
      Initials.push_back(C * NumLocal + static_cast<unsigned>(Local));
  }

  // Predecessor capacity: every arrival state of a link's source switch
  // may forward onto the link, and every state may self-loop.
  std::vector<uint32_t> Cap(NumLocal, 1);
  for (const Link &L : Topo.links()) {
    if (L.From.isHost())
      continue;
    int Target = L.To.isHost() ? EgressLocal[L.From.Port]
                               : ArrivalLocal[L.To.Port];
    assert(Target >= 0 && "link without a Kripke target");
    Cap[static_cast<size_t>(Target)] += numArrivals(L.From.Switch);
  }
  unsigned NumStates = numStates();
  PredOff.resize(NumStates + 1);
  PredOff[0] = 0;
  SelfLoops.resize(NumStates);
  for (StateId S = 0; S != NumStates; ++S) {
    PredOff[S + 1] = PredOff[S] + Cap[S % NumLocal];
    SelfLoops[S] = S;
  }
}

void KripkeLayout::buildRows(SwitchId Sw, const Table &T,
                             std::vector<StateId> &Out) const {
  const unsigned NC = numClasses();
  const unsigned NumRows = numArrivals(Sw) * NC;
  Out.clear();
  Out.reserve(2 * NumRows + 1);
  Out.resize(NumRows + 1);
  const unsigned *Arr = arrivalsBegin(Sw);
  for (unsigned A = 0; A != numArrivals(Sw); ++A) {
    const LocalState &LS = Locs[Arr[A]];
    for (unsigned C = 0; C != NC; ++C) {
      StateId S = C * NumLocal + Arr[A];
      size_t Begin = Out.size();
      Out[A * NC + C] = static_cast<StateId>(Begin);
      const Header &Hdr = Classes[C].Hdr;
      int Idx = T.matchIndex(Hdr, LS.Pt);
      if (Idx >= 0) {
        // Table::apply without its output vector: the rule's forwards.
        Header Cur = Hdr;
        for (const Action &Act : T.rules()[static_cast<size_t>(Idx)].Actions) {
          if (Act.K == Action::Kind::SetField) {
            Cur.set(Act.F, Act.Value);
            continue;
          }
          // The Kripke encoding keeps traffic classes disjoint (§3.3:
          // packet modification is future work), so tables must preserve
          // headers here.
          assert(Cur == Hdr &&
                 "header-modifying rule in a Kripke-checked configuration");
          const Location *Dst = Topo.linkFrom(LS.Sw, Act.OutPort);
          if (!Dst)
            continue; // Forwarded out an unwired port: the packet vanishes.
          int Local = Dst->isHost() ? EgressLocal[Act.OutPort]
                                    : ArrivalLocal[Dst->Port];
          assert(Local >= 0 && "link target without a Kripke state");
          Out.push_back(C * NumLocal + static_cast<unsigned>(Local));
        }
      }
      // Dedupe (multicast to the same next hop adds no Kripke
      // information); dropped packets self-loop (case 3 of Def. 9),
      // keeping the structure complete.
      std::sort(Out.begin() + Begin, Out.end());
      Out.erase(std::unique(Out.begin() + Begin, Out.end()), Out.end());
      if (Out.size() == Begin)
        Out.push_back(S);
    }
  }
  Out[NumRows] = static_cast<StateId>(Out.size());
}

TablePool::TablePool(const Topology &Topo, std::vector<TrafficClass> Classes)
    : Layout(std::make_shared<const KripkeLayout>(Topo, std::move(Classes))) {
}

TablePool::TablePool(std::shared_ptr<const TablePool> P)
    : Layout(P->Layout), Parent(std::move(P)) {
  IdBase = static_cast<uint32_t>(Parent->size());
}

TableHandle TablePool::find(SwitchId Sw, const Table &T,
                            const Digest &D) const {
  for (const TablePool *P = this; P; P = P->Parent.get()) {
    if (Sw >= P->Newest.size())
      continue;
    for (TableHandle E = P->Newest[Sw]; E; E = E->NextOfSwitch)
      if (E->TableDigest == D && E->table() == T)
        return E;
  }
  return nullptr;
}

SwitchTable &TablePool::add(SwitchId Sw, const Digest &D) {
  if (Newest.empty())
    Newest.assign(Layout->topology().numSwitches(), nullptr);
  Entries.push_back(std::make_unique<SwitchTable>());
  SwitchTable &E = *Entries.back();
  E.Sw = Sw;
  E.Id = static_cast<uint32_t>(size() - 1);
  E.TableDigest = D;
  E.Slot = configSlotDigest(Sw, D);
  E.NextOfSwitch = Newest[Sw];
  Newest[Sw] = &E;
  return E;
}

TableHandle TablePool::internRef(SwitchId Sw, const Table &T) {
  Digest D = digestOf(T);
  if (TableHandle H = find(Sw, T, D))
    return H;
  SwitchTable &E = add(Sw, D);
  E.T = &T;
  Layout->buildRows(Sw, T, E.Rows);
  return &E;
}

TableHandle TablePool::intern(SwitchId Sw, Table T) {
  Digest D = digestOf(T);
  if (TableHandle H = find(Sw, T, D))
    return H;
  SwitchTable &E = add(Sw, D);
  E.Owned = std::move(T);
  E.T = &E.Owned;
  Layout->buildRows(Sw, E.Owned, E.Rows);
  return &E;
}

KripkeStructure::Seed KripkeStructure::seed(const Topology &Topo, Config Cfg,
                                            std::vector<TrafficClass> Classes) {
  auto Pool = std::make_shared<TablePool>(Topo, std::move(Classes));
  Seed Out;
  Out.Tables.reserve(Cfg.numSwitches());
  for (SwitchId Sw = 0; Sw != Cfg.numSwitches(); ++Sw)
    Out.Tables.push_back(Pool->intern(Sw, std::move(Cfg.table(Sw))));
  Out.Pool = std::move(Pool);
  return Out;
}

KripkeStructure::KripkeStructure(const Topology &Topo, Config Cfg,
                                 std::vector<TrafficClass> Classes)
    : KripkeStructure(seed(Topo, std::move(Cfg), std::move(Classes))) {}

KripkeStructure::KripkeStructure(std::shared_ptr<const TablePool> P,
                                 const std::vector<TableHandle> &Tables)
    : Pool(std::move(P)), L(Pool->layout()), Local(Pool), Handles(Tables) {
  assert(Handles.size() == L.topology().numSwitches() &&
         "one table per switch");
  // Count-then-fill: the pred capacities come from the layout, so the
  // edges take four blocks however many states there are.
  const unsigned N = L.numStates();
  Succ.resize(N);
  PredLen.assign(N, 0);
  PredData.resize(L.predCapacity());
  for (StateId S = 0; S != N; ++S) {
    const KripkeLayout::LocalState &LS = L.local(S);
    // Egress states only self-loop (case 4 of Def. 9).
    Succ[S] = LS.R == Role::Egress ? L.selfLoop(S)
                                   : Handles[LS.Sw]->row(L.rowOf(S));
  }
  for (StateId S = 0; S != N; ++S)
    for (StateId Next : Succ[S]) {
      assert(L.predBase(Next) + PredLen[Next] < L.predBase(Next + 1) &&
             "pred capacity underestimated");
      PredData[L.predBase(Next) + PredLen[Next]++] = S;
    }
}

Config KripkeStructure::config() const {
  Config Cfg(static_cast<unsigned>(Handles.size()));
  for (SwitchId Sw = 0; Sw != Handles.size(); ++Sw)
    Cfg.setTable(Sw, table(Sw));
  return Cfg;
}

StateInfo KripkeStructure::stateInfo(StateId S) const {
  const KripkeLayout::LocalState &LS = L.local(S);
  return StateInfo{LS.Sw, LS.Pt, classes()[stateClass(S)].Hdr};
}

std::string KripkeStructure::stateName(StateId S) const {
  const KripkeLayout::LocalState &LS = L.local(S);
  return format("(%s %s, pt %u, class %s)",
                LS.R == Role::Arrival ? "at" : "egress",
                topology().switchName(LS.Sw).c_str(), LS.Pt,
                classes()[stateClass(S)].Name.c_str());
}

Digest KripkeStructure::digest() const {
  if (!DigestLive) {
    DigestBuilder Base;
    Base.addDigest(digestOf(topology()));
    Base.addU64(classes().size());
    for (const TrafficClass &C : classes())
      Base.addDigest(digestOf(C.Hdr));
    BaseDigest = Base.finish();

    DigestBuilder CfgMeta;
    CfgMeta.addU64(Handles.size());
    CfgXor = CfgMeta.finish();
    for (TableHandle H : Handles)
      CfgXor ^= H->slotDigest();
    DigestLive = true;
  }
  DigestBuilder B;
  B.addDigest(BaseDigest);
  B.addDigest(CfgXor);
  return B.finish();
}

TableHandle KripkeStructure::intern(SwitchId Sw, Table T) {
  return Local.intern(Sw, std::move(T));
}

void KripkeStructure::applyHandle(TableHandle New, UndoRecord &Undo) {
  const SwitchId Sw = New->sw();
  const TableHandle Old = Handles[Sw];
  Undo.Old = Old;
  Undo.New = New;
  Undo.Changed.clear();
  Undo.PredPos.clear();
  if (New == Old)
    return;
  Handles[Sw] = New;
  if (DigestLive)
    CfgXor ^= Old->slotDigest() ^ New->slotDigest();

  const unsigned NC = numClasses();
  const unsigned *Arr = L.arrivalsBegin(Sw);
  for (unsigned A = 0, E = L.numArrivals(Sw); A != E; ++A) {
    for (unsigned C = 0; C != NC; ++C) {
      StateId S = C * L.numLocal() + Arr[A];
      StateSpan Row = New->row(A * NC + C);
      if (Row == Succ[S])
        continue;
      // Unhook S from its old successors' pred lists, remembering where
      // it stood, then point S at the new row and append it to its new
      // successors' lists.
      for (StateId Prev : Succ[S]) {
        StateId *P = PredData.data() + L.predBase(Prev);
        uint32_t &Len = PredLen[Prev];
        StateId *It = std::find(P, P + Len, S);
        assert(It != P + Len && "edge without its pred entry");
        Undo.PredPos.push_back(static_cast<uint32_t>(It - P));
        std::copy(It + 1, P + Len, It);
        --Len;
      }
      Succ[S] = Row;
      for (StateId Next : Row)
        PredData[L.predBase(Next) + PredLen[Next]++] = S;
      Undo.Changed.push_back(S);
    }
  }
}

KripkeStructure::UndoRecord
KripkeStructure::applySwitchUpdate(SwitchId Sw, const Table &NewTable,
                                   std::vector<StateId> &ChangedStates) {
  UndoRecord Undo;
  applyHandle(intern(Sw, NewTable), Undo);
  ChangedStates.insert(ChangedStates.end(), Undo.Changed.begin(),
                       Undo.Changed.end());
  return Undo;
}

void KripkeStructure::undo(const UndoRecord &Undo) {
  const SwitchId Sw = Undo.New->sw();
  assert(Handles[Sw] == Undo.New && "undo out of LIFO order");
  if (Undo.New == Undo.Old)
    return;
  Handles[Sw] = Undo.Old;
  if (DigestLive)
    CfgXor ^= Undo.Old->slotDigest() ^ Undo.New->slotDigest();

  // Replay the relink backwards: each state's appends are the tails of
  // its new successors' lists (later relinks are already undone), and its
  // erasures go back where they were.
  size_t Pos = Undo.PredPos.size();
  for (size_t I = Undo.Changed.size(); I-- != 0;) {
    StateId S = Undo.Changed[I];
    for (StateId Next : Succ[S]) {
      assert(PredData[L.predBase(Next) + PredLen[Next] - 1] == S &&
             "pred list changed out of LIFO order");
      --PredLen[Next];
    }
    StateSpan Row = Undo.Old->row(L.rowOf(S));
    Succ[S] = Row;
    for (const StateId *It = Row.end(); It != Row.begin();) {
      StateId Prev = *--It;
      StateId *P = PredData.data() + L.predBase(Prev);
      uint32_t &Len = PredLen[Prev];
      StateId *At = P + Undo.PredPos[--Pos];
      std::copy_backward(At, P + Len, P + Len + 1);
      *At = S;
      ++Len;
    }
  }
  assert(Pos == 0 && "pred positions out of step with the relink");
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
      if (EdgeIdx == Succ[S].size()) {
        Color[S] = Black;
        Stack.pop_back();
        continue;
      }
      StateId Next = Succ[S][EdgeIdx++];
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
      for (StateId Next : Succ[S]) {
        if (Next == S)
          continue;
        Walk(Next);
      }
    }
    Path.pop_back();
  };

  for (StateId S : initialStates())
    Walk(S);
  return Traces;
}

std::string
netupd::classHeaderRewrite(const Config &Cfg,
                           const std::vector<TrafficClass> &Classes) {
  for (SwitchId Sw = 0; Sw != Cfg.numSwitches(); ++Sw) {
    for (const Rule &R : Cfg.table(Sw).rules()) {
      for (const TrafficClass &C : Classes) {
        // Port constraints are ignored; the action walk is buildRows'.
        if (!R.Pat.matchesHeader(C.Hdr))
          continue;
        Header Cur = C.Hdr;
        for (const Action &Act : R.Actions) {
          if (Act.K == Action::Kind::SetField)
            Cur.set(Act.F, Act.Value);
          else if (!(Cur == C.Hdr))
            return format("switch %u rule %s rewrites the header of class "
                          "'%s'; header rewriting is not supported",
                          Sw, R.str().c_str(), C.Name.c_str());
        }
      }
    }
  }
  return std::string();
}
