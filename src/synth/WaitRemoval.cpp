//===- synth/WaitRemoval.cpp - Wait-removal heuristic ----------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "synth/WaitRemoval.h"

#include <cstdint>
#include <vector>

using namespace netupd;

namespace {

/// One class's union forwarding graph since the last retained wait, and
/// the two closures over it the pass queries: the switches reachable from
/// an ingress, and those reachable from a dirty switch (both inclusive).
/// Edges and seeds are only ever added, so each closure is extended in
/// place.
class ClassReach {
public:
  ClassReach(const Topology &Topo, const Header &Hdr)
      : Topo(&Topo), Hdr(Hdr) {}

  /// Rebuilds the graph from \p Cur (one table per switch), the ingress
  /// closure from \p Ingresses, and empties the dirty closure.
  void reset(const std::vector<const Table *> &Cur,
             const std::vector<SwitchId> &Ingresses) {
    const size_t N = Cur.size();
    Head.assign(N, NoEdge);
    Next.clear();
    Dst.clear();
    FromIngress.assign(N, 0);
    FromDirty.assign(N, 0);
    for (SwitchId S = 0; S != N; ++S)
      addTableEdges(S, *Cur[S]);
    for (SwitchId S : Ingresses)
      grow(FromIngress, S);
  }

  /// True if the class slices of \p Old and \p New differ: a two-pointer
  /// walk over the rules each side's slice keeps, in order.
  bool sliceChanged(const Table &Old, const Table &New) const {
    const std::vector<Rule> &A = Old.rules(), &B = New.rules();
    size_t I = 0, J = 0;
    for (;;) {
      while (I != A.size() && !A[I].Pat.matchesHeader(Hdr))
        ++I;
      while (J != B.size() && !B[J].Pat.matchesHeader(Hdr))
        ++J;
      if (I == A.size() || J == B.size())
        return (I == A.size()) != (J == B.size());
      if (!(A[I] == B[J]))
        return true;
      ++I;
      ++J;
    }
  }

  /// Adds the edges \p T contributes at \p Sw: Sw -> Sw' whenever a rule
  /// of the class slice forwards out a port linked to Sw'. Port
  /// constraints are ignored (conservative: only adds edges).
  void addTableEdges(SwitchId Sw, const Table &T) {
    for (const Rule &R : T.rules()) {
      if (!R.Pat.matchesHeader(Hdr))
        continue;
      for (const Action &A : R.Actions) {
        if (A.K != Action::Kind::Forward)
          continue;
        const Location *To = Topo->linkFrom(Sw, A.OutPort);
        if (To && !To->isHost())
          addEdge(Sw, To->Switch);
      }
    }
  }

  /// A switch reachable from an ingress may have processed a packet.
  bool live(SwitchId S) const { return FromIngress[S] != 0; }

  /// A switch reachable from a dirty one may receive an in-flight packet.
  bool endangered(SwitchId S) const { return FromDirty[S] != 0; }

  void markDirty(SwitchId S) { grow(FromDirty, S); }

private:
  static constexpr uint32_t NoEdge = UINT32_MAX;

  void addEdge(SwitchId From, SwitchId To) {
    Next.push_back(Head[From]);
    Dst.push_back(To);
    Head[From] = static_cast<uint32_t>(Dst.size() - 1);
    if (FromIngress[From])
      grow(FromIngress, To);
    if (FromDirty[From])
      grow(FromDirty, To);
  }

  /// Adds everything reachable from \p Seed to the closure \p Reached. A
  /// switch already in it is a closed frontier: its successors are too.
  void grow(std::vector<uint8_t> &Reached, SwitchId Seed) {
    if (Reached[Seed])
      return;
    Reached[Seed] = 1;
    Stack.push_back(Seed);
    while (!Stack.empty()) {
      SwitchId S = Stack.back();
      Stack.pop_back();
      for (uint32_t E = Head[S]; E != NoEdge; E = Next[E]) {
        if (!Reached[Dst[E]]) {
          Reached[Dst[E]] = 1;
          Stack.push_back(Dst[E]);
        }
      }
    }
  }

  const Topology *Topo;
  Header Hdr;
  /// Adjacency as per-switch linked lists in two flat arrays: edge E goes
  /// to Dst[E], and the switch's next edge is Next[E].
  std::vector<uint32_t> Head, Next;
  std::vector<SwitchId> Dst;
  std::vector<uint8_t> FromIngress, FromDirty;
  std::vector<SwitchId> Stack; ///< grow's DFS scratch.
};

} // namespace

CommandSeq netupd::removeWaits(const Topology &Topo, const Config &Initial,
                               const std::vector<TrafficClass> &Classes,
                               CommandSeq Cmds) {
  // Each switch's current table: Initial's, or the last update's table in
  // Out. Out never reallocates (reserved for one wait per update), so the
  // pointers into it stay valid.
  std::vector<const Table *> Cur(Initial.numSwitches());
  for (SwitchId S = 0; S != Cur.size(); ++S)
    Cur[S] = &Initial.table(S);
  size_t Updates = 0;
  for (const Command &Cmd : Cmds)
    Updates += Cmd.K == Command::Kind::Update;
  CommandSeq Out;
  Out.reserve(2 * Updates);

  std::vector<SwitchId> Ingresses;
  for (const Location &In : Topo.ingressLocations())
    Ingresses.push_back(In.Switch);

  std::vector<ClassReach> Reach;
  Reach.reserve(Classes.size());
  for (const TrafficClass &C : Classes)
    Reach.emplace_back(Topo, C.Hdr);
  auto Rebuild = [&] {
    for (ClassReach &R : Reach)
      R.reset(Cur, Ingresses);
  };
  Rebuild();

  std::vector<ClassReach *> Affected;
  for (Command &Cmd : Cmds) {
    if (Cmd.K == Command::Kind::Wait)
      continue; // Regenerated below only where needed.
    const SwitchId Sw = Cmd.Sw;

    Affected.clear();
    for (ClassReach &R : Reach)
      if (R.sliceChanged(*Cur[Sw], Cmd.NewTable))
        Affected.push_back(&R);

    // A wait is required if an in-flight packet of some affected class
    // (forwarded by a dirty switch) can still arrive here.
    bool NeedWait = false;
    for (const ClassReach *R : Affected)
      NeedWait |= R->endangered(Sw);
    if (NeedWait) {
      Out.push_back(Command::wait());
      Rebuild();
    }

    Out.push_back(std::move(Cmd));
    const Table &New = Out.back().NewTable;
    for (ClassReach *R : Affected) {
      // The switch becomes dirty for the class provided it was live
      // (before its new edges), otherwise no packet of the class can
      // have crossed it.
      if (R->live(Sw))
        R->markDirty(Sw);
      R->addTableEdges(Sw, New);
    }
    Cur[Sw] = &New;
  }
  return Out;
}
