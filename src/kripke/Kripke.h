//===- kripke/Kripke.h - Network Kripke structures -------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network Kripke structure of Definition 9: one disjoint component per
/// traffic class, whose states are switch/port locations a packet of that
/// class can occupy.
///
/// States come in two roles, mirroring the two observation kinds of the
/// operational model (Def. 7):
///  - *arrival* states (sw, pt, In): a packet has arrived at switch sw on
///    port pt and is about to be processed by sw's table;
///  - *egress* states (sw, pt, Out): the packet left sw through host-facing
///    port pt; these are sink states with a self-loop.
/// A packet dropped by a table makes its arrival state a self-loop sink
/// (case 3 of Def. 9). The structure is complete by construction, and for
/// well-formed (loop-free) configurations it is DAG-like: the only cycles
/// are the sink self-loops. checkDagLike() rejects loopy configurations,
/// as the paper's tool does (§3.2).
///
/// applySwitchUpdate implements the swUpdate operation of the synthesis
/// algorithm (Fig. 4): it replaces one switch's table, recomputes the
/// outgoing edges of that switch's arrival states, and reports which states
/// changed so the incremental checker can relabel only their ancestors.
/// The returned UndoRecord restores the previous configuration exactly,
/// which the DFS uses on backtrack.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_KRIPKE_KRIPKE_H
#define NETUPD_KRIPKE_KRIPKE_H

#include "ltl/Prop.h"
#include "net/Config.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace netupd {

/// Dense Kripke state index.
using StateId = uint32_t;

/// The Kripke structure for one (topology, configuration, traffic classes)
/// triple, mutable by switch-granularity or rule-granularity updates.
class KripkeStructure {
public:
  /// The role a location state plays; see file comment.
  enum class Role : uint8_t { Arrival, Egress };

  KripkeStructure(const Topology &Topo, Config Cfg,
                  std::vector<TrafficClass> Classes);

  unsigned numStates() const { return static_cast<unsigned>(Succs.size()); }
  unsigned numClasses() const {
    return static_cast<unsigned>(Classes.size());
  }

  const Topology &topology() const { return Topo; }
  const Config &config() const { return Cfg; }
  const std::vector<TrafficClass> &classes() const { return Classes; }

  const std::vector<StateId> &initialStates() const { return Initials; }
  const std::vector<StateId> &succs(StateId S) const { return Succs[S]; }
  const std::vector<StateId> &preds(StateId S) const { return Preds[S]; }

  /// True if the only outgoing edge of \p S is a self-loop.
  bool isSink(StateId S) const {
    return Succs[S].size() == 1 && Succs[S][0] == S;
  }

  /// The observable part of state \p S for atomic-proposition evaluation.
  StateInfo stateInfo(StateId S) const;

  SwitchId stateSwitch(StateId S) const { return Locs[localOf(S)].Sw; }
  PortId statePort(StateId S) const { return Locs[localOf(S)].Pt; }
  Role stateRole(StateId S) const { return Locs[localOf(S)].R; }
  unsigned stateClass(StateId S) const { return S / NumLocal; }

  /// Renders "(sw T1, pt 3, class h1->h3)" for diagnostics.
  std::string stateName(StateId S) const;

  /// Canonical digest of the structure's current semantic content:
  /// topology, traffic classes, and the *current* configuration. The
  /// configuration part is maintained incrementally Zobrist-style under
  /// applySwitchUpdate/undo (O(|table|) per mutation), so every
  /// recheckAfterUpdate site reads an up-to-date digest for free — the
  /// key MemoizingChecker uses. Two structures with equal digests label
  /// identically and number their states identically (construction is
  /// deterministic from the digested content).
  Digest digest() const {
    DigestBuilder B;
    B.addDigest(BaseDigest);
    B.addDigest(CfgXor);
    return B.finish();
  }

  /// Record sufficient to undo one applySwitchUpdate / applyTableUpdate.
  struct UndoRecord {
    SwitchId Sw = 0;
    Table OldTable;
    /// Digest of OldTable, saved so undo() restores the incremental
    /// configuration digest without rehashing the table.
    Digest OldTableDigest;
    /// (state, previous successor list) for every state whose edges
    /// changed.
    std::vector<std::pair<StateId, std::vector<StateId>>> OldEdges;
  };

  /// Replaces the table of switch \p Sw with \p NewTable and recomputes the
  /// affected edges. \p ChangedStates receives the states whose outgoing
  /// edges actually differ (the set "S" passed to incrModelCheck in
  /// Fig. 4).
  UndoRecord applySwitchUpdate(SwitchId Sw, const Table &NewTable,
                               std::vector<StateId> &ChangedStates);

  /// As above, but records into the caller-owned \p Undo, clearing and
  /// reusing its buffers. The DFS keeps one UndoRecord per depth and
  /// recycles it across candidates, so the apply/undo cycle on the
  /// search hot path allocates nothing in steady state.
  void applySwitchUpdate(SwitchId Sw, const Table &NewTable,
                         std::vector<StateId> &ChangedStates,
                         UndoRecord &Undo);

  /// Restores the configuration and edges saved in \p Undo.
  void undo(const UndoRecord &Undo);

  /// As above, but donates \p Undo's buffers back into the structure
  /// (the saved table and edge lists are moved, not copied). The record
  /// stays valid for reuse by the next recording applySwitchUpdate.
  void undo(UndoRecord &&Undo);

  /// Checks DAG-likeness: every cycle is a sink self-loop. Returns the
  /// states of a forwarding loop if one exists (the configuration is then
  /// rejected; the cycle doubles as a counterexample for pruning), or
  /// std::nullopt if the structure is DAG-like.
  std::optional<std::vector<StateId>> findForwardingLoop() const;

  /// Enumerates complete traces (initial state to sink) for testing; stops
  /// after \p MaxTraces. Each trace is the state sequence ending at a
  /// sink (the infinite suffix repeats the sink).
  std::vector<std::vector<StateId>> enumerateTraces(size_t MaxTraces) const;

private:
  struct LocalState {
    SwitchId Sw;
    PortId Pt;
    Role R;
  };

  unsigned localOf(StateId S) const { return S % NumLocal; }
  StateId stateAt(unsigned ClassIdx, unsigned Local) const {
    return ClassIdx * NumLocal + Local;
  }

  /// Computes the successor list of an arrival state under the current
  /// config.
  std::vector<StateId> computeSuccs(StateId S) const;
  /// Same, filling the caller's \p Next (cleared first) so a hot loop
  /// can reuse one buffer across states.
  void computeSuccs(StateId S, std::vector<StateId> &Next) const;

  /// Recomputes edges of all arrival states of switch \p Sw, appending
  /// undo entries and changed states.
  void recomputeSwitch(SwitchId Sw,
                       std::vector<std::pair<StateId, std::vector<StateId>>>
                           &OldEdges,
                       std::vector<StateId> &ChangedStates);

  void setSuccs(StateId S, std::vector<StateId> NewSuccs);

  /// Scratch buffer for recomputeSwitch's successor computation; reused
  /// across states and mutations.
  std::vector<StateId> ScratchSuccs;

  const Topology &Topo;
  Config Cfg;
  std::vector<TrafficClass> Classes;

  /// Digest state; see digest(). BaseDigest covers topology + classes,
  /// CfgXor is the XOR of configSlotDigest(sw, TableDigests[sw]).
  Digest BaseDigest;
  Digest CfgXor;
  std::vector<Digest> TableDigests; // switch -> current table digest

  unsigned NumLocal = 0;
  std::vector<LocalState> Locs;              // local id -> location
  std::vector<int> ArrivalLocal;             // global port -> local id or -1
  std::vector<int> EgressLocal;              // global port -> local id or -1
  std::vector<std::vector<unsigned>> SwitchArrivals; // switch -> local ids

  std::vector<std::vector<StateId>> Succs;
  std::vector<std::vector<StateId>> Preds;
  std::vector<StateId> Initials;
};

} // namespace netupd

#endif // NETUPD_KRIPKE_KRIPKE_H
