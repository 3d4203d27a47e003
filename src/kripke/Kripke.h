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
/// Representation. A structure does not own its switch tables: each
/// switch holds a handle into a TablePool of immutable, interned tables.
/// A pool entry carries the table, its configuration slot digest and the
/// successor rows of that switch's arrival states for every class, all
/// computed once when the table is interned. A state's successor list is
/// a view into such a row; predecessor lists live in one flat array whose
/// per-state capacity the topology bounds. The search builds one pool per
/// run (initial and final tables) and shares it read-only between its
/// shards; a structure interns anything else — the rule-granularity mixes
/// — into a private overlay on top of it.
///
/// applyHandle implements the swUpdate operation of the synthesis
/// algorithm (Fig. 4): it swaps one switch's handle, relinks only the
/// states whose row differs, and reports them so the incremental checker
/// can relabel only their ancestors. The UndoRecord it fills restores the
/// previous handle, successor views and predecessor order exactly, which
/// the DFS uses on backtrack. Neither direction copies a table, recomputes
/// a row, rehashes anything or allocates once the record's buffers have
/// grown to the largest relink they have seen.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_KRIPKE_KRIPKE_H
#define NETUPD_KRIPKE_KRIPKE_H

#include "ltl/Prop.h"
#include "net/Config.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace netupd {

/// Dense Kripke state index.
using StateId = uint32_t;

/// A read-only view of a contiguous run of states: a successor row or a
/// predecessor list. Valid until the structure it came from next mutates.
class StateSpan {
public:
  using value_type = StateId;
  using iterator = const StateId *;
  using const_iterator = const StateId *;

  StateSpan() = default;
  StateSpan(const StateId *Data, size_t Size)
      : Data(Data), Size(static_cast<uint32_t>(Size)) {}
  StateSpan(const std::vector<StateId> &V) // NOLINT: implicit, like span.
      : StateSpan(V.data(), V.size()) {}

  const StateId *begin() const { return Data; }
  const StateId *end() const { return Data + Size; }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  StateId operator[](size_t I) const { return Data[I]; }

  friend bool operator==(StateSpan A, StateSpan B) {
    return A.Size == B.Size &&
           (A.Data == B.Data || std::equal(A.begin(), A.end(), B.begin()));
  }
  friend bool operator!=(StateSpan A, StateSpan B) { return !(A == B); }

private:
  const StateId *Data = nullptr;
  uint32_t Size = 0;
};

/// The state numbering of one (topology, traffic classes) pair and the
/// edge geometry derived from it; immutable once built. State S of class
/// C at local location l is C * numLocal() + l; arrival locations of one
/// switch are numbered in link order.
class KripkeLayout {
public:
  /// The role a location state plays; see file comment.
  enum class Role : uint8_t { Arrival, Egress };

  KripkeLayout(const Topology &Topo, std::vector<TrafficClass> Classes);

  const Topology &topology() const { return Topo; }
  const std::vector<TrafficClass> &classes() const { return Classes; }
  unsigned numClasses() const {
    return static_cast<unsigned>(Classes.size());
  }
  unsigned numLocal() const { return NumLocal; }
  unsigned numStates() const { return NumLocal * numClasses(); }

  struct LocalState {
    SwitchId Sw;
    PortId Pt;
    Role R;
  };
  const LocalState &local(StateId S) const { return Locs[S % NumLocal]; }
  unsigned stateClass(StateId S) const { return S / NumLocal; }

  /// Arrival locations of switch \p Sw; its rows are numbered
  /// arrival index * numClasses() + class.
  const unsigned *arrivalsBegin(SwitchId Sw) const {
    return SwitchArrivals.data() + ArrivalOff[Sw];
  }
  unsigned numArrivals(SwitchId Sw) const {
    return ArrivalOff[Sw + 1] - ArrivalOff[Sw];
  }
  /// The row of arrival state \p S in its switch's pool entries.
  unsigned rowOf(StateId S) const {
    return RowIdx[S % NumLocal] * numClasses() + stateClass(S);
  }

  const std::vector<StateId> &initialStates() const { return Initials; }

  /// Offset of state \p S's slice in a flat predecessor array; the slice
  /// ends at predBase(S + 1). Its size bounds S's in-degree under every
  /// configuration of the topology.
  uint32_t predBase(StateId S) const { return PredOff[S]; }
  uint32_t predCapacity() const { return PredOff.back(); }

  /// The one-element self-loop row of state \p S (egress states' row).
  StateSpan selfLoop(StateId S) const { return StateSpan(&SelfLoops[S], 1); }

  /// Computes switch \p Sw's rows under table \p T into \p Out: a header
  /// of numArrivals(Sw) * numClasses() + 1 offsets (into Out itself),
  /// then the sorted, deduplicated successor rows.
  void buildRows(SwitchId Sw, const Table &T, std::vector<StateId> &Out) const;

private:
  const Topology &Topo;
  std::vector<TrafficClass> Classes;
  unsigned NumLocal = 0;
  std::vector<LocalState> Locs;          // local id -> location
  std::vector<int> ArrivalLocal;         // global port -> local id or -1
  std::vector<int> EgressLocal;          // global port -> local id or -1
  std::vector<uint32_t> ArrivalOff;      // switch -> first arrival slot
  std::vector<unsigned> SwitchArrivals;  // arrival locals, by switch
  std::vector<uint32_t> RowIdx;          // local id -> index in its switch
  std::vector<StateId> Initials;
  std::vector<uint32_t> PredOff;         // state -> pred slice offset
  std::vector<StateId> SelfLoops;        // state -> itself
};

/// One interned switch table: a pool entry. Immutable after interning.
class SwitchTable {
public:
  SwitchId sw() const { return Sw; }
  /// Dense id within the pool chain that interned it: a root pool numbers
  /// its entries from 0, an overlay continues after its parent.
  uint32_t id() const { return Id; }
  const Table &table() const { return *T; }
  /// configSlotDigest(sw(), digestOf(table())).
  const Digest &slotDigest() const { return Slot; }
  /// Successor row \p R; see KripkeLayout::rowOf.
  StateSpan row(unsigned R) const {
    return StateSpan(Rows.data() + Rows[R], Rows[R + 1] - Rows[R]);
  }

private:
  friend class TablePool;
  SwitchId Sw = 0;
  uint32_t Id = 0;
  const Table *T = nullptr; // &Owned, or a table the pool's owner keeps.
  Table Owned;
  Digest TableDigest;
  Digest Slot;
  std::vector<StateId> Rows; // KripkeLayout::buildRows format.
  /// The previously interned entry of the same switch in this pool.
  const SwitchTable *NextOfSwitch = nullptr;
};

/// A handle to an interned table. Stable for the interning pool's life.
using TableHandle = const SwitchTable *;

/// Interned switch tables over one layout. A root pool owns its layout;
/// an overlay extends a parent pool (which must not change while the
/// overlay lives), interning only what the parent lacks. Interning is
/// not thread-safe; lookups on a pool nobody interns into are.
class TablePool {
public:
  TablePool(const Topology &Topo, std::vector<TrafficClass> Classes);
  explicit TablePool(std::shared_ptr<const TablePool> Parent);

  const KripkeLayout &layout() const { return *Layout; }
  /// Entries in this pool and its parents.
  size_t size() const { return IdBase + Entries.size(); }

  /// The entry for (\p Sw, \p T), interning it if the chain lacks one.
  /// internRef keeps a reference to \p T, which must outlive the pool;
  /// intern takes its own copy.
  TableHandle internRef(SwitchId Sw, const Table &T);
  TableHandle intern(SwitchId Sw, Table T);

private:
  /// The entry for (\p Sw, \p T) in this pool or a parent, given T's
  /// digest \p D; null if there is none.
  TableHandle find(SwitchId Sw, const Table &T, const Digest &D) const;
  SwitchTable &add(SwitchId Sw, const Digest &D);

  std::shared_ptr<const KripkeLayout> Layout;
  std::shared_ptr<const TablePool> Parent;
  uint32_t IdBase = 0;
  std::vector<std::unique_ptr<SwitchTable>> Entries;
  /// Switch -> newest entry of this pool (chained by NextOfSwitch).
  std::vector<const SwitchTable *> Newest;
};

/// The Kripke structure for one (topology, configuration, traffic classes)
/// triple, mutable by switch-granularity or rule-granularity updates.
class KripkeStructure {
public:
  using Role = KripkeLayout::Role;

  /// A standalone structure: interns \p Cfg's tables into a private pool.
  KripkeStructure(const Topology &Topo, Config Cfg,
                  std::vector<TrafficClass> Classes);
  /// A structure over a shared pool, switch Sw holding \p Tables[Sw].
  /// Allocates O(1) blocks: the rows are the pool's.
  KripkeStructure(std::shared_ptr<const TablePool> Pool,
                  const std::vector<TableHandle> &Tables);
  KripkeStructure(const KripkeStructure &) = delete;
  KripkeStructure &operator=(const KripkeStructure &) = delete;

  unsigned numStates() const { return static_cast<unsigned>(Succ.size()); }
  unsigned numClasses() const { return L.numClasses(); }

  const Topology &topology() const { return L.topology(); }
  const std::vector<TrafficClass> &classes() const { return L.classes(); }

  /// The current table of switch \p Sw, and its handle.
  TableHandle handle(SwitchId Sw) const { return Handles[Sw]; }
  const Table &table(SwitchId Sw) const { return Handles[Sw]->table(); }
  /// The current configuration, copied out table by table.
  Config config() const;

  const std::vector<StateId> &initialStates() const {
    return L.initialStates();
  }
  StateSpan succs(StateId S) const { return Succ[S]; }
  StateSpan preds(StateId S) const {
    return StateSpan(PredData.data() + L.predBase(S), PredLen[S]);
  }

  /// True if the only outgoing edge of \p S is a self-loop.
  bool isSink(StateId S) const {
    return Succ[S].size() == 1 && Succ[S][0] == S;
  }

  /// The observable part of state \p S for atomic-proposition evaluation.
  StateInfo stateInfo(StateId S) const;

  SwitchId stateSwitch(StateId S) const { return L.local(S).Sw; }
  PortId statePort(StateId S) const { return L.local(S).Pt; }
  Role stateRole(StateId S) const { return L.local(S).R; }
  unsigned stateClass(StateId S) const { return L.stateClass(S); }

  /// Renders "(sw T1, pt 3, class h1->h3)" for diagnostics.
  std::string stateName(StateId S) const;

  /// Canonical digest of the structure's current semantic content:
  /// topology, traffic classes, and the *current* configuration. Computed
  /// on the first call; from then on applyHandle/undo keep the
  /// configuration part current Zobrist-style by XOR-ing the pool
  /// entries' slot digests (O(1) per mutation), so every recheck site
  /// reads an up-to-date digest for free — the key MemoizingChecker uses.
  /// Two structures with equal digests label identically and number their
  /// states identically (construction is deterministic from the digested
  /// content).
  Digest digest() const;

  /// Record sufficient to undo one applyHandle.
  struct UndoRecord {
    TableHandle Old = nullptr;
    TableHandle New = nullptr;
    /// States whose outgoing edges changed, in relink order: the set "S"
    /// passed to incrModelCheck in Fig. 4.
    std::vector<StateId> Changed;
    /// For each changed state and each of its old successors, in order,
    /// the index it held in that successor's pred list.
    std::vector<uint32_t> PredPos;
  };

  /// The entry for (\p Sw, \p T) in the shared pool, or else in this
  /// structure's private overlay (interned there on first sight).
  TableHandle intern(SwitchId Sw, Table T);

  /// Installs \p New as its switch's table, relinking the states whose
  /// row differs, and records into the caller-owned \p Undo, reusing its
  /// buffers (the DFS keeps one record per depth).
  void applyHandle(TableHandle New, UndoRecord &Undo);

  /// Table-taking convenience: interns \p NewTable for switch \p Sw,
  /// applies it, and appends the changed states to \p ChangedStates.
  UndoRecord applySwitchUpdate(SwitchId Sw, const Table &NewTable,
                               std::vector<StateId> &ChangedStates);

  /// Restores the state before the applyHandle that filled \p Undo, pred
  /// order included. Undos must come in LIFO order.
  void undo(const UndoRecord &Undo);

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
  /// A private pool holding one configuration's tables, and their handles.
  struct Seed {
    std::shared_ptr<const TablePool> Pool;
    std::vector<TableHandle> Tables;
  };
  static Seed seed(const Topology &Topo, Config Cfg,
                   std::vector<TrafficClass> Classes);
  explicit KripkeStructure(Seed S)
      : KripkeStructure(std::move(S.Pool), S.Tables) {}

  std::shared_ptr<const TablePool> Pool;
  const KripkeLayout &L;
  /// Tables this structure interned that Pool lacks.
  TablePool Local;

  std::vector<TableHandle> Handles; // switch -> current table
  std::vector<StateSpan> Succ;      // state -> view of its current row
  std::vector<uint32_t> PredLen;    // state -> pred count
  std::vector<StateId> PredData;    // flat preds; see KripkeLayout::predBase

  /// Digest state; see digest(). BaseDigest covers topology + classes,
  /// CfgXor is the XOR of the current handles' slot digests.
  mutable bool DigestLive = false;
  mutable Digest BaseDigest;
  mutable Digest CfgXor;
};

/// Describes the first rule of \p Cfg that would forward a packet of one
/// of \p Classes with a rewritten header, or returns an empty string. The
/// encoding keeps classes disjoint (§3.3: packet modification is future
/// work), and so does wait removal's per-class graph: such a packet would
/// stay in its old class and a different network would be checked. Every
/// rule whose pattern admits the class counts, shadowed or not, since a
/// rule-granularity mix may unshadow it.
std::string classHeaderRewrite(const Config &Cfg,
                               const std::vector<TrafficClass> &Classes);

} // namespace netupd

#endif // NETUPD_KRIPKE_KRIPKE_H
