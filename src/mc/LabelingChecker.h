//===- mc/LabelingChecker.h - §5 labeling model checker --------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's incremental LTL model checker for DAG-like Kripke
/// structures (§5), plus the Batch variant used as a baseline in Fig. 7.
///
/// Each state q is labeled with the set of maximally-consistent subsets M
/// of ecl(phi) realizable by some trace from q (labGr in the paper). For
/// sinks the label is the singleton Holds0 set; for inner states it is
/// labelNode: { extend(M', atoms(q)) | q' in succ(q), M' in labGr(q') }.
/// The property holds iff every initial state's label contains only sets
/// with phi (checkInitStates).
///
/// Incrementality (relbl): after an update changes the edges of a state
/// set U, only ancestors of U can change labels. States are relabeled
/// children-first; propagation stops at states whose labels are unchanged.
/// The complexity is O(|ancestors(U)| * 2^|phi|) versus O(|K| * 2^|phi|)
/// for the monolithic relabeling (Corollary 1 discussion).
///
/// Labels live in one append-only arena: each state names its label by a
/// span {Begin, Count} of it, and a label is computed by appending the
/// extended successor sets at the tail, then sorting and deduplicating
/// that tail in place. The monolithic pass clears the arena and appends
/// every label in children-first order. The incremental pass opens a
/// frame that marks the arena's size and the size of a flat stack of
/// saved spans; a relabeled state whose new label equals its old one
/// gives the tail back, and one whose label changed pushes its old span
/// onto the saved stack and points at the new one. The old label's words
/// are never overwritten, so rollback is the trail truncation of a CDCL
/// solver's backtrack: restore the saved spans in reverse order, then cut
/// both stacks back to the frame's marks. Frames are strictly LIFO (every
/// recheck is matched by one rollback, innermost first), which is what
/// makes the cut sound. Rollback copies no label.
///
/// Reachability gate (Incremental mode). Only the labels of states that
/// ingress traffic reaches decide a verdict: the initial states and, for
/// a counterexample, their descendants. The checker keeps R, the states
/// reachable from the initial states in the current configuration, and
/// the invariant that every state in R holds its exact label. Ancestors
/// of a state outside R lie outside R too, so an update whose changed
/// states all lie outside R leaves R, every label in R and the verdict as
/// they are. Such a recheck relabels nothing: its changed states are
/// *deferred*, marked as states whose labels (and whose ancestors'
/// labels) may be stale. An update that changes a state in R recomputes
/// R, then relabels the changed states plus the deferred states that
/// entered R, propagating to ancestors as above. No deferred state is in
/// R after a recheck, and every state that is not deferred agrees with
/// its successors' current labels, which is what keeps the invariant.
/// Verdicts, counterexamples, query counts and budget charges are those
/// of eager relabeling; only the label ops differ. Rollback restores R
/// and the deferred set from their own trails, as it restores spans.
///
/// Two things are not deferred. The loop check still roots its DFS at
/// every changed state, reachable or not: a loop that no traffic reaches
/// still rejects the configuration, exactly as in Batch mode. And bind()
/// labels every state: its DFS must visit every state for the loop check
/// anyway, so the deferred set starts empty.
///
/// The steady state does no hashing and no allocation. The closure is a
/// compiled table (ltl/Closure.h); each state's sink label is computed
/// once at bind; the arena, the saved-span stack, the frames, the relabel
/// order, the DFS stacks, R, the deferred set and their trails are
/// checker-owned buffers whose capacity is kept across queries, and arena
/// slots past the tail keep their storage. Bind allocates a fixed number
/// of buffers, none per state. The monolithic pass runs one three-colour
/// DFS that both rejects forwarding loops and yields the children-first
/// order.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_MC_LABELINGCHECKER_H
#define NETUPD_MC_LABELINGCHECKER_H

#include "ltl/Closure.h"
#include "mc/CheckerBackend.h"

#include <memory>

namespace netupd {

/// A deduplicated, sorted set of maximally-consistent sets (one state's
/// label), as copied out by LabelingChecker::label.
using LabelSet = std::vector<Bitset>;

/// The labeling checker; Mode selects the Incremental or Batch behaviour
/// of §6 (they share all labeling code, Batch just never reuses labels).
class LabelingChecker : public CheckerBackend {
public:
  enum class Mode { Incremental, Batch };

  explicit LabelingChecker(Mode M = Mode::Incremental) : M(M) {}

  void notifyRollback() override;
  const char *name() const override {
    return M == Mode::Incremental ? "Incremental" : "Batch";
  }

  /// Total number of state-label computations performed; the work measure
  /// that incrementality reduces.
  uint64_t numLabelOps() const { return LabelOps; }

  /// A copy of the current label of \p S; exposed for tests. Exact for
  /// every state traffic reaches, and for every state after
  /// flushDeferred().
  LabelSet label(StateId S) const {
    return LabelSet(spanBegin(Spans[S]), spanEnd(Spans[S]));
  }

  /// The children-first order the last full check labeled states in (the
  /// post-order of its DFS); exposed for tests.
  const std::vector<StateId> &postOrder() const { return PostOrder; }

  /// Relabels every deferred state, so that label() is exact for every
  /// state. Recorded in the innermost open frame, so the matching
  /// rollback undoes it too. A no-op in Batch mode.
  void flushDeferred();

protected:
  CheckResult bindImpl(KripkeStructure &K, Formula Phi) override;
  CheckResult recheckImpl(const UpdateInfo &Update) override;

private:
  /// One state's label: Count sets starting at Arena[Begin].
  struct Span {
    uint32_t Begin = 0;
    uint32_t Count = 0;
  };

  /// Appends the label of \p S, computed from its successors' current
  /// labels, at the arena's tail and returns its span.
  Span computeLabel(StateId S);

  /// Makes room for \p N more sets past the tail. May move the arena, so
  /// no reference into it may be held across the call.
  void reserveTail(size_t N);

  /// The sets of \p Sp.
  const Bitset *spanBegin(Span Sp) const { return Arena.data() + Sp.Begin; }
  const Bitset *spanEnd(Span Sp) const { return spanBegin(Sp) + Sp.Count; }

  /// Relabels every state (monolithic pass) and re-checks initial states.
  CheckResult fullCheck();

  /// Rejects new loops through \p Changed, then defers \p Changed or
  /// relabels it (see the file comment); records undo info into a new
  /// frame.
  CheckResult incrementalCheck(const std::vector<StateId> &Changed);

  /// Relabels \p Seeds and, while labels change, their ancestors,
  /// children first; records the old spans on the trail.
  void relabel(const std::vector<StateId> &Seeds);

  /// Recomputes R from the initial states. A deferred state that enters
  /// R leaves the deferred set and is appended to \p Seeds.
  void recomputeReach(std::vector<StateId> &Seeds);

  /// Marks \p S deferred unless it already is.
  void defer(StateId S) {
    if (!Deferred.contains(S))
      Deferred.toggle(S);
  }

  /// Three-colour DFS along successor edges from \p Roots, or from every
  /// state in id order when \p Roots is null. Returns the first cycle
  /// found (other than a sink self-loop); otherwise appends every state
  /// the DFS finished to \p PostOrder (when non-null), children first.
  /// Started from the changed states of an update it finds any new loop:
  /// a new cycle must contain a changed state, and the pre-update
  /// structure was DAG-like by the checker's invariant. Started from
  /// every state it finds the cycle KripkeStructure::findForwardingLoop()
  /// finds.
  std::optional<std::vector<StateId>>
  findLoopFrom(const std::vector<StateId> *Roots,
               std::vector<StateId> *PostOrder);

  /// Verifies all initial states and extracts a counterexample if needed.
  CheckResult checkInitStates();

  /// Reconstructs a violating trace starting at \p Init whose
  /// maximally-consistent set is \p M (Section 5, "Counterexamples").
  std::vector<StateId> extractCex(StateId Init, const Bitset &M);

  Mode M;
  KripkeStructure *K = nullptr;
  std::unique_ptr<Closure> Cl;
  std::vector<Bitset> AtomBits;   // Per-state atom valuations.
  std::vector<Bitset> SinkLabels; // Per-state Holds0 set, used while a sink.
  uint64_t LabelOps = 0;

  /// The label arena: sets [0, ArenaEnd) are live, and the slots past
  /// ArenaEnd are spares that keep their storage for the next append.
  std::vector<Bitset> Arena;
  size_t ArenaEnd = 0;
  std::vector<Span> Spans; // Per-state current label.

  /// A set of states with constant-time membership, insertion and
  /// removal that can list its members. Every toggle is logged, so
  /// undoTo() restores the membership (not the member order) the set had
  /// at a mark.
  class TrailedSet {
  public:
    /// Empties the set and its log and sizes it for \p N states.
    void reset(unsigned N) {
      Pos.assign(N, Absent);
      Members.clear();
      Members.reserve(N);
      Log.clear();
      Log.reserve(N);
    }
    bool contains(StateId S) const { return Pos[S] != Absent; }
    const std::vector<StateId> &members() const { return Members; }
    /// Inserts \p S if absent, removes it if present.
    void toggle(StateId S) {
      flip(S);
      Log.push_back(S);
    }
    size_t mark() const { return Log.size(); }
    void undoTo(size_t Mark) {
      for (; Log.size() != Mark; Log.pop_back())
        flip(Log.back());
    }

  private:
    static constexpr uint32_t Absent = ~uint32_t(0);
    void flip(StateId S) {
      if (Pos[S] == Absent) {
        Pos[S] = static_cast<uint32_t>(Members.size());
        Members.push_back(S);
        return;
      }
      StateId Last = Members.back();
      Members[Pos[S]] = Last;
      Pos[Last] = Pos[S];
      Members.pop_back();
      Pos[S] = Absent;
    }
    std::vector<uint32_t> Pos; // Index into Members, or Absent.
    std::vector<StateId> Members;
    std::vector<StateId> Log;
  };

  /// R, and the states outside it whose labels may be stale.
  TrailedSet Reach, Deferred;

  /// The trail: the spans relabeled states held before, and one frame of
  /// marks per recheckAfterUpdate still awaiting its rollback.
  struct Frame {
    size_t ArenaMark;
    size_t SavedMark;
    size_t ReachMark;
    size_t DeferredMark;
  };
  std::vector<std::pair<StateId, Span>> Saved;
  std::vector<Frame> Frames;

  /// Stamp-based scratch marks, reused across queries so the incremental
  /// path never touches memory proportional to the whole structure.
  std::vector<uint32_t> GrayStamp, DoneStamp, AncestorStamp, DirtyStamp,
      ReachStamp;
  uint32_t Stamp = 0;

  /// Buffers reused across queries.
  std::vector<StateId> PostOrder, ScratchAncestors, ScratchOrder, ScratchStack,
      ScratchSeeds;
  std::vector<std::pair<StateId, uint32_t>> DfsStack;
};

} // namespace netupd

#endif // NETUPD_MC_LABELINGCHECKER_H
