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
/// The steady state does no hashing and no allocation. The closure is a
/// compiled table (ltl/Closure.h); each state's sink label is computed
/// once at bind; the monolithic pass computes each label in place, and
/// the incremental pass into a checker-owned scratch set that it copies
/// in only when the label changed; the relabel order, the DFS stacks and
/// the undo frames are checker-owned buffers reused across queries. The
/// monolithic pass runs one three-colour DFS that both rejects forwarding
/// loops and yields the children-first order.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_MC_LABELINGCHECKER_H
#define NETUPD_MC_LABELINGCHECKER_H

#include "ltl/Closure.h"
#include "mc/CheckerBackend.h"

#include <memory>

namespace netupd {

/// A deduplicated set of maximally-consistent sets (one state's label).
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

  /// The current label of \p S; exposed for tests.
  const LabelSet &label(StateId S) const { return Labels[S]; }

  /// The children-first order the last full check labeled states in (the
  /// post-order of its DFS); exposed for tests.
  const std::vector<StateId> &postOrder() const { return PostOrder; }

protected:
  CheckResult bindImpl(KripkeStructure &K, Formula Phi) override;
  CheckResult recheckImpl(const UpdateInfo &Update) override;

private:
  /// Computes the label of \p S from its successors' current labels into
  /// \p Out, reusing Out's storage. Out may be S's own label, which is
  /// not read.
  void computeLabel(StateId S, LabelSet &Out);

  /// Relabels every state (monolithic pass) and re-checks initial states.
  CheckResult fullCheck();

  /// Relabels ancestors of \p Changed only; records undo info into the
  /// current frame.
  CheckResult incrementalCheck(const std::vector<StateId> &Changed);

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
  std::vector<LabelSet> Labels;
  uint64_t LabelOps = 0;

  /// Saved labels for rollback, one frame per recheckAfterUpdate. Frames
  /// at or above UndoDepth (whose Used is 0), and entries at or above a
  /// frame's Used, are spare: they keep their buffers for the next query
  /// to swap into.
  struct UndoFrame {
    std::vector<std::pair<StateId, LabelSet>> Saved;
    size_t Used = 0;
  };
  std::vector<UndoFrame> UndoStack;
  size_t UndoDepth = 0;

  /// Stamp-based scratch marks, reused across queries so the incremental
  /// path never touches memory proportional to the whole structure.
  std::vector<uint32_t> GrayStamp, DoneStamp, AncestorStamp, DirtyStamp;
  uint32_t Stamp = 0;

  /// Buffers reused across queries.
  LabelSet ScratchLabel;
  std::vector<StateId> PostOrder, ScratchAncestors, ScratchOrder, ScratchStack;
  std::vector<std::pair<StateId, uint32_t>> DfsStack;
};

} // namespace netupd

#endif // NETUPD_MC_LABELINGCHECKER_H
