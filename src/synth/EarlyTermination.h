//===- synth/EarlyTermination.h - SAT-based search cutoff ------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The early-search-termination optimization of §4.2 (B). Every
/// counterexample observed during the DFS names a set of updated
/// operations U and not-yet-updated operations D whose combination is bad;
/// any correct total order must therefore update some d in D before some u
/// in U. These disjunctive precedence constraints accumulate in an
/// incremental SAT solver over "a before b" variables, one per unordered
/// pair of operations that some constraint mentions; when they admit no
/// total order, no simple order exists and the search stops.
///
/// The ordering theory is checked lazily, CDCL(T) style. The solver sees
/// only the counterexample clauses. When it finds a model, impossible()
/// orients every pair variable as the model says and looks for a directed
/// cycle. An acyclic orientation extends to a total order, so the model
/// is a real order and the verdict is final; a cycle x0 -> ... -> xk -> x0
/// becomes the clause "not all of these edges", which excludes the model,
/// and the solver runs again. The loop therefore terminates, and the
/// verdict is exact with respect to the kept constraints. The one
/// relaxation is MaxClauseLits (see its comment): a dropped
/// constraint can only make an impossible instance look possible, never
/// the reverse, and "impossible" is the only verdict the search acts on.
///
/// A counterexample with no updated operation would already hold in the
/// initial configuration, which the search verifies first, so a
/// counterexample-producing backend cannot report one. Should a buggy or
/// approximating backend do so anyway, addCexConstraint() learns nothing
/// rather than an empty clause, which would be an incorrect Impossible.
///
/// Thread safety: one instance is shared by every shard of a sharded
/// search (constraints mined on any shard prove impossibility for all),
/// so addCexConstraint(), impossible(), and numClauses() serialize on an
/// internal mutex. The mutex is held across SAT solves — the one
/// unbounded-cost step — which blocks concurrent learners for the
/// duration; the search batches its impossible() checks (one per
/// EtCheckInterval failures per shard) precisely to keep that
/// serialization off the hot path. setStopToken() takes the same mutex,
/// so installing a token while other threads learn is safe too.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SYNTH_EARLYTERMINATION_H
#define NETUPD_SYNTH_EARLYTERMINATION_H

#include "engine/StopToken.h"
#include "sat/Solver.h"
#include "support/Bitset.h"
#include "support/ThreadAnnotations.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace netupd {

/// Accumulates ordering constraints mined from counterexamples and decides
/// when they are jointly contradictory.
class EarlyTermination {
public:
  /// Constraints whose |Updated| x |NotUpdated| disjunction would exceed
  /// this many literals are dropped: large counterexamples (long paths)
  /// produce enormous clauses of little pruning value, and omitting them
  /// keeps the solver calls cheap. Dropping a constraint admits more
  /// orders, never fewer, so an Impossible verdict stays a proof; apart
  /// from this drop the verdict is exact (see file comment). The search
  /// consults impossible() once every EtCheckInterval (8) failed checks
  /// per shard, not after every learned constraint.
  static constexpr size_t MaxClauseLits = 1024;

  /// Records the constraint from one counterexample: some operation of
  /// \p NotUpdated must precede some operation of \p Updated. An empty
  /// \p NotUpdated set means the final configuration itself is bad and no
  /// order can exist. An empty \p Updated set teaches nothing (see file
  /// comment) and is ignored in every build.
  void addCexConstraint(const std::vector<unsigned> &Updated,
                        const std::vector<unsigned> &NotUpdated);

  /// Records the ordering constraint encoded by one wrong-set entry in
  /// its (mask, value) form — the form the search's learnCex derives:
  /// some masked-but-not-updated operation must precede some updated
  /// one. Converts and forwards to addCexConstraint (size caps and the
  /// stop token included).
  void addMaskValueConstraint(const Bitset &Mask, const Bitset &Value);

  /// True when the accumulated constraints admit no total order; runs
  /// the solve / cycle-check loop of the file comment. The stop token is
  /// polled before every solve: once it has fired the loop ends and the
  /// cached verdict of the last completed check is returned, since the
  /// caller is about to abandon the search anyway and SAT calls are the
  /// one unbounded-cost step in the learning path. A stopped check
  /// stays pending, so a later call with a live token finishes it.
  bool impossible();

  /// Installs the cancellation token polled by impossible() and
  /// addCexConstraint(); an empty token (the default) never stops.
  /// Serialized on the same mutex as the learners, so it is safe at any
  /// point — the previous "call before any concurrent use" contract was
  /// an unguarded write racing the locked readers.
  void setStopToken(StopToken Token) {
    MutexLock Lock(M);
    Stop = std::move(Token);
  }

  /// Drops every constraint, leaving the object as freshly constructed
  /// apart from the stop token and the capacity of its scratch buffers,
  /// so one instance can serve unit after unit of a budgeted search.
  void reset();

  /// Clauses handed to the solver: one per kept counterexample
  /// constraint plus one per cycle the theory check refuted.
  uint64_t numClauses() const {
    MutexLock Lock(M);
    return Clauses;
  }

private:
  /// Pairs[V] describes variable V: the operations Lo < Hi it orders,
  /// packed into Key as Lo << 32 | Hi, and their node indices A and B.
  /// The variable is true when Lo is updated first.
  struct Pair {
    uint64_t Key;
    uint32_t A, B;
  };

  /// One oriented edge of the model's ordering graph.
  struct Edge {
    uint32_t To;
    sat::Var V;
  };

  /// The literal meaning "operation A is updated before operation B".
  sat::Lit before(unsigned A, unsigned B) NETUPD_REQUIRES(M);

  /// The dense node index of operation \p Op, assigning the next one on
  /// first use.
  uint32_t node(unsigned Op) NETUPD_REQUIRES(M);

  /// Doubles the pair table and re-inserts every pair.
  void growTable() NETUPD_REQUIRES(M);

  /// Orients every pair variable as the solver's last model says and
  /// searches the resulting graph for a directed cycle. On finding one,
  /// adds the clause forbidding it and returns true; returns false when
  /// the orientation is acyclic.
  bool refuteCycle() NETUPD_REQUIRES(M);

  /// Serializes every member below; see the thread-safety note above.
  mutable Mutex M;
  sat::Solver Solver NETUPD_GUARDED_BY(M);
  StopToken Stop NETUPD_GUARDED_BY(M);

  // The pair index: an open-addressing table of variable + 1 (0 = empty)
  // keyed on the (min, max) operation pair, at most half full. Sized by
  // the pairs the constraints mention, never by the square of the
  // operation count.
  std::vector<Pair> Pairs NETUPD_GUARDED_BY(M);
  std::vector<uint32_t> Table NETUPD_GUARDED_BY(M);
  /// NodeOf[op] is op's node index + 1 (0 = not yet mentioned); NodeOps
  /// maps back. Sized by the largest operation id, which the search
  /// bounds by its operation count.
  std::vector<uint32_t> NodeOf NETUPD_GUARDED_BY(M);
  std::vector<unsigned> NodeOps NETUPD_GUARDED_BY(M);

  // Cycle-search scratch, reused across rounds and units: the model's
  // graph in compressed adjacency form, and the DFS state per node.
  std::vector<uint32_t> AdjStart NETUPD_GUARDED_BY(M);
  std::vector<Edge> Adj NETUPD_GUARDED_BY(M);
  std::vector<uint32_t> NextEdge NETUPD_GUARDED_BY(M);
  std::vector<uint8_t> Color NETUPD_GUARDED_BY(M);
  std::vector<sat::Var> EnteredBy NETUPD_GUARDED_BY(M);
  std::vector<uint32_t> Stack NETUPD_GUARDED_BY(M);

  uint64_t Clauses NETUPD_GUARDED_BY(M) = 0;
  bool KnownImpossible NETUPD_GUARDED_BY(M) = false;
  bool Dirty NETUPD_GUARDED_BY(M) = false;  // New clauses since last check.
  bool LastSat NETUPD_GUARDED_BY(M) = true; // Cached verdict.
};

} // namespace netupd

#endif // NETUPD_SYNTH_EARLYTERMINATION_H
