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
/// incremental SAT solver over "a before b" variables; when they become
/// unsatisfiable, no simple order exists and the search stops.
///
/// Soundness note: the ordering theory needs transitivity, which is cubic
/// in the number of mentioned operations. We add transitivity clauses only
/// while the mentioned set is small (TransitivityCap); beyond that the
/// encoding is a *relaxation* — it admits more orders than really exist —
/// so an UNSAT verdict remains a valid proof of impossibility, which is
/// the only verdict the search acts on.
///
/// Thread safety: one instance is shared by every shard of a sharded
/// search (constraints mined on any shard prove impossibility for all),
/// so addCexConstraint(), impossible(), and numClauses() serialize on an
/// internal mutex. The mutex is held across SAT solves — the one
/// unbounded-cost step — which blocks concurrent learners for the
/// duration; the search batches its impossible() checks (one per
/// EtCheckInterval failures per shard) precisely to keep that
/// serialization off the hot path. setStopToken() takes the same mutex,
/// so installing a token mid-flight (the seed-import path does this
/// between search phases) is safe too.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SYNTH_EARLYTERMINATION_H
#define NETUPD_SYNTH_EARLYTERMINATION_H

#include "engine/StopToken.h"
#include "sat/Solver.h"
#include "support/Bitset.h"
#include "support/ThreadAnnotations.h"

#include <map>
#include <vector>

namespace netupd {

/// Accumulates ordering constraints mined from counterexamples and decides
/// when they are jointly contradictory.
class EarlyTermination {
public:
  /// \p TransitivityCap bounds the mentioned-operation set for which full
  /// transitivity is encoded (see file comment). \p MaxClauseLits drops
  /// constraints whose |Updated| x |NotUpdated| disjunction would exceed
  /// the bound — another relaxation: large counterexamples (long paths)
  /// produce enormous clauses of little pruning value, and omitting them
  /// keeps the solver calls cheap without affecting soundness.
  /// The defaults keep the encoding small: clause count grows with the
  /// cube of TransitivityCap, and the search consults the solver after
  /// every learned constraint.
  explicit EarlyTermination(unsigned TransitivityCap = 16,
                            size_t MaxClauseLits = 1024)
      : TransitivityCap(TransitivityCap), MaxClauseLits(MaxClauseLits) {}

  /// Records the constraint from one counterexample: some operation of
  /// \p NotUpdated must precede some operation of \p Updated. An empty
  /// \p NotUpdated set means the final configuration itself is bad and no
  /// order can exist.
  void addCexConstraint(const std::vector<unsigned> &Updated,
                        const std::vector<unsigned> &NotUpdated);

  /// Records the ordering constraint encoded by one wrong-set entry in
  /// its (mask, value) form — the form the search's learnCex derives
  /// and the cross-job ConstraintStore persists: some masked-but-not-
  /// updated operation must precede some updated one. Converts and
  /// forwards to addCexConstraint, so imported and freshly-learned
  /// constraints take the identical path (size caps and the stop token
  /// included).
  void addMaskValueConstraint(const Bitset &Mask, const Bitset &Value);

  /// True when the accumulated constraints admit no total order; runs the
  /// incremental SAT solver. When the stop token has fired the solve is
  /// skipped and the cached verdict returned: the caller is about to
  /// abandon the search anyway, and SAT calls are the one unbounded-cost
  /// step in the learning path.
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
  /// apart from the stop token, so one instance can serve unit after
  /// unit of a budgeted search.
  void reset();

  uint64_t numClauses() const {
    MutexLock Lock(M);
    return Clauses;
  }

private:
  /// The literal meaning "operation A is updated before operation B".
  sat::Lit before(unsigned A, unsigned B) NETUPD_REQUIRES(M);

  /// Registers \p Op as mentioned, emitting transitivity clauses against
  /// previously mentioned operations while under the cap.
  void mention(unsigned Op) NETUPD_REQUIRES(M);

  /// Serializes every member below; see the thread-safety note above.
  mutable Mutex M;
  sat::Solver Solver NETUPD_GUARDED_BY(M);
  StopToken Stop NETUPD_GUARDED_BY(M);
  std::map<std::pair<unsigned, unsigned>, sat::Var> PairVars
      NETUPD_GUARDED_BY(M);
  std::vector<unsigned> Mentioned NETUPD_GUARDED_BY(M);
  unsigned TransitivityCap;
  size_t MaxClauseLits;
  uint64_t Clauses NETUPD_GUARDED_BY(M) = 0;
  bool KnownImpossible NETUPD_GUARDED_BY(M) = false;
  bool Dirty NETUPD_GUARDED_BY(M) = false;  // New clauses since last solve.
  bool LastSat NETUPD_GUARDED_BY(M) = true; // Cached verdict.
};

} // namespace netupd

#endif // NETUPD_SYNTH_EARLYTERMINATION_H
