//===- mc/CheckerBackend.h - Model-checker abstraction ---------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker-backend interface the synthesizer drives (§6 lists four
/// backends: Incremental, Batch, NuSMV, NetPlumber; this repo provides
/// Incremental, Batch, a BDD-based NuSMV substitute, and a header-space
/// NetPlumber substitute).
///
/// The synthesis DFS explores configurations by mutating one
/// KripkeStructure in place and rolling it back on backtrack, so the
/// interface is stack-shaped: every recheckAfterUpdate is eventually
/// matched by either a notifyRollback (backtrack) or nothing (the search
/// committed to the update and continued deeper).
///
/// Budget charging: bind() and recheckAfterUpdate() are non-virtual
/// entry points (backends implement bindImpl/recheckImpl) so logical
/// budgets are charged at exactly one place. recheckAfterUpdate charges
/// the attached BudgetAccount once per call, *before* any memoization
/// below can intercept it — a cache hit costs a budget token exactly
/// like a computed answer, which is what keeps the set of affordable
/// search steps a pure function of the budget, independent of what any
/// process-wide cache happens to contain. bind() is exempt: it is setup
/// cost, and a sharded search performs one bind per shard — a layout
/// artifact a deterministic budget must not observe.
///
/// The same wrappers are the single observability site of the check
/// path: they open mc.bind / mc.recheck trace spans. A decorator's
/// inner calls go through these wrappers too, so a memoized check shows
/// up as nested spans — the outer one covering the cache lookup, the
/// inner one (present only on a miss) the real compute. Observability never changes a verdict (obs/Trace.h).
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_MC_CHECKERBACKEND_H
#define NETUPD_MC_CHECKERBACKEND_H

#include "kripke/Kripke.h"
#include "ltl/Formula.h"
#include "obs/Trace.h"
#include "support/Budget.h"

#include <atomic>
#include <vector>

namespace netupd {

/// Outcome of one model-checking call.
struct CheckResult {
  /// True if every trace from every initial state satisfies the property.
  bool Holds = false;

  /// A violating trace (initial state to sink) when !Holds and the backend
  /// produces counterexamples; empty otherwise. NetPlumber-style backends
  /// leave this empty (§6 notes NetPlumber reports no counterexamples).
  std::vector<StateId> Cex;
};

/// Everything a backend may want to know about one applied update.
struct UpdateInfo {
  SwitchId Sw = 0;
  /// Table before / after the update: the structure's interned tables,
  /// valid as long as the structure is.
  const Table *OldTable = nullptr;
  const Table *NewTable = nullptr;
  /// States whose outgoing Kripke edges changed.
  const std::vector<StateId> *ChangedStates = nullptr;
};

/// Abstract model-checker backend. Bound to one structure and property at
/// a time.
class CheckerBackend {
public:
  virtual ~CheckerBackend();

  /// Binds to \p K and \p Phi and performs the initial full check
  /// (Fig. 4 line 7). Exempt from budget charging (see file comment).
  CheckResult bind(KripkeStructure &K, Formula Phi) {
    obs::TraceSpan Span("mc.bind");
    return bindImpl(K, Phi);
  }

  /// Rechecks after the bound structure was mutated by one switch/rule
  /// update (Fig. 4 line 10). Backends that cannot exploit incrementality
  /// simply run a full check. Charges the attached BudgetAccount once
  /// per call — the single charging site of the whole query path.
  CheckResult recheckAfterUpdate(const UpdateInfo &Update) {
    if (Account)
      Account->charge();
    obs::TraceSpan Span("mc.recheck");
    return recheckImpl(Update);
  }

  /// Attaches the logical-cost account future rechecks charge; null (the
  /// default) disables charging. The caller keeps ownership and must not
  /// outlive it — the search re-points this at each work unit's account.
  /// Decorators deliberately do NOT forward the account to their inner
  /// backend: the outer entry point has already charged the call.
  void setBudget(BudgetAccount *A) { Account = A; }

  /// Notifies that the structure was rolled back to exactly the state
  /// before the matching recheckAfterUpdate (LIFO discipline).
  virtual void notifyRollback() = 0;

  /// True if CheckResult::Cex is populated on failure; the synthesizer
  /// only learns from counterexamples when this holds.
  virtual bool providesCounterexamples() const { return true; }

  /// Human-readable backend name for benchmark tables.
  virtual const char *name() const = 0;

  /// Number of model-checking calls served so far (for the §6
  /// micro-comparison of checkers on identical query streams). Every
  /// backend increments exactly once per bind() and once per
  /// recheckAfterUpdate() — except MemoizingChecker, which counts only
  /// the calls its inner backend actually computed, so numQueries() is
  /// always "real checking work performed". Atomic so engine threads may
  /// read a racing backend's progress; a backend itself is still
  /// single-threaded.
  unsigned numQueries() const {
    // relaxed: statistics counter; a racing reader sees some recent count.
    return Queries.load(std::memory_order_relaxed);
  }

  /// Memoization counters; nonzero only for caching decorators
  /// (MemoizingChecker). The synthesizer copies them into
  /// SynthStats::CacheHits/CacheMisses so they surface in engine reports.
  virtual uint64_t cacheHits() const { return 0; }
  virtual uint64_t cacheMisses() const { return 0; }

protected:
  /// The backend implementations behind the charging wrappers above.
  virtual CheckResult bindImpl(KripkeStructure &K, Formula Phi) = 0;
  virtual CheckResult recheckImpl(const UpdateInfo &Update) = 0;

  std::atomic<unsigned> Queries{0};

private:
  /// The account recheckAfterUpdate() charges; not owned, may be null.
  /// Plain pointer on purpose: a backend is single-threaded (see
  /// numQueries()), and so is its account.
  BudgetAccount *Account = nullptr;
};

} // namespace netupd

#endif // NETUPD_MC_CHECKERBACKEND_H
