//===- synth/OrderUpdate.cpp - The ORDERUPDATE algorithm -------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The search is factored into two layers, and one code path serves
// every configuration of it:
//
//  - SearchContext: everything shared across shards — the op table and
//    the table pool its ops install from, the shared pruning scope,
//    global budgets, the top-level work-unit counter, and the winner
//    slot. All of it is either immutable after setup or monotone (V
//    claims, W entries, SAT clauses, stop flags only ever accumulate),
//    which is why sharing is sound: a prune learned anywhere holds
//    everywhere.
//
//  - ShardSearcher: everything one shard owns — a private KripkeStructure
//    over the shared pool, which it mutates and rolls back, a private
//    CheckerBackend following that structure, the Applied
//    bitset/sequence, and local statistics. The LIFO
//    mutate/recheck/rollback discipline the backends (and the
//    MemoizingChecker sync-depth machine) assume is therefore preserved
//    per shard by construction.
//
// A PruneScope holds the pruning state of Fig. 4 and §4.2: the visited
// set V, the wrong set W and the SAT layer. Each searcher runs against
// one scope, chosen once when it is built:
//
//  - the shared scope, owned by the context. Its V is a plain
//    FlatBitsetSet when one shard claims in it and the lock-free
//    ClaimTable when several do; W and the SAT layer are thread-safe
//    either way.
//  - in deterministic budget mode, a unit scope the shard owns and
//    resets at the start of every unit (see below).
//
// So the hot loop — tryCandidate, learnCex, the early-termination check
// — runs one probe sequence and names no mode.
//
// Work units are depth-one prefixes: candidate first operation i roots
// unit i, and shards pull units from an atomic cursor. Depth one matters
// for the V-claim discipline — distinct first ops give distinct depth-1
// configurations, so no unit's root can be claimed (and wrongly skipped)
// by a shard working a different unit. Below depth one, claims are what
// make concurrent exploration exhaustive-without-duplication: the one
// shard that wins the insert explores the subtree, every other shard
// prunes, and since all units complete before a verdict is reached, every
// skipped subtree has been fully explored by its claimant.
//
// Work-stealing runs exactly when several shards claim in the shared
// scope: a depth-one split load-balances badly when one unit dwarfs the
// rest, so shards that run out of units steal below depth one. A shard
// exploring a shallow DFS node may, instead of descending into a
// candidate child itself, publish a descriptor (path from the root,
// candidate op, owning unit) on its bounded deque; idle shards pop
// descriptors, replay the path on their private structure (raw
// mutations, then one checker bind), and explore the subtree with the
// normal claim/prune protocol. Soundness needs no new machinery: a
// descriptor is published *instead of* the owner's descent, and the exit
// protocol (a shard leaves only when every deque is empty and no worker
// is active — and every pusher drains its own deque before leaving)
// guarantees each published subtree is eventually explored by exactly
// whoever reaches it, with the V claims arbitrating duplication exactly
// as for units. Verdicts stay scheduling-independent for the same reason
// sharding's are. Budget mode never steals: a unit scope cannot be
// handed across shards.
//
// Deterministic budget mode (a finite MaxCheckCalls/UnitCheckCalls)
// trades the shared pruning state for reproducibility: cross-shard
// sharing makes *which* prefixes a unit explores depend on sibling
// timing, which is fine when every unit runs to completion (the verdict
// is exhaustion-stable) but fatal when a budget truncates units — the
// same job could then Abort or Succeed depending on shard layout. So
// under a budget each unit explores against a freshly reset unit scope
// with a fixed quota drawn from the BudgetLedger (support/Budget.h),
// making a unit's outcome — Success with a specific sequence, exhausted
// quota, or fully-explored failure — a pure function of (instance,
// quota). The winner is the lowest-indexed successful unit, not the
// first in time, so the returned sequence is deterministic too. A
// retiring unit copies its W entries into the shared W, so the run's
// learning export is the shared W in every mode. The duplicated
// cross-unit exploration this costs is the price of byte-identical
// verdicts at any shard and worker count.
//
//===----------------------------------------------------------------------===//

#include "synth/OrderUpdate.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Bitset.h"
#include "support/Budget.h"
#include "support/ConcurrentSet.h"
#include "support/Crew.h"
#include "support/ThreadAnnotations.h"
#include "support/Timer.h"
#include "synth/EarlyTermination.h"
#include "synth/WaitRemoval.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

using namespace netupd;

namespace {

/// A running phase timeline for one shard: every switchTo(Acc) reads
/// the clock once, attributing the elapsed slice to the *previous*
/// phase, and switching to the phase already open is free. One clock
/// spans the whole unit (the recursion included), so a run of
/// consecutive pruned candidates — the bulk of a deep exhaustive proof —
/// extends one open "prune" slice with zero clock reads; only real
/// phase transitions pay: a full candidate costs ~4 reads and a pruned
/// one none. Two reads per phase were the dominant share of the detail
/// tier's 43% overhead on prune-heavy workloads. One-off phases (the
/// binds) use the same clock: switchTo, then stop. Inert when unarmed.
class PhaseClock {
public:
  explicit PhaseClock(bool Armed) : On(Armed) {}
  ~PhaseClock() { stop(); }
  PhaseClock(const PhaseClock &) = delete;
  PhaseClock &operator=(const PhaseClock &) = delete;

  /// Closes the current phase slice into its accumulator and opens a new
  /// one into \p Acc; free when \p Acc is already the open phase.
  void switchTo(uint64_t &Acc) {
    if (!On || Cur == &Acc)
      return;
    uint64_t Now = obs::nowNs();
    if (Cur)
      *Cur += Now - Last;
    Last = Now;
    Cur = &Acc;
  }

  /// Closes the current slice without opening a new one (e.g. before
  /// recursing — the child runs its own timeline).
  void stop() {
    if (!On || !Cur)
      return;
    uint64_t Now = obs::nowNs();
    *Cur += Now - Last;
    Last = Now;
    Cur = nullptr;
  }

private:
  bool On;
  uint64_t Last = 0;
  uint64_t *Cur = nullptr;
};

/// One search operation: replace switch Sw's whole table (ClassIdx = -1,
/// switch granularity) or only its rules for one traffic class
/// (rule granularity).
struct MicroOp {
  SwitchId Sw = 0;
  int ClassIdx = -1;
  /// Switch granularity: the final table, interned in the search's pool.
  TableHandle Final = nullptr;
  /// This op's index in SearchContext::SwitchOps[Sw].
  unsigned Slot = 0;
};

/// The rules of \p T restricted to class \p Hdr.
std::vector<Rule> classSlice(const Table &T, const Header &Hdr) {
  std::vector<Rule> Out;
  for (const Rule &R : T.rules())
    if (R.Pat.matchesHeader(Hdr))
      Out.push_back(R);
  return Out;
}

/// The table resulting from firing one op on \p Current: the whole final
/// table (switch granularity), or Current with one class's slice replaced
/// by the final slice (rule granularity).
Table opResultTable(const Table &Current, const Table &FinalT,
                    const Header *ClassHdr) {
  if (!ClassHdr)
    return FinalT;
  std::vector<Rule> Rules;
  for (const Rule &R : Current.rules())
    if (!R.Pat.matchesHeader(*ClassHdr))
      Rules.push_back(R);
  for (const Rule &R : FinalT.rules())
    if (R.Pat.matchesHeader(*ClassHdr))
      Rules.push_back(R);
  return Table(std::move(Rules));
}

/// The pruning state one searcher runs against: V, W and the SAT layer
/// of Fig. 4 and §4.2 (see the file comment). Everything in it only
/// grows between resets, so all who share a scope may prune on anything
/// any of them added.
struct PruneScope {
  /// Empties the scope and shapes it for \p NumOps-wide configurations
  /// claimed by \p Claimants shards. Not thread-safe; call before the
  /// claimants search.
  void reset(size_t NumOps, unsigned Claimants) {
    Concurrent = Claimants > 1;
    if (Concurrent)
      Claims.reset(NumOps, Claimants);
    else
      Visited.clear();
    Wrong.reset(NumOps);
    ET.reset();
  }

  /// True when several shards claim in V, which is then the ClaimTable.
  bool concurrent() const { return Concurrent; }

  /// Shard \p Shard's claim on \p B: true for exactly one caller per
  /// configuration. Losing it is the visited prune.
  bool claim(const Bitset &B, unsigned Shard) {
    return Concurrent ? Claims.claim(B, Shard) : Visited.insert(B);
  }

  /// W of Fig. 4: (mask, value) refutations, filed under the first set
  /// bit of value so a probe touches only entries that could match
  /// (support/ConcurrentSet.h).
  WatchedWrongSet Wrong;
  EarlyTermination ET; // Internally synchronized.

private:
  bool Concurrent = false;
  // V: a plain set for one claimant, which must not pay for atomics on
  // the hottest probe of an exhaustive proof; the claim table otherwise.
  FlatBitsetSet Visited;
  ClaimTable Claims;
};

/// A subtree descriptor published for stealing: replay Path from the
/// initial configuration, then explore candidate Cand from there, on
/// behalf of top-level unit Unit.
struct StealTask {
  std::vector<unsigned> Path;
  unsigned Cand = 0;
  size_t Unit = 0;
};

/// A bounded mutex-guarded deque of steal tasks, one per shard. The
/// owner pushes at (and pops from) the back, thieves pop from the
/// front — so thieves take the shallowest, biggest subtrees while the
/// owner reclaims its most recent offers. The bound keeps descriptors
/// from piling up faster than they are consumed; a failed push just
/// means the owner explores the candidate itself.
class StealDeque {
public:
  bool tryPush(StealTask &&T) {
    MutexLock Lock(M);
    if (Q.size() >= Cap)
      return false;
    Q.push_back(std::move(T));
    return true;
  }

  bool tryPopBack(StealTask &T) {
    MutexLock Lock(M);
    if (Q.empty())
      return false;
    T = std::move(Q.back());
    Q.pop_back();
    return true;
  }

  bool tryPopFront(StealTask &T) {
    MutexLock Lock(M);
    if (Q.empty())
      return false;
    T = std::move(Q.front());
    Q.pop_front();
    return true;
  }

private:
  static constexpr size_t Cap = 128;
  Mutex M;
  std::deque<StealTask> Q NETUPD_GUARDED_BY(M);
};

/// Shard-shared state of one synthesis run; see the file comment.
struct SearchContext {
  SearchContext(const Topology &Topo, const Config &Initial,
                const Config &Final,
                const std::vector<TrafficClass> &Classes, Formula Phi,
                const SynthOptions &Opts)
      : Topo(Topo), Initial(Initial), Final(Final), Classes(Classes),
        Phi(Phi), Opts(Opts) {}

  const Topology &Topo;
  const Config &Initial;
  const Config &Final;
  const std::vector<TrafficClass> &Classes;
  Formula Phi;
  const SynthOptions &Opts;

  // Immutable after buildOps(); shards read freely.
  /// The search's table pool: every switch's initial table and every
  /// diff switch's final table, with their rows and slot digests. Shared
  /// read-only by the shards' structures, which intern rule-granularity
  /// mixes into private overlays.
  std::shared_ptr<const TablePool> Pool;
  std::vector<TableHandle> InitialTables; // Switch -> handle in Pool.
  std::vector<MicroOp> Ops;
  std::vector<unsigned> OpOrder; // DFS candidate order (adds first).
  std::vector<std::vector<unsigned>> SwitchOps; // Switch -> op indices.

  /// True when a finite check budget engaged deterministic budget mode
  /// (see the file comment): every searcher prunes against its own unit
  /// scope, quotas come from Ledger, and the winner is the lowest
  /// successful unit. Decided before any searcher runs.
  bool Deterministic = false;
  /// The per-unit carve of the check budget; unlimited when
  /// !Deterministic.
  BudgetLedger Ledger;

  /// The shared pruning scope. Searchers outside budget mode prune
  /// against it; in budget mode it only collects the retired units' W
  /// entries for the learning export. Reset before any searcher runs.
  PruneScope Shared;

  /// Wrong-set entries imported from the cross-job ConstraintStore:
  /// filled before any searcher runs and immutable afterwards. The
  /// watch-list indexing is what keeps large seeded stores cheap to
  /// consult: a probe walks only the entries watching one of the
  /// configuration's set bits, O(relevant) instead of O(all). Always
  /// empty in deterministic budget mode, which never imports (see
  /// runSearch).
  WatchedWrongSet SeedWrong;
  /// True when this run publishes its learned entries on retirement;
  /// budget-mode searchers then copy their unit scope's W into the
  /// shared one instead of dropping it with the unit.
  bool ExportLearning = false;

  /// Work-stealing state, used only when several shards claim in the
  /// shared scope (see the file comment). One bounded deque per shard; a
  /// shard pushes only to its own — takeTask scans it first, so a pusher
  /// drains its own offers before it may exit, which is what keeps
  /// published subtrees from being stranded. ActiveWorkers counts shards
  /// currently holding work (a unit or a stolen task) plus shards
  /// mid-scan; IdleShards lets busy shards skip the publish when nobody
  /// could take it.
  std::vector<std::unique_ptr<StealDeque>> Deques;
  std::atomic<unsigned> ActiveWorkers{0};
  std::atomic<unsigned> IdleShards{0};

  // Cancellation and abort-cause bookkeeping. Check budgets are
  // accounted per unit through Ledger, so there is no shared call
  // counter; Clock only times the search for SynthSeconds.
  Timer Clock;
  /// Fired by the first shard to complete a sequence; siblings abandon
  /// their frontier at the next checkpoint. Never fired in deterministic
  /// budget mode, where a later-found lower unit may still outrank the
  /// current winner (see recordWinner).
  StopSource Found;
  /// Fired on any abort (budget, external stop, SAT impossibility) so
  /// sibling shards stop promptly instead of re-deriving the condition.
  /// Whoever fires it records the cause flag first, so a shard stopped
  /// by Halt never needs to guess why.
  StopSource Halt;
  /// Abort causes, kept separate so verdicts and stats never conflate a
  /// user cancellation with a budget decision (or either with a race
  /// loss, which sets no flag at all).
  std::atomic<bool> ExternalAbort{false};
  /// Units whose quota ran dry mid-subtree (deterministic across shard
  /// layouts up to winner cancellation; any nonzero count means the
  /// exploration was truncated and exhaustion cannot be claimed).
  std::atomic<uint64_t> ExhaustedUnits{0};
  std::atomic<bool> EtImpossible{false};

  /// Winner slot. Non-budget mode: first completed sequence in time
  /// wins and fires Found. Deterministic mode: the *lowest-indexed*
  /// successful unit wins — a pure function of the instance — and
  /// BestUnit lets shards abandon outranked units without a stop token.
  Mutex WinnerM;
  bool HaveWinner NETUPD_GUARDED_BY(WinnerM) = false;
  size_t WinnerUnit NETUPD_GUARDED_BY(WinnerM) = SIZE_MAX;
  std::vector<unsigned> WinnerSeq NETUPD_GUARDED_BY(WinnerM);
  std::atomic<size_t> BestUnit{SIZE_MAX};

  /// The next top-level work unit (an index into OpOrder) to explore.
  std::atomic<size_t> NextUnit{0};

  void buildOps();

  /// The token every shard polls: external cancellation, a sibling's
  /// success, or a global abort.
  StopToken stopToken() const {
    return anyToken(anyToken(Opts.Stop, Found.token()), Halt.token());
  }

  void recordWinner(size_t Unit, const std::vector<unsigned> &Seq) {
    {
      MutexLock Lock(WinnerM);
      if (!HaveWinner || (Deterministic && Unit < WinnerUnit)) {
        HaveWinner = true;
        WinnerUnit = Unit;
        WinnerSeq = Seq;
        // relaxed: an advisory bound shards use to abandon outranked
        // units early; the authoritative winner lives under WinnerM.
        BestUnit.store(Unit, std::memory_order_relaxed);
      }
    }
    if (!Deterministic)
      Found.requestStop();
  }

  /// The winner slot under WinnerM, copied out in one critical section —
  /// the runSearch tail uses this instead of reading HaveWinner /
  /// WinnerSeq bare (safe only by the crew round's happens-before, which
  /// the static analysis rightly refuses to assume).
  bool winnerSnapshot(std::vector<unsigned> &SeqOut) {
    MutexLock Lock(WinnerM);
    if (!HaveWinner)
      return false;
    SeqOut = WinnerSeq;
    return true;
  }
};

void SearchContext::buildOps() {
  // The pool references the caller's tables, which outlive the search.
  auto P = std::make_shared<TablePool>(Topo, Classes);
  InitialTables.resize(Topo.numSwitches());
  for (SwitchId Sw = 0; Sw != Topo.numSwitches(); ++Sw)
    InitialTables[Sw] = P->internRef(Sw, Initial.table(Sw));
  auto AddOp = [&](SwitchId Sw, int ClassIdx, TableHandle FinalT) {
    SwitchOps[Sw].push_back(static_cast<unsigned>(Ops.size()));
    Ops.push_back(MicroOp{Sw, ClassIdx, FinalT,
                          static_cast<unsigned>(SwitchOps[Sw].size() - 1)});
  };

  SwitchOps.assign(Topo.numSwitches(), {});
  for (SwitchId Sw : diffSwitches(Initial, Final)) {
    TableHandle FinalT = P->internRef(Sw, Final.table(Sw));
    if (!Opts.RuleGranularity) {
      AddOp(Sw, -1, FinalT);
      continue;
    }
    // Rule granularity: one op per traffic class whose slice changes.
    // Rules outside every class (none in the generated workloads) fall
    // back to a whole-switch op so the final table is always reached.
    bool Residue = false;
    for (const Rule &R : Initial.table(Sw).rules()) {
      bool InSomeClass = false;
      for (const TrafficClass &C : Classes)
        InSomeClass |= R.Pat.matchesHeader(C.Hdr);
      Residue |= !InSomeClass;
    }
    for (const Rule &R : Final.table(Sw).rules()) {
      bool InSomeClass = false;
      for (const TrafficClass &C : Classes)
        InSomeClass |= R.Pat.matchesHeader(C.Hdr);
      Residue |= !InSomeClass;
    }
    if (Residue) {
      AddOp(Sw, -1, FinalT);
      continue;
    }
    for (unsigned C = 0; C != Classes.size(); ++C) {
      if (classSlice(Initial.table(Sw), Classes[C].Hdr) ==
          classSlice(Final.table(Sw), Classes[C].Hdr))
        continue;
      AddOp(Sw, static_cast<int>(C), nullptr);
    }
  }
  Pool = std::move(P);

  // Candidate order heuristic: try purely-additive ops first (installing
  // rules on switches that carry none for the affected scope) — those are
  // the safe "unreachable switch" updates the paper's §2 discussion
  // performs first. Completeness is unaffected: this only permutes the
  // DFS children (and, sharded, the work-unit order).
  OpOrder.resize(Ops.size());
  for (unsigned I = 0; I != Ops.size(); ++I)
    OpOrder[I] = I;
  auto IsAdditive = [&](unsigned I) {
    const MicroOp &Op = Ops[I];
    if (Op.ClassIdx < 0)
      return Initial.table(Op.Sw).empty();
    return classSlice(Initial.table(Op.Sw),
                      Classes[static_cast<size_t>(Op.ClassIdx)].Hdr)
        .empty();
  };
  std::stable_sort(OpOrder.begin(), OpOrder.end(),
                   [&](unsigned A, unsigned B) {
                     return IsAdditive(A) > IsAdditive(B);
                   });
}

/// One shard of the DFS: a private structure/checker pair walking work
/// units pulled from the shared cursor. With one shard this is exactly
/// the paper's sequential search.
class ShardSearcher {
public:
  ShardSearcher(SearchContext &Ctx, KripkeStructure &K,
                CheckerBackend &Checker, unsigned ShardIndex = 0)
      : Ctx(Ctx), K(K), Checker(Checker), ShardIndex(ShardIndex),
        Stop(Ctx.stopToken()) {
    Applied.resize(Ctx.Ops.size());
    // One frame per possible depth, sized once: tryCandidate holds
    // references into Frames across the recursive dfs() call, so the
    // vector must never reallocate.
    Frames.resize(Ctx.Ops.size() + 1);
    if (Ctx.Deterministic) {
      UnitScope.emplace();
      UnitScope->ET.setStopToken(Stop);
      Scope = &*UnitScope;
    }
  }

  /// Binds the checker to this shard's structure and runs the initial
  /// full check (Fig. 4 line 7); counted like any other query but exempt
  /// from budget charging — setup cost, performed once per shard.
  CheckResult bindInitial() {
    Clock.switchTo(PhaseCheckNs);
    CheckResult R = Checker.bind(K, Ctx.Phi);
    Clock.stop();
    ++Stats.CheckCalls;
    return R;
  }

  /// Pulls top-level units until they run out, the shard aborts, or a
  /// sibling wins; then, if shards steal, turns thief and drains the
  /// deques. Publishes this shard's sequence if it finds one.
  void runUnits() {
    for (;;) {
      if (AbortFlag)
        return; // Cause already recorded where the flag was set.
      // relaxed: advisory early-out; the authoritative claim is the
      // fetch_add below, and a stale read only costs one loop turn.
      if (Ctx.NextUnit.load(std::memory_order_relaxed) >=
          Ctx.OpOrder.size())
        break;  // Every unit claimed: nothing left here but stealing —
                // a stop observed now must not taint the verdict;
                // whether the search is exhaustive is decided by the
                // shards that own the claimed work.
      if (Stop.stopRequested()) {
        // A stop seen here leaves work units unexplored, so its cause
        // must be recorded: without a flag the verdict block would
        // mistake this cancellation for exhaustion and report a false
        // Impossible proof. noteStop() classifies — a sibling's Found
        // is not an abort at all.
        noteStop();
        return;
      }
      // relaxed: the counter is the sole synchronization object here —
      // unit payloads are immutable after buildOps().
      size_t Unit = Ctx.NextUnit.fetch_add(1, std::memory_order_relaxed);
      if (Unit >= Ctx.OpOrder.size())
        break; // Genuine exhaustion: every unit claimed.
      // relaxed: advisory outranking bound (see recordWinner).
      if (Unit > Ctx.BestUnit.load(std::memory_order_relaxed))
        return; // A lower unit already won; everything from here on is
                // outranked (units are pulled in increasing order).
      if (Stealing)
        Ctx.ActiveWorkers.fetch_add(1, std::memory_order_acq_rel);
      beginUnit(Unit);
      bool Won;
      {
        obs::TraceSpan Span("synth.unit");
        Won = tryCandidate(Ctx.OpOrder[Unit]);
      }
      Clock.stop(); // Inter-unit work (binds, waits) is not a phase.
      finishUnit();
      if (Stealing)
        Ctx.ActiveWorkers.fetch_sub(1, std::memory_order_acq_rel);
      if (Won) {
        Ctx.recordWinner(Unit, AppliedSeq);
        return; // Keep the final structure; no rollback.
      }
    }
    if (Stealing)
      stealLoop();
  }

  SynthStats Stats;

  /// Folds the phase accumulators into Stats. Called exactly once, by
  /// whoever consumes Stats after the shard retired (the shard thread
  /// itself, or runSearch's Finish for the primary).
  void finalizeStats() {
    Stats.CheckSeconds += PhaseCheckNs / 1e9;
    Stats.MutateSeconds += PhaseMutateNs / 1e9;
    Stats.PruneSeconds += PhasePruneNs / 1e9;
    Stats.SatSeconds += PhaseSatNs / 1e9;
    PhaseCheckNs = PhaseMutateNs = PhasePruneNs = PhaseSatNs = 0;
  }

private:
  /// Resets the unit-scoped state before exploring unit \p Unit. In
  /// budget mode that is the whole point: a fresh unit scope and a fresh
  /// quota account make the unit's outcome a pure function of
  /// (instance, quota).
  void beginUnit(size_t Unit) {
    CurrentUnit = Unit;
    UnitStop = false;
    UnitTruncated = false;
    if (!UnitScope)
      return;
    Account = Ctx.Ledger.openAccount(Unit);
    Checker.setBudget(&Account);
    UnitScope->reset(Ctx.Ops.size(), 1);
    FailuresSinceEtCheck = 0;
  }

  /// Folds the finished (or abandoned) unit's accounting into the shard
  /// stats and the shared abort-cause flags.
  void finishUnit() {
    if (!UnitScope)
      return;
    Stats.BudgetSpent += Account.spent();
    Stats.SatClauses += UnitScope->ET.numClauses();
    if (UnitTruncated)
      // relaxed: a tally read only after every shard finished.
      Ctx.ExhaustedUnits.fetch_add(1, std::memory_order_relaxed);
    // Unit-local entries are still instance facts; hand them to the
    // shared W, the run's cross-job export, instead of dropping them
    // with the unit. (Budget mode never *imports*, but what a budgeted
    // probe learned is gold for the unbudgeted runs that follow it.)
    if (Ctx.ExportLearning)
      for (std::pair<Bitset, Bitset> &E : UnitScope->Wrong.snapshot())
        Ctx.Shared.Wrong.add(std::move(E.first), std::move(E.second));
    Checker.setBudget(nullptr);
  }

  /// The recursive part of Fig. 4: try every remaining candidate from
  /// the current configuration. When shards steal, shallow candidates
  /// may be published for an idle sibling instead of descended into —
  /// the claim protocol arbitrates duplication either way, so the
  /// subtree is explored exactly once no matter who reaches it.
  bool dfs() {
    if (Applied.count() == Ctx.Ops.size())
      return true;
    for (unsigned I : Ctx.OpOrder) {
      if (Applied.test(I))
        continue;
      // relaxed: advisory idle hint; a stale zero just skips one offer.
      if (Stealing && AppliedSeq.size() <= MaxOfferDepth &&
          Ctx.IdleShards.load(std::memory_order_relaxed) > 0 &&
          offerSteal(I))
        continue; // Someone else explores this edge; see stealLoop.
      if (tryCandidate(I))
        return true;
      if (AbortFlag || UnitStop)
        return false;
    }
    return false;
  }

  /// The body of one DFS edge: prune, claim, apply op \p I, recheck,
  /// recurse, roll back. Returns true iff a full correct sequence was
  /// completed below this edge. All scratch state lives in the depth's
  /// DfsFrame, so the steady-state edge allocates nothing.
  bool tryCandidate(unsigned I) {
    Clock.switchTo(PhasePruneNs); // Free if prune is already open.
    DfsFrame &F = Frames[AppliedSeq.size()];
    Bitset &Next = F.Next;
    Next = Applied;
    Next.set(I);
    // W and the seeds are probed before the claim: a match proves the
    // recheck would fail, so a refuted configuration never enters V —
    // under sharding, most of a deep proof's reaches stay out of the
    // claim table. Imported (cross-job) refutations go first: each seeded
    // prune skips a check an earlier digest-identical run already paid
    // for. Losing the claim is the visited prune, and winning it commits
    // this shard to exploring the configuration.
    if (!Ctx.SeedWrong.empty() && Ctx.SeedWrong.matches(Next)) {
      ++Stats.SeededPrunes;
      return false;
    }
    if (Ctx.Opts.CexPruning && Scope->Wrong.matches(Next)) {
      ++Stats.CexPrunes;
      return false;
    }
    if (!Scope->claim(Next, ShardIndex)) {
      ++Stats.VisitedPrunes;
      return false;
    }
    // A stop observed after the claim leaves the configuration
    // claimed-but-unexplored, which is fine: noteStop records the abort
    // cause, so the verdict block never mistakes this truncated run for
    // an exhaustive proof.
    if (Stop.stopRequested()) {
      noteStop();
      return false;
    }
    // The last two checks bite only under a budget: elsewhere the
    // account is unlimited, and a recorded winner also fires Found, which
    // ends the search anyway.
    // relaxed: advisory outranking bound (see recordWinner).
    if (Ctx.BestUnit.load(std::memory_order_relaxed) < CurrentUnit) {
      // Outranked mid-unit by a lower winner; every unit this shard
      // could still pull is outranked too, so end the shard. No cause
      // flag: a recorded winner makes this a Success, not an abort.
      AbortFlag = true;
      return false;
    }
    if (!Account.canSpend()) {
      // Quota dry mid-subtree: abandon this unit (recorded as truncation
      // by finishUnit) but keep pulling later units, which own their
      // quotas and may still conclude deterministically.
      UnitTruncated = true;
      UnitStop = true;
      return false;
    }

    Clock.switchTo(PhaseMutateNs);
    K.applyHandle(opTarget(I), F.Undo);
    Clock.switchTo(PhaseCheckNs);

    UpdateInfo Info;
    Info.Sw = F.Undo.New->sw();
    Info.OldTable = &F.Undo.Old->table();
    Info.NewTable = &F.Undo.New->table();
    Info.ChangedStates = &F.Undo.Changed;

    // The checker charges the unit account here (mc/CheckerBackend.h).
    CheckResult Res = Checker.recheckAfterUpdate(Info);
    ++Stats.CheckCalls;

    bool Success = false;
    if (Res.Holds) {
      Applied.set(I);
      AppliedSeq.push_back(I);
      // The recursion continues this timeline: the child's first
      // switchTo closes the check slice, no boundary read needed.
      Success = dfs();
      if (!Success) {
        Applied.reset(I);
        AppliedSeq.pop_back();
      }
    } else if (Ctx.Opts.CexPruning && !Res.Cex.empty() &&
               Checker.providesCounterexamples()) {
      // Deriving the constraint and the W append are pruning work; only
      // the clause push inside is SAT.
      Clock.switchTo(PhasePruneNs);
      learnCex(Res.Cex, Next);
    }

    if (Success)
      return true; // Keep the structure mutated; the caller replays.

    Clock.switchTo(PhaseMutateNs);
    Checker.notifyRollback();
    K.undo(F.Undo);
    Clock.switchTo(PhasePruneNs);

    if (Ctx.Opts.EarlyTermination && !Res.Holds &&
        ++FailuresSinceEtCheck >= EtCheckInterval) {
      FailuresSinceEtCheck = 0;
      // An UNSAT answer is an instance-level proof whichever scope's
      // clauses produced it.
      Clock.switchTo(PhaseSatNs);
      bool Impossible = Scope->ET.impossible();
      Clock.switchTo(PhasePruneNs);
      if (Impossible) {
        Stats.EarlyTerminated = true;
        // relaxed: a cause flag read only after every shard finished.
        Ctx.EtImpossible.store(true, std::memory_order_relaxed);
        Ctx.Halt.requestStop();
        AbortFlag = true;
      }
    }
    return false;
  }

  /// The table op \p I installs from the current configuration. A
  /// switch-granularity op installs its final table whatever the switch
  /// holds; a rule-granularity op's result depends on the switch's
  /// current table, so it is composed, interned and memoized on the
  /// first (table, op) transition this shard takes, and looked up after.
  TableHandle opTarget(unsigned I) {
    const MicroOp &Op = Ctx.Ops[I];
    if (Op.ClassIdx < 0)
      return Op.Final;
    TableHandle Cur = K.handle(Op.Sw);
    if (Cur->id() >= Transitions.size())
      Transitions.resize(Cur->id() + 1);
    std::vector<TableHandle> &Row = Transitions[Cur->id()];
    if (Row.empty())
      Row.assign(Ctx.SwitchOps[Op.Sw].size(), nullptr);
    TableHandle &Next = Row[Op.Slot];
    if (!Next)
      Next = K.intern(
          Op.Sw,
          opResultTable(Cur->table(), Ctx.Final.table(Op.Sw),
                        &Ctx.Classes[static_cast<size_t>(Op.ClassIdx)].Hdr));
    return Next;
  }

  /// Publishes candidate \p I (explored from the current applied
  /// prefix) on this shard's own deque instead of descending into it.
  /// False when the deque is full — the caller descends itself.
  bool offerSteal(unsigned I) {
    StealTask T;
    T.Path = AppliedSeq;
    T.Cand = I;
    T.Unit = CurrentUnit;
    return Ctx.Deques[ShardIndex]->tryPush(std::move(T));
  }

  /// Claims a task: own deque first (newest offer — the hot rollback
  /// path), then the siblings' fronts (their oldest, shallowest
  /// offers). Registers this shard as active *before* scanning and
  /// stays registered on success; only a failed full scan deregisters.
  /// Scanning the own deque first is what makes the exit protocol
  /// sound: only this shard pushes to its deque, so it cannot exit —
  /// which requires a failed scan — while its own offers are
  /// undrained, and therefore no published subtree is ever stranded.
  bool takeTask(StealTask &T) {
    Ctx.ActiveWorkers.fetch_add(1, std::memory_order_acq_rel);
    if (Ctx.Deques[ShardIndex]->tryPopBack(T))
      return true;
    for (size_t D = 0; D != Ctx.Deques.size(); ++D) {
      if (D == ShardIndex)
        continue;
      if (Ctx.Deques[D]->tryPopFront(T))
        return true;
    }
    Ctx.ActiveWorkers.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }

  /// Executes one stolen subtree: replay the path with raw structure
  /// updates (per-step rechecks would be wasted — the owner already
  /// verified every prefix), re-bind the checker once at the replayed
  /// configuration, then run the normal claimed exploration of the
  /// candidate. Returns true iff this completed a winning sequence
  /// (already recorded); otherwise the shard is back at the initial
  /// configuration when this returns.
  bool runStolen(const StealTask &T) {
    assert(AppliedSeq.empty() && "stolen task on a dirty shard");
    CurrentUnit = T.Unit; // Nested offers charge the right unit.
    // Each replayed op records into its depth's frame, the one the DFS
    // would have used there; the candidate's own edge uses the next.
    for (unsigned OpIdx : T.Path) {
      K.applyHandle(opTarget(OpIdx), Frames[AppliedSeq.size()].Undo);
      Applied.set(OpIdx);
      AppliedSeq.push_back(OpIdx);
    }
    // tryCandidate's first phase switch closes the bind's check slice.
    Clock.switchTo(PhaseCheckNs);
    CheckResult BindRes = Checker.bind(K, Ctx.Phi);
    ++Stats.CheckCalls; // The price of a steal: one extra bind query.
    ++Stats.StolenTasks;
    // The owner reached this prefix through successful rechecks, so the
    // bind can only fail if the backend is nondeterministic — in which
    // case exploring would be unsound; skip the task. (Its subtree was
    // claimed by nobody: any shard reaching it normally still can.)
    bool Won = BindRes.Holds && tryCandidate(T.Cand);
    Clock.stop(); // Steal-queue scanning between tasks is not a phase.
    if (Won) {
      Ctx.recordWinner(T.Unit, AppliedSeq);
      return true; // Keep the final structure; no rollback.
    }
    // Unwind the replay (tryCandidate already restored the replayed
    // configuration). The checker is stale after these raw undos, but
    // the next consumer — another runStolen — re-binds regardless.
    for (size_t S = T.Path.size(); S-- > 0;) {
      K.undo(Frames[S].Undo);
      Applied.reset(T.Path[S]);
    }
    AppliedSeq.clear();
    return false;
  }

  /// The thief phase, entered once every top-level unit is claimed:
  /// drain the deques until no task is found while no worker is active
  /// (then nothing can be published anymore), a winner appears, or the
  /// shard aborts.
  void stealLoop() {
    // relaxed: advisory idle count consumed by the offerSteal hint.
    Ctx.IdleShards.fetch_add(1, std::memory_order_relaxed);
    StealTask T;
    for (;;) {
      if (AbortFlag)
        break;
      if (Stop.stopRequested()) {
        noteStop();
        break;
      }
      if (takeTask(T)) {
        bool Won = runStolen(T);
        Ctx.ActiveWorkers.fetch_sub(1, std::memory_order_acq_rel);
        if (Won || AbortFlag)
          break;
        continue;
      }
      // Failed scan (takeTask dropped the active mark): exit only once
      // nobody holds work — an active worker may still publish.
      if (Ctx.ActiveWorkers.load(std::memory_order_acquire) == 0)
        break;
      std::this_thread::yield();
    }
    // relaxed: advisory idle count (see fetch_add above).
    Ctx.IdleShards.fetch_sub(1, std::memory_order_relaxed);
  }

  void learnCex(const std::vector<StateId> &CexStates, const Bitset &Bits) {
    // The counterexample trace depends only on how the switches it
    // crosses route its own traffic class, so any configuration agreeing
    // with the current one on those operations reproduces the violation
    // (§4.2 A). Although the trace was found on this shard's structure,
    // digest-equal structures number states identically, so the derived
    // (mask, value) constraint is an instance fact every shard may prune
    // on.
    std::vector<uint8_t> SwInCex(Ctx.Topo.numSwitches(), 0);
    std::vector<uint8_t> ClassInCex(Ctx.Classes.size(), 0);
    for (StateId S : CexStates) {
      SwInCex[K.stateSwitch(S)] = 1;
      ClassInCex[K.stateClass(S)] = 1;
    }

    Bitset Mask(Ctx.Ops.size());
    for (SwitchId Sw = 0; Sw != Ctx.Topo.numSwitches(); ++Sw) {
      if (!SwInCex[Sw])
        continue;
      for (unsigned OpIdx : Ctx.SwitchOps[Sw]) {
        const MicroOp &Op = Ctx.Ops[OpIdx];
        // Rule-granularity ops for unrelated classes do not influence
        // the trace; leaving them out strengthens the pruning.
        if (Op.ClassIdx >= 0 &&
            !ClassInCex[static_cast<size_t>(Op.ClassIdx)])
          continue;
        Mask.set(OpIdx);
      }
    }
    if (Mask.none())
      return; // Defensive: a cex with no in-diff switch teaches nothing.
    Bitset Value = Bits & Mask;
    // Guard before ANY mutation: a counterexample independent of every
    // applied update (Value empty) describes a violation the verified
    // initial configuration would exhibit too, so the entry it would
    // plant — (Mask, all-zeros), matching every configuration that has
    // not yet touched those switches — is unsound and must never reach
    // the wrong-set or the SAT layer. A counterexample-producing backend
    // cannot generate one (see EarlyTermination.h), but a buggy or
    // approximating backend must degrade to "learn nothing", not to an
    // incorrect Impossible.
    if (Value.none())
      return;

    if (Ctx.Opts.EarlyTermination) {
      Clock.switchTo(PhaseSatNs);
      Scope->ET.addMaskValueConstraint(Mask, Value);
      Clock.switchTo(PhasePruneNs);
    }
    Scope->Wrong.add(std::move(Mask), std::move(Value));
  }

  /// A stop observed at a checkpoint ends this shard; classify why. A
  /// sibling's Found token is no abort at all — the recorded winner
  /// outranks everything, and flagging it would leak a phantom budget
  /// abort into stats and verdict classification. A Halt means the
  /// shard that fired it already recorded the cause. Anything left is
  /// the caller's external token.
  void noteStop() {
    AbortFlag = true;
    if (Ctx.Found.token().stopRequested())
      return;
    if (Ctx.Halt.token().stopRequested())
      return;
    // relaxed: a cause flag read only after every shard finished.
    Ctx.ExternalAbort.store(true, std::memory_order_relaxed);
    Ctx.Halt.requestStop();
  }

  SearchContext &Ctx;
  KripkeStructure &K;       // Shard-private; mutate/rollback stays here.
  CheckerBackend &Checker;  // Shard-private, follows K.
  /// This shard's slot in Ctx.Deques and claimant index in the shared
  /// scope (primary 0, thread T -> T+1).
  unsigned ShardIndex;
  StopToken Stop;
  /// Shards steal exactly when several claim in the shared scope.
  const bool Stealing = Ctx.Shared.concurrent();

  Bitset Applied;
  std::vector<unsigned> AppliedSeq;
  bool AbortFlag = false;

  /// Per-depth scratch for one DFS edge, reused across every candidate
  /// tried at that depth: once its buffers have grown, the steady-state
  /// edge allocates nothing. The undo record also carries the changed
  /// states the recheck reads.
  struct DfsFrame {
    KripkeStructure::UndoRecord Undo;
    Bitset Next;
  };
  /// Indexed by depth (AppliedSeq.size()); sized in the constructor and
  /// never resized — tryCandidate holds references into it across
  /// recursion.
  std::vector<DfsFrame> Frames;
  /// Memoized rule-granularity transitions, by the switch's current
  /// table: Transitions[id][slot] is the table op SwitchOps[sw][slot]
  /// installs from the table with that id (null until first taken).
  std::vector<std::vector<TableHandle>> Transitions;
  /// Phase-breakdown accumulators (ns); zero unless the obs detail tier
  /// was on. finalizeStats() converts them into the SynthStats seconds.
  uint64_t PhaseCheckNs = 0;
  uint64_t PhaseMutateNs = 0;
  uint64_t PhasePruneNs = 0;
  uint64_t PhaseSatNs = 0;
  /// The shard's phase timeline, spanning units and the DFS recursion;
  /// stopped at unit/steal boundaries so only search work is attributed.
  /// Armed by the obs detail tier as it stood when this shard started;
  /// the searcher lives inside one run, so the flag cannot change under it.
  PhaseClock Clock{obs::detailEnabled()};
  /// The SAT check batches failures: solving after every learned clause
  /// is wasted work when the constraints are still easily satisfiable.
  unsigned FailuresSinceEtCheck = 0;
  static constexpr unsigned EtCheckInterval = 8;

  // Unit-scoped state (deterministic budget mode); reset by beginUnit.
  size_t CurrentUnit = 0;
  BudgetAccount Account;
  /// Abandon the current unit (quota dry) but keep the shard alive.
  bool UnitStop = false;
  /// The quota ran dry mid-subtree — distinct from finishing a unit
  /// with the quota exactly spent, which is a complete exploration.
  bool UnitTruncated = false;
  /// Budget mode's unit scope, reset by beginUnit; empty otherwise.
  std::optional<PruneScope> UnitScope;
  /// The scope every probe, claim and learned entry of this shard uses:
  /// the unit scope when engaged, else the shared one. Set once, in the
  /// constructor.
  PruneScope *Scope = &Ctx.Shared;

  /// Maximum depth (in applied ops) at which a shard offers subtrees to
  /// thieves. Shallow offers hand over big subtrees; deep offers churn
  /// the deques for slivers of work.
  static constexpr unsigned MaxOfferDepth = 3;
};

/// Replays \p Seq from the initial configuration, snapshotting the table
/// each op installs; a wait separates every two updates (careful
/// sequence, Def. 5).
CommandSeq buildCommands(const SearchContext &Ctx,
                         const std::vector<unsigned> &Seq) {
  CommandSeq Out;
  if (Seq.empty())
    return Out;
  // Each switch's current table: the initial one, or the last table
  // installed in Out, which is reserved to size and never reallocates.
  Out.reserve(2 * Seq.size() - 1);
  std::vector<const Table *> Cur(Ctx.Initial.numSwitches());
  for (SwitchId S = 0; S != Cur.size(); ++S)
    Cur[S] = &Ctx.Initial.table(S);
  for (size_t Step = 0; Step != Seq.size(); ++Step) {
    const MicroOp &Op = Ctx.Ops[Seq[Step]];
    const Header *ClassHdr =
        Op.ClassIdx < 0
            ? nullptr
            : &Ctx.Classes[static_cast<size_t>(Op.ClassIdx)].Hdr;
    if (Step != 0)
      Out.push_back(Command::wait());
    Out.push_back(Command::update(
        Op.Sw, opResultTable(*Cur[Op.Sw], Ctx.Final.table(Op.Sw), ClassHdr)));
    Cur[Op.Sw] = &Out.back().NewTable;
  }
  return Out;
}

SynthResult runSearch(const Topology &Topo, const Config &Initial,
                      const Config &Final,
                      const std::vector<TrafficClass> &Classes, Formula Phi,
                      CheckerBackend &Checker, const SynthOptions &Opts) {
  SynthResult Result;
  obs::TraceSpan SearchSpan("synth.search");
  SearchContext Ctx(Topo, Initial, Final, Classes, Phi, Opts);
  Ctx.buildOps();
  Ctx.SeedWrong.reset(Ctx.Ops.size());

  // A finite check budget engages deterministic mode: carve it into
  // per-unit quotas once, from (budget, #units) alone. UnitCheckCalls
  // bounds each unit directly and wins over the carved total.
  if (Opts.UnitCheckCalls > 0)
    Ctx.Ledger = BudgetLedger::perUnit(Opts.UnitCheckCalls);
  else if (Opts.MaxCheckCalls > 0)
    Ctx.Ledger =
        BudgetLedger::carveTotal(Opts.MaxCheckCalls, Ctx.OpOrder.size());
  Ctx.Deterministic = Ctx.Ledger.limited();

  // Shape the shared scope before anything searches or is imported. It
  // is claimed concurrently when several shards prune against it, which
  // budget mode's shards never do (each has its unit scope); that is
  // also exactly when shards steal.
  unsigned Shards = Opts.Shards == 0 ? 1 : Opts.Shards;
  Shards =
      static_cast<unsigned>(std::min<size_t>(Shards, Ctx.OpOrder.size()));
  if (!Opts.ShardCheckerFactory)
    Shards = 1; // No way to build sibling checkers; degrade gracefully.
  Ctx.Shared.reset(Ctx.Ops.size(), Ctx.Deterministic ? 1 : Shards);
  Ctx.Shared.ET.setStopToken(Ctx.stopToken());
  if (Ctx.Shared.concurrent()) {
    Ctx.Deques.reserve(Shards);
    for (unsigned S = 0; S != Shards; ++S)
      Ctx.Deques.push_back(std::make_unique<StealDeque>());
  }

  // Cross-job learning (support/ConstraintStore.h): import the wrong-set
  // entries earlier runs of this (scenario, granularity) published and
  // seed the pruning state before anything searches. Requires CexPruning
  // — the machinery that produces and consumes the entries. Gated off in
  // deterministic budget mode, whose outcome must stay a pure function
  // of (job, budget): an import would let process history decide which
  // checks a quota affords. Sound everywhere it engages: every entry
  // records a genuine counterexample, so a seeded prune skips a check
  // that could only have failed, and a seeded SAT constraint is
  // satisfied by every genuinely correct order.
  const bool LearnOn = Opts.Learning != nullptr &&
                       Opts.LearningScenario != Digest{} &&
                       Opts.CexPruning && !Ctx.Ops.empty();
  Digest LearnKey;
  if (LearnOn) {
    LearnKey = ConstraintStore::keyFor(Opts.LearningScenario,
                                       Opts.RuleGranularity);
    Ctx.ExportLearning = true;
    if (!Ctx.Deterministic) {
      for (std::pair<Bitset, Bitset> &E :
           Opts.Learning->fetch(LearnKey, Ctx.Ops.size())) {
        if (Opts.EarlyTermination)
          Ctx.Shared.ET.addMaskValueConstraint(E.first, E.second);
        Ctx.SeedWrong.add(std::move(E.first), std::move(E.second));
      }
    }
  }

  KripkeStructure K(Ctx.Pool, Ctx.InitialTables);
  ShardSearcher Primary(Ctx, K, Checker);
  CheckResult InitRes = Primary.bindInitial();

  SynthStats Total;
  // Captured when the search (not the whole run) concludes, so
  // SynthSeconds never includes command building or wait removal —
  // WaitRemovalSeconds measures the latter separately.
  double SearchSeconds = 0.0;
  auto Finish = [&](SynthStatus Status) {
    Primary.finalizeStats();
    Total.mergeFrom(Primary.Stats);
    // Unit scopes folded their clause counts into shard stats already;
    // the shared scope adds the rest.
    Total.SatClauses += Ctx.Shared.ET.numClauses();
    if (LearnOn) {
      // Publish what this run learned — every entry passed the learn-
      // time guard, and entries from interrupted or aborted runs are
      // just as sound (each stands on its own counterexample). Retired
      // units copied theirs into the shared W.
      Total.ImportedConstraints = Ctx.SeedWrong.size();
      size_t StoreDropped = 0;
      Total.ExportedConstraints =
          Opts.Learning->publish(LearnKey, Ctx.Ops.size(),
                                 Ctx.Shared.Wrong.snapshot(), &StoreDropped);
      Total.SubsumedDropped += StoreDropped;
      // An Impossible verdict is a ground instance fact — a SAT proof
      // or an exhaustive exploration, never a truncation (which reports
      // Aborted): record it so the engine can shed portfolio members
      // whose standalone run could only rediscover it.
      if (Status == SynthStatus::Impossible)
        Opts.Learning->markImpossible(LearnKey, Ctx.Ops.size());
    }
    Total.EarlyTerminated |= Ctx.EtImpossible.load();
    Total.ExhaustedUnits = Ctx.ExhaustedUnits.load();
    Total.Interrupted = Ctx.ExternalAbort.load();
    Total.SynthSeconds = SearchSeconds;
    Result.Status = Status;
    Result.Stats = Total;
  };

  if (Opts.Stop.stopRequested()) {
    SearchSeconds = Ctx.Clock.seconds();
    Finish(SynthStatus::Aborted);
    return Result;
  }
  if (!InitRes.Holds) {
    SearchSeconds = Ctx.Clock.seconds();
    Finish(SynthStatus::InitialViolation);
    return Result;
  }
  if (Ctx.Ops.empty()) {
    // Initial == Final (no diff): the empty sequence is correct.
    SearchSeconds = Ctx.Clock.seconds();
    Finish(SynthStatus::Success);
    return Result;
  }
  if (!Ctx.SeedWrong.empty() && Opts.EarlyTermination &&
      Ctx.Shared.ET.impossible()) {
    // The imported constraints alone are contradictory: no simple order
    // exists, proven before a single work unit ran. A reuse-off search
    // reaches the same verdict (by its own SAT proof or by exhaustion)
    // — the store only made it instant.
    // relaxed: single-threaded here (before the shards start).
    Ctx.EtImpossible.store(true, std::memory_order_relaxed);
    SearchSeconds = Ctx.Clock.seconds();
    Finish(SynthStatus::Impossible);
    return Result;
  }

  if (Shards <= 1) {
    Primary.runUnits();
  } else {
    // Extra shards run on this thread's crew (support/Crew.h) —
    // deliberately not on the engine's job pool, whose workers may all
    // be blocked inside jobs waiting for exactly these shards (see
    // engine/Engine.h).
    std::vector<SynthStats> ShardStats(Shards - 1);
    std::function<void(unsigned)> Body = [&](unsigned T) {
      obs::TraceSpan ShardSpan("synth.shard");
      std::unique_ptr<CheckerBackend> ShardChecker =
          Opts.ShardCheckerFactory();
      if (!ShardChecker)
        return; // Fewer shards; the rest still cover every unit.
      KripkeStructure ShardK(Ctx.Pool, Ctx.InitialTables);
      ShardSearcher Shard(Ctx, ShardK, *ShardChecker, T + 1);
      CheckResult BindRes = Shard.bindInitial();
      // The primary bind verified the initial configuration; a shard
      // bind can only disagree if the backend is nondeterministic, in
      // which case exploring would be unsound — sit this run out.
      if (BindRes.Holds)
        Shard.runUnits();
      // Fold this checker's real work into the shard's stats before the
      // checker dies with this body.
      Shard.Stats.BackendQueries += ShardChecker->numQueries();
      Shard.Stats.CacheHits += ShardChecker->cacheHits();
      Shard.Stats.CacheMisses += ShardChecker->cacheMisses();
      Shard.finalizeStats();
      ShardStats[T] = std::move(Shard.Stats);
    };
    Crew::local().run(Shards - 1, Body, [&] { Primary.runUnits(); });
    for (const SynthStats &S : ShardStats)
      Total.mergeFrom(S);
  }

  // All shards finished: the winner slot and flags are stable now.
  SearchSeconds = Ctx.Clock.seconds();
  std::vector<unsigned> WinnerSeq;
  if (!Ctx.winnerSnapshot(WinnerSeq)) {
    if (Ctx.EtImpossible.load())
      Finish(SynthStatus::Impossible); // SAT proof; outranks an abort.
    else if (Ctx.ExternalAbort.load() || Ctx.ExhaustedUnits.load() > 0)
      Finish(SynthStatus::Aborted); // Truncated somewhere: exhaustion
                                    // cannot be claimed.
    else
      Finish(SynthStatus::Impossible); // Exhaustive: every unit explored.
    return Result;
  }

  Result.Commands = buildCommands(Ctx, WinnerSeq);
  Total.WaitsBeforeRemoval = countWaits(Result.Commands);
  Total.WaitsAfterRemoval = Total.WaitsBeforeRemoval;
  if (Opts.WaitRemoval) {
    obs::TraceSpan Span("synth.wait_removal");
    Timer WaitClock;
    Result.Commands = removeWaits(Topo, Initial, Classes,
                                  std::move(Result.Commands));
    Total.WaitRemovalSeconds = WaitClock.seconds();
    Total.WaitsAfterRemoval = countWaits(Result.Commands);
  }
  Finish(SynthStatus::Success);
  return Result;
}

} // namespace

const char *netupd::statusName(SynthStatus S) {
  switch (S) {
  case SynthStatus::Success:
    return "Success";
  case SynthStatus::Impossible:
    return "Impossible";
  case SynthStatus::InitialViolation:
    return "InitialViolation";
  case SynthStatus::Aborted:
    return "Aborted";
  }
  return "?";
}

SynthResult netupd::synthesizeUpdate(const Topology &Topo,
                                     const Config &Initial,
                                     const Config &Final,
                                     const std::vector<TrafficClass> &Classes,
                                     Formula Phi, CheckerBackend &Checker,
                                     const SynthOptions &Opts) {
  SynthResult Result =
      runSearch(Topo, Initial, Final, Classes, Phi, Checker, Opts);
  // The caller's checker outlives the run; shard checkers folded their
  // share in before dying (see runSearch), so += completes the totals.
  Result.Stats.BackendQueries += Checker.numQueries();
  Result.Stats.CacheHits += Checker.cacheHits();
  Result.Stats.CacheMisses += Checker.cacheMisses();
  return Result;
}

SynthResult netupd::synthesizeUpdate(const Scenario &S, FormulaFactory &FF,
                                     CheckerBackend &Checker,
                                     const SynthOptions &Opts) {
  if (Opts.Learning && Opts.LearningScenario == Digest{}) {
    // Cross-job learning keys on the scenario's content digest; compute
    // it here so engine members and direct callers need only hand over
    // the store.
    SynthOptions Keyed = Opts;
    Keyed.LearningScenario = digestOf(S);
    return synthesizeUpdate(S.Topo, S.Initial, S.Final, S.classes(),
                            S.buildProperty(FF), Checker, Keyed);
  }
  return synthesizeUpdate(S.Topo, S.Initial, S.Final, S.classes(),
                          S.buildProperty(FF), Checker, Opts);
}
