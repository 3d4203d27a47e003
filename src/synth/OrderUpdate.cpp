//===- synth/OrderUpdate.cpp - The ORDERUPDATE algorithm -------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The search is factored into two layers so one code path serves both the
// sequential and the sharded mode:
//
//  - SearchContext: everything shared across shards — the op table, the
//    concurrent V/W pruning state, the SAT layer, global budgets, the
//    top-level work-unit counter, and the winner slot. All of it is
//    either immutable after setup or monotone (V claims, W entries, SAT
//    clauses, stop flags only ever accumulate), which is why sharing is
//    sound: a prune learned anywhere holds everywhere.
//
//  - ShardSearcher: everything one shard owns — a private KripkeStructure
//    it mutates and rolls back, a private CheckerBackend following that
//    structure, the Applied bitset/sequence, and local statistics. The
//    LIFO mutate/recheck/rollback discipline the backends (and the
//    MemoizingChecker sync-depth machine) assume is therefore preserved
//    per shard by construction.
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
// Work-stealing (sharded non-budget mode): a depth-one split load-
// balances badly when one unit dwarfs the rest, so shards that run out
// of units steal below depth one. A shard exploring a shallow DFS node
// may, instead of descending into a candidate child itself, publish a
// descriptor (path from the root, candidate op, owning unit) on its
// bounded deque; idle shards pop descriptors, replay the path on their
// private structure (raw mutations, then one checker bind), and explore
// the subtree with the normal claim/prune protocol. Soundness needs no
// new machinery: a descriptor is published *instead of* the owner's
// descent, and the exit protocol (a shard leaves only when every deque
// is empty and no worker is active — and every pusher drains its own
// deque before leaving) guarantees each published subtree is eventually
// explored by exactly whoever reaches it, with the V claims arbitrating
// duplication exactly as for units. Verdicts stay scheduling-
// independent for the same reason sharding's are; deterministic budget
// mode never steals (unit-local state cannot be handed across shards).
//
// Deterministic budget mode (a finite MaxCheckCalls/UnitCheckCalls)
// trades the shared pruning state for reproducibility: cross-shard
// sharing makes *which* prefixes a unit explores depend on sibling
// timing, which is fine when every unit runs to completion (the verdict
// is exhaustion-stable) but fatal when a budget truncates units — the
// same job could then Abort or Succeed depending on shard layout. So
// under a budget each unit explores with unit-local V/W/SAT state and a
// fixed quota drawn from the BudgetLedger (support/Budget.h), making a
// unit's outcome — Success with a specific sequence, exhausted quota, or
// fully-explored failure — a pure function of (instance, quota). The
// winner is the lowest-indexed successful unit, not the first in time,
// so the returned sequence is deterministic too. The wall clock never
// interrupts a unit: TimeoutSeconds is polled only between units
// (everywhere, not just in budget mode — the per-candidate clock read is
// gone). The duplicated cross-unit exploration this costs is the price
// of byte-identical verdicts at any shard and worker count.
//
//===----------------------------------------------------------------------===//

#include "synth/OrderUpdate.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Bitset.h"
#include "support/Budget.h"
#include "support/ConcurrentSet.h"
#include "support/Timer.h"
#include "synth/EarlyTermination.h"
#include "synth/WaitRemoval.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

using namespace netupd;

namespace {

/// Accumulates wall time into a nanosecond phase counter while alive —
/// the unit of the per-shard phase breakdown (SynthStats::CheckSeconds
/// and friends). Inert unless constructed armed, so a detail-off run
/// pays one relaxed load per tryCandidate and no clock reads. An
/// optional histogram additionally receives the per-call duration.
class PhaseScope {
public:
  PhaseScope(bool Armed, uint64_t &AccNs, obs::Histogram *H = nullptr)
      : Acc(Armed ? &AccNs : nullptr), Hist(H) {
    if (Acc)
      T0 = obs::nowNs();
  }
  ~PhaseScope() {
    if (!Acc)
      return;
    uint64_t D = obs::nowNs() - T0;
    *Acc += D;
    if (Hist)
      Hist->record(D);
  }
  PhaseScope(const PhaseScope &) = delete;
  PhaseScope &operator=(const PhaseScope &) = delete;

private:
  uint64_t *Acc;
  obs::Histogram *Hist;
  uint64_t T0 = 0;
};

/// Per-call mutate/rollback latency (applySwitchUpdate and undo both
/// feed it), alive only under the obs detail tier.
obs::Histogram &mutateLatency() {
  static obs::Histogram &H =
      obs::MetricsRegistry::instance().histogram("synth.mutate_ns");
  return H;
}

/// A running phase timeline for one shard: every switchTo(Acc) reads
/// the clock once, attributing the elapsed slice to the *previous*
/// phase, and switching to the phase already open is free. One clock
/// spans the whole unit (the recursion included), so a run of
/// consecutive pruned candidates — the bulk of a deep exhaustive proof —
/// extends one open "prune" slice with zero clock reads; only real
/// phase transitions pay. Against one PhaseScope per phase (two reads
/// each), a full candidate costs ~4 reads and a pruned one none — the
/// reads were the dominant share of the metrics tier's 43% overhead on
/// prune-heavy workloads. Inert when unarmed.
class PhaseClock {
public:
  explicit PhaseClock(bool Armed) : On(Armed) {}
  ~PhaseClock() { stop(); }
  PhaseClock(const PhaseClock &) = delete;
  PhaseClock &operator=(const PhaseClock &) = delete;

  /// Closes the current phase slice into its accumulator and opens a new
  /// one into \p Acc. Returns the closed slice's duration (0 unarmed or
  /// when \p Acc is already the open phase — callers that use the
  /// duration always switch to a *different* phase).
  uint64_t switchTo(uint64_t &Acc) {
    if (!On || Cur == &Acc)
      return 0;
    uint64_t Now = obs::nowNs();
    uint64_t D = Cur ? Now - Last : 0;
    if (Cur)
      *Cur += D;
    Last = Now;
    Cur = &Acc;
    return D;
  }

  /// Closes the current slice without opening a new one (e.g. before
  /// recursing — the child runs its own timeline). Returns its duration.
  uint64_t stop() {
    if (!On || !Cur)
      return 0;
    uint64_t Now = obs::nowNs();
    uint64_t D = Now - Last;
    *Cur += D;
    Last = Now;
    Cur = nullptr;
    return D;
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
};

/// True if \p R can apply to packets of class \p Hdr (every constrained
/// field agrees).
bool ruleBelongsToClass(const Rule &R, const Header &Hdr) {
  for (unsigned I = 0; I != NumFields; ++I) {
    const std::optional<uint32_t> &V = R.Pat.Values[I];
    if (V && *V != Hdr.Values[I])
      return false;
  }
  return true;
}

/// The rules of \p T restricted to class \p Hdr.
std::vector<Rule> classSlice(const Table &T, const Header &Hdr) {
  std::vector<Rule> Out;
  for (const Rule &R : T.rules())
    if (ruleBelongsToClass(R, Hdr))
      Out.push_back(R);
  return Out;
}

/// True if configuration \p Bits agrees with wrong-set entry \p E on
/// every masked operation — the one matching rule behind the W set, the
/// unit-local W set, and the imported seed list.
bool entryMatches(const std::pair<Bitset, Bitset> &E, const Bitset &Bits) {
  return (Bits & E.first) == E.second;
}

bool matchesAny(const std::vector<std::pair<Bitset, Bitset>> &Entries,
                const Bitset &Bits) {
  for (const std::pair<Bitset, Bitset> &E : Entries)
    if (entryMatches(E, Bits))
      return true;
  return false;
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
    if (!ruleBelongsToClass(R, *ClassHdr))
      Rules.push_back(R);
  for (const Rule &R : FinalT.rules())
    if (ruleBelongsToClass(R, *ClassHdr))
      Rules.push_back(R);
  return Table(std::move(Rules));
}

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
  std::vector<MicroOp> Ops;
  std::vector<unsigned> OpOrder; // DFS candidate order (adds first).
  std::vector<std::vector<unsigned>> SwitchOps; // Switch -> op indices.

  /// True once runSearch decided to spawn sibling shards. Decided before
  /// any searcher runs and constant afterwards; selects between the
  /// plain and the concurrent pruning containers below. The V/W probes
  /// run per candidate at every DFS node — the hottest loop of
  /// prune-dominated exhaustive searches — and a single-shard run must
  /// not pay lock/atomic overhead there (measured ~8x on the Fig. 8(h)
  /// exhaustive bench when it did).
  bool Sharded = false;

  /// True when a finite check budget engaged deterministic budget mode
  /// (see the file comment): pruning state is unit-local (the containers
  /// below sit unused), quotas come from Ledger, and the winner is the
  /// lowest successful unit. Decided before any searcher runs.
  bool Deterministic = false;
  /// The per-unit carve of the check budget; unlimited when
  /// !Deterministic.
  BudgetLedger Ledger;

  // Pruning state. V keeps one representation per mode (the striped
  // claim table costs locks a single-shard run must not pay); W is one
  // watch-indexed container for both modes — its probes and CAS appends
  // are lock-free, so they cost a single-shard run nothing either.
  FlatBitsetSet SeqVisited;             // V of Fig. 4 (one shard).
  /// V of Fig. 4 across shards. Searchers probe W and the seeds before
  /// they claim, so a configuration those already refute never takes a
  /// stripe lock (tryCandidate).
  ConcurrentSet<Bitset, BitsetHash> ParVisited;
  /// W of Fig. 4: (mask, value) refutations, filed under the first set
  /// bit of value so a probe touches only entries that could match
  /// (ConcurrentSet.h). reset() after buildOps, before any searcher.
  WatchedWrongSet Wrong;

  /// The claim: true for exactly one caller per configuration.
  bool visitedClaim(const Bitset &B) {
    return Sharded ? ParVisited.insert(B) : SeqVisited.insert(B);
  }
  bool matchesWrong(const Bitset &Bits) const { return Wrong.matches(Bits); }
  void addWrong(Bitset Mask, Bitset Value) {
    Wrong.add(std::move(Mask), std::move(Value));
  }

  /// Wrong-set entries imported from the cross-job ConstraintStore:
  /// filled before any searcher runs and immutable afterwards. The
  /// watch-list indexing is what keeps large seeded stores cheap to
  /// consult: a probe walks only the entries watching one of the
  /// configuration's set bits, O(relevant) instead of O(all). Always
  /// empty in deterministic budget mode, which never imports (see
  /// runSearch).
  WatchedWrongSet SeedWrong;
  /// True when this run publishes its learned entries on retirement;
  /// budget-mode searchers then keep their unit-local entries for the
  /// export instead of dropping them with the unit.
  bool ExportLearning = false;

  bool matchesSeed(const Bitset &Bits) const {
    return SeedWrong.matches(Bits);
  }

  /// Work-stealing state (sharded non-budget mode only; see the file
  /// comment). One bounded deque per shard; a shard pushes only to its
  /// own — takeTask scans it first, so a pusher drains its own offers
  /// before it may exit, which is what keeps published subtrees from
  /// being stranded. ActiveWorkers counts shards currently holding work
  /// (a unit or a stolen task) plus shards mid-scan; IdleShards lets
  /// busy shards skip the publish when nobody could take it.
  bool Stealing = false;
  std::vector<std::unique_ptr<StealDeque>> Deques;
  std::atomic<unsigned> ActiveWorkers{0};
  std::atomic<unsigned> IdleShards{0};

  EarlyTermination ET; // Internally synchronized; non-budget mode only.

  // Cancellation and abort-cause bookkeeping. The wall clock only
  // matters between work units (soft hint); check budgets are accounted
  // per unit through Ledger, so there is no shared call counter left.
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
  std::atomic<bool> WallAbort{false};
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

  /// True when the soft wall-clock hint has expired; polled only between
  /// work units, never inside one.
  bool softWallExpired() const {
    return Opts.TimeoutSeconds > 0.0 &&
           Clock.seconds() > Opts.TimeoutSeconds;
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
  /// WinnerSeq bare (safe only by the thread-join happens-before, which
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
  SwitchOps.assign(Topo.numSwitches(), {});
  for (SwitchId Sw : diffSwitches(Initial, Final)) {
    if (!Opts.RuleGranularity) {
      SwitchOps[Sw].push_back(static_cast<unsigned>(Ops.size()));
      Ops.push_back(MicroOp{Sw, -1});
      continue;
    }
    // Rule granularity: one op per traffic class whose slice changes.
    // Rules outside every class (none in the generated workloads) fall
    // back to a whole-switch op so the final table is always reached.
    bool Residue = false;
    for (const Rule &R : Initial.table(Sw).rules()) {
      bool InSomeClass = false;
      for (const TrafficClass &C : Classes)
        InSomeClass |= ruleBelongsToClass(R, C.Hdr);
      Residue |= !InSomeClass;
    }
    for (const Rule &R : Final.table(Sw).rules()) {
      bool InSomeClass = false;
      for (const TrafficClass &C : Classes)
        InSomeClass |= ruleBelongsToClass(R, C.Hdr);
      Residue |= !InSomeClass;
    }
    if (Residue) {
      SwitchOps[Sw].push_back(static_cast<unsigned>(Ops.size()));
      Ops.push_back(MicroOp{Sw, -1});
      continue;
    }
    for (unsigned C = 0; C != Classes.size(); ++C) {
      if (classSlice(Initial.table(Sw), Classes[C].Hdr) ==
          classSlice(Final.table(Sw), Classes[C].Hdr))
        continue;
      SwitchOps[Sw].push_back(static_cast<unsigned>(Ops.size()));
      Ops.push_back(MicroOp{Sw, static_cast<int>(C)});
    }
  }

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
  }

  /// Binds the checker to this shard's structure and runs the initial
  /// full check (Fig. 4 line 7); counted like any other query but exempt
  /// from budget charging — setup cost, performed once per shard.
  CheckResult bindInitial() {
    PhaseScope Ps(obs::detailEnabled(), PhaseCheckNs);
    CheckResult R = Checker.bind(K, Ctx.Phi);
    ++Stats.CheckCalls;
    return R;
  }

  /// Pulls top-level units until they run out, the shard aborts, or a
  /// sibling wins; then (stealing mode) turns thief and drains the
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
                // a stop or an expired wall observed now must not taint
                // the verdict; whether the search is exhaustive is
                // decided by the shards that own the claimed work.
      if (Stop.stopRequested()) {
        // A stop seen here leaves work units unexplored, so its cause
        // must be recorded: without a flag the verdict block would
        // mistake this cancellation for exhaustion and report a false
        // Impossible proof. noteStop() classifies — a sibling's Found
        // is not an abort at all.
        noteStop();
        return;
      }
      if (Ctx.softWallExpired()) {
        // The soft hint's only firing point: between units (and steal
        // tasks), so a unit that starts always runs to its
        // deterministic conclusion.
        // relaxed: a cause flag read only after every shard joined.
        Ctx.WallAbort.store(true, std::memory_order_relaxed);
        Ctx.Halt.requestStop();
        return;
      }
      // relaxed: the counter is the sole synchronization object here —
      // unit payloads are immutable after buildOps().
      size_t Unit = Ctx.NextUnit.fetch_add(1, std::memory_order_relaxed);
      if (Unit >= Ctx.OpOrder.size())
        break; // Genuine exhaustion: every unit claimed.
      // relaxed: advisory outranking bound (see recordWinner).
      if (Ctx.Deterministic &&
          Unit > Ctx.BestUnit.load(std::memory_order_relaxed))
        return; // A lower unit already won; everything from here on is
                // outranked (units are pulled in increasing order).
      if (Ctx.Stealing)
        Ctx.ActiveWorkers.fetch_add(1, std::memory_order_acq_rel);
      beginUnit(Unit);
      bool Won;
      {
        obs::TraceSpan Span("synth.unit");
        Won = tryCandidate(Ctx.OpOrder[Unit]);
      }
      Clock.stop(); // Inter-unit work (binds, waits) is not a phase.
      finishUnit();
      if (Ctx.Stealing)
        Ctx.ActiveWorkers.fetch_sub(1, std::memory_order_acq_rel);
      if (Won) {
        Ctx.recordWinner(Unit, AppliedSeq);
        return; // Keep the final structure; no rollback.
      }
    }
    if (Ctx.Stealing)
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

  /// Unit-local wrong-set entries collected for the cross-job export
  /// (deterministic budget mode only — elsewhere entries live in the
  /// context's shared containers). Harvested after the shard retires.
  std::vector<std::pair<Bitset, Bitset>> LearnedWrong;

private:
  /// Resets the unit-scoped state before exploring unit \p Unit. In
  /// deterministic mode that is the whole point: fresh local V/W/SAT
  /// state and a fresh quota account make the unit's outcome a pure
  /// function of (instance, quota).
  void beginUnit(size_t Unit) {
    CurrentUnit = Unit;
    UnitStop = false;
    UnitTruncated = false;
    if (!Ctx.Deterministic)
      return;
    Account = Ctx.Ledger.openAccount(Unit);
    Checker.setBudget(&Account);
    UnitVisited.clear();
    UnitWrong.clear();
    FailuresSinceEtCheck = 0;
    if (Ctx.Opts.EarlyTermination) {
      UnitET.emplace();
      UnitET->setStopToken(Stop);
    }
  }

  /// Folds the finished (or abandoned) unit's accounting into the shard
  /// stats and the shared abort-cause flags.
  void finishUnit() {
    if (!Ctx.Deterministic)
      return;
    Stats.BudgetSpent += Account.spent();
    if (UnitET)
      Stats.SatClauses += UnitET->numClauses();
    if (UnitTruncated)
      // relaxed: a tally read only after every shard joined.
      Ctx.ExhaustedUnits.fetch_add(1, std::memory_order_relaxed);
    // Unit-local entries are still instance facts; keep them for the
    // cross-job export instead of dropping them with the unit. (Budget
    // mode never *imports*, but what a budgeted probe learned is gold
    // for the unbudgeted runs that follow it.)
    if (Ctx.ExportLearning)
      LearnedWrong.insert(LearnedWrong.end(), UnitWrong.begin(),
                          UnitWrong.end());
    Checker.setBudget(nullptr);
  }

  /// The recursive part of Fig. 4: try every remaining candidate from
  /// the current configuration. In stealing mode, shallow candidates
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
      if (Ctx.Stealing && AppliedSeq.size() <= MaxOfferDepth &&
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
    // Every mode probes W (and the seeds) before it claims: a match
    // proves the recheck would fail, so a refuted configuration never
    // enters the visited set. Losing the claim is the visited prune, and
    // winning it commits this shard to exploring the configuration.
    if (Ctx.Deterministic) {
      // Unit-local pruning: nothing another shard does can change which
      // prefixes this unit affords, so the charge sequence below is
      // deterministic.
      if (Ctx.Opts.CexPruning && matchesUnitWrong(Next)) {
        ++Stats.CexPrunes;
        return false;
      }
      if (!UnitVisited.insert(Next)) {
        ++Stats.VisitedPrunes;
        return false;
      }
      if (Stop.stopRequested()) {
        noteStop();
        return false;
      }
      // relaxed: advisory outranking bound (see recordWinner).
      if (Ctx.BestUnit.load(std::memory_order_relaxed) < CurrentUnit) {
        // Outranked mid-unit by a lower winner; every unit this shard
        // could still pull is outranked too, so end the shard. No cause
        // flag: a recorded winner makes this a Success, not an abort.
        AbortFlag = true;
        return false;
      }
      if (!Account.canSpend()) {
        // Quota dry mid-subtree: abandon this unit (recorded as
        // truncation by finishUnit) but keep pulling later units, which
        // own their quotas and may still conclude deterministically.
        UnitTruncated = true;
        UnitStop = true;
        return false;
      }
    } else {
      // Both probes are lock-free and monotone, so under sharding only
      // what neither refutes takes a stripe lock; most of a deep proof's
      // reaches are refuted and stay out of the shared table. Imported
      // (cross-job) refutations go first: each seeded prune skips a
      // check an earlier digest-identical run already paid for.
      if (!Ctx.SeedWrong.empty() && Ctx.matchesSeed(Next)) {
        ++Stats.SeededPrunes;
        return false;
      }
      if (Ctx.Opts.CexPruning && Ctx.matchesWrong(Next)) {
        ++Stats.CexPrunes;
        return false;
      }
      if (!Ctx.visitedClaim(Next)) {
        ++Stats.VisitedPrunes;
        return false;
      }
      // A stop observed after the claim leaves the configuration
      // claimed-but-unexplored, which is fine: noteStop records the
      // abort cause, so the verdict block never mistakes this
      // truncated run for an exhaustive proof.
      if (Stop.stopRequested()) {
        noteStop();
        return false;
      }
    }

    const MicroOp &Op = Ctx.Ops[I];
    const Header *ClassHdr =
        Op.ClassIdx < 0
            ? nullptr
            : &Ctx.Classes[static_cast<size_t>(Op.ClassIdx)].Hdr;
    Clock.switchTo(PhaseMutateNs);
    // Switch-granularity ops install the final table verbatim: point at
    // it instead of copying. Rule granularity composes a fresh slice
    // into the frame's table (whose buffers the assignment reuses).
    const Table *NewT;
    if (ClassHdr) {
      F.NewTable = opResultTable(K.config().table(Op.Sw),
                                 Ctx.Final.table(Op.Sw), ClassHdr);
      NewT = &F.NewTable;
    } else {
      NewT = &Ctx.Final.table(Op.Sw);
    }
    F.Changed.clear();
    K.applySwitchUpdate(Op.Sw, *NewT, F.Changed, F.Undo);
    uint64_t ApplyNs = Clock.switchTo(PhaseCheckNs);
    if (Prof)
      mutateLatency().record(ApplyNs);

    UpdateInfo Info;
    Info.Sw = Op.Sw;
    Info.OldTable = &F.Undo.OldTable;
    Info.NewTable = NewT;
    Info.ChangedStates = &F.Changed;

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
    } else {
      if (Ctx.Opts.CexPruning && !Res.Cex.empty() &&
          Checker.providesCounterexamples()) {
        // Mostly SAT-layer work (constraint derivation + clause push);
        // the W append rides along.
        Clock.switchTo(PhaseSatNs);
        learnCex(Res.Cex, Next);
      }
    }

    if (Success)
      return true; // Keep the structure mutated; the caller replays.

    Clock.switchTo(PhaseMutateNs);
    Checker.notifyRollback();
    K.undo(std::move(F.Undo)); // Donates the buffers back for reuse.
    uint64_t UndoNs = Clock.switchTo(PhaseSatNs);
    if (Prof)
      mutateLatency().record(UndoNs);

    if (Ctx.Opts.EarlyTermination && !Res.Holds &&
        ++FailuresSinceEtCheck >= EtCheckInterval) {
      FailuresSinceEtCheck = 0;
      // Deterministic mode consults the unit-local solver (its clause
      // set, and therefore its verdict, is a pure function of the unit);
      // an UNSAT answer is an instance-level proof either way.
      EarlyTermination &ET = Ctx.Deterministic ? *UnitET : Ctx.ET;
      if (ET.impossible()) {
        Stats.EarlyTerminated = true;
        // relaxed: a cause flag read only after every shard joined.
        Ctx.EtImpossible.store(true, std::memory_order_relaxed);
        Ctx.Halt.requestStop();
        AbortFlag = true;
      }
    }
    return false;
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
    std::vector<KripkeStructure::UndoRecord> Undos;
    Undos.reserve(T.Path.size());
    for (unsigned OpIdx : T.Path) {
      const MicroOp &Op = Ctx.Ops[OpIdx];
      const Header *ClassHdr =
          Op.ClassIdx < 0
              ? nullptr
              : &Ctx.Classes[static_cast<size_t>(Op.ClassIdx)].Hdr;
      Table NewTable = opResultTable(K.config().table(Op.Sw),
                                     Ctx.Final.table(Op.Sw), ClassHdr);
      std::vector<StateId> Changed;
      Undos.push_back(K.applySwitchUpdate(Op.Sw, NewTable, Changed));
      Applied.set(OpIdx);
      AppliedSeq.push_back(OpIdx);
    }
    CheckResult BindRes;
    {
      PhaseScope Ps(obs::detailEnabled(), PhaseCheckNs);
      BindRes = Checker.bind(K, Ctx.Phi);
    }
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
    for (size_t S = Undos.size(); S-- > 0;) {
      K.undo(std::move(Undos[S]));
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
      if (Ctx.softWallExpired()) {
        // relaxed: a cause flag read only after every shard joined.
        Ctx.WallAbort.store(true, std::memory_order_relaxed);
        Ctx.Halt.requestStop();
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

    if (Ctx.Opts.EarlyTermination)
      (Ctx.Deterministic ? *UnitET : Ctx.ET)
          .addMaskValueConstraint(Mask, Value);
    if (Ctx.Deterministic)
      UnitWrong.push_back({std::move(Mask), std::move(Value)});
    else
      Ctx.addWrong(std::move(Mask), std::move(Value));
  }

  bool matchesUnitWrong(const Bitset &Bits) const {
    return matchesAny(UnitWrong, Bits);
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
    // relaxed: a cause flag read only after every shard joined.
    Ctx.ExternalAbort.store(true, std::memory_order_relaxed);
    Ctx.Halt.requestStop();
  }

  SearchContext &Ctx;
  KripkeStructure &K;       // Shard-private; mutate/rollback stays here.
  CheckerBackend &Checker;  // Shard-private, follows K.
  /// This shard's slot in Ctx.Deques (primary 0, thread T -> T+1).
  unsigned ShardIndex;
  StopToken Stop;

  Bitset Applied;
  std::vector<unsigned> AppliedSeq;
  bool AbortFlag = false;

  /// Per-depth scratch for one DFS edge, reused across every candidate
  /// tried at that depth — the steady-state search allocates nothing.
  /// The undo record's buffers cycle through the structure itself
  /// (undo(&&) donates them back; see kripke/Kripke.h).
  struct DfsFrame {
    std::vector<StateId> Changed;
    Table NewTable;
    KripkeStructure::UndoRecord Undo;
    Bitset Next;
  };
  /// Indexed by depth (AppliedSeq.size()); sized in the constructor and
  /// never resized — tryCandidate holds references into it across
  /// recursion.
  std::vector<DfsFrame> Frames;
  /// Phase-breakdown accumulators (ns); zero unless the obs detail tier
  /// was on. finalizeStats() converts them into the SynthStats seconds.
  uint64_t PhaseCheckNs = 0;
  uint64_t PhaseMutateNs = 0;
  uint64_t PhasePruneNs = 0;
  uint64_t PhaseSatNs = 0;
  /// Whether the obs detail tier was on when this shard started; the
  /// searcher lives inside one run, so the flag cannot change under it.
  const bool Prof = obs::detailEnabled();
  /// The shard's phase timeline, spanning units and the DFS recursion;
  /// stopped at unit/steal boundaries so only search work is attributed.
  PhaseClock Clock{Prof};
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
  FlatBitsetSet UnitVisited;
  std::vector<std::pair<Bitset, Bitset>> UnitWrong;
  /// Unit-local SAT layer (constructed per unit so its clause set is a
  /// function of the unit alone); only engaged in deterministic mode.
  std::optional<EarlyTermination> UnitET;

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
  Config Cur = Ctx.Initial;
  for (size_t Step = 0; Step != Seq.size(); ++Step) {
    const MicroOp &Op = Ctx.Ops[Seq[Step]];
    const Header *ClassHdr =
        Op.ClassIdx < 0
            ? nullptr
            : &Ctx.Classes[static_cast<size_t>(Op.ClassIdx)].Hdr;
    Table NewTable =
        opResultTable(Cur.table(Op.Sw), Ctx.Final.table(Op.Sw), ClassHdr);
    Cur.setTable(Op.Sw, NewTable);
    if (Step != 0)
      Out.push_back(Command::wait());
    Out.push_back(Command::update(Op.Sw, std::move(NewTable)));
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
  Ctx.ET.setStopToken(Ctx.stopToken());
  Ctx.buildOps();
  Ctx.Wrong.reset(Ctx.Ops.size());
  Ctx.SeedWrong.reset(Ctx.Ops.size());

  // A finite check budget engages deterministic mode: carve it into
  // per-unit quotas once, from (budget, #units) alone. UnitCheckCalls
  // bounds each unit directly and wins over the carved total.
  if (Opts.UnitCheckCalls > 0)
    Ctx.Ledger =
        BudgetLedger::perUnit(Opts.UnitCheckCalls, Ctx.OpOrder.size());
  else if (Opts.MaxCheckCalls > 0)
    Ctx.Ledger =
        BudgetLedger::carveTotal(Opts.MaxCheckCalls, Ctx.OpOrder.size());
  Ctx.Deterministic = Ctx.Ledger.limited();

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
          Ctx.ET.addMaskValueConstraint(E.first, E.second);
        Ctx.SeedWrong.add(std::move(E.first), std::move(E.second));
      }
    }
  }

  // Decide the mode before anything searches: Sharded selects the
  // concurrent pruning containers, so it must be constant from the
  // first probe on.
  unsigned Shards = Opts.Shards == 0 ? 1 : Opts.Shards;
  Shards =
      static_cast<unsigned>(std::min<size_t>(Shards, Ctx.OpOrder.size()));
  if (!Opts.ShardCheckerFactory)
    Shards = 1; // No way to build sibling checkers; degrade gracefully.
  Ctx.Sharded = Shards > 1;

  // Work-stealing engages only where it is sound *and* useful: sharded
  // (someone to steal from) and non-deterministic (budget mode's
  // unit-local V/W/quota state cannot be handed across shards without
  // making the verdict depend on scheduling).
  Ctx.Stealing = Ctx.Sharded && !Ctx.Deterministic && Opts.WorkStealing;
  if (Ctx.Stealing) {
    Ctx.Deques.reserve(Shards);
    for (unsigned S = 0; S != Shards; ++S)
      Ctx.Deques.push_back(std::make_unique<StealDeque>());
  }

  KripkeStructure K(Topo, Initial, Classes);
  ShardSearcher Primary(Ctx, K, Checker);
  CheckResult InitRes = Primary.bindInitial();

  SynthStats Total;
  // Captured when the search (not the whole run) concludes, so
  // SynthSeconds never includes command building or wait removal —
  // WaitRemovalSeconds measures the latter separately.
  double SearchSeconds = 0.0;
  // Budget-mode learning export: extra shards move their unit-local
  // entries here before their threads join (elsewhere the shared W
  // containers already hold everything).
  std::vector<std::vector<std::pair<Bitset, Bitset>>> ShardLearned;
  auto Finish = [&](SynthStatus Status) {
    Primary.finalizeStats();
    Total.mergeFrom(Primary.Stats);
    // Unit-local solvers folded their clause counts into shard stats
    // already (deterministic mode); the shared solver adds the rest.
    Total.SatClauses += Ctx.ET.numClauses();
    if (LearnOn) {
      // Publish what this run learned — every entry passed the learn-
      // time guard, and entries from interrupted or aborted runs are
      // just as sound (each stands on its own counterexample).
      std::vector<std::pair<Bitset, Bitset>> Learned;
      if (Ctx.Deterministic) {
        Learned = std::move(Primary.LearnedWrong);
        for (std::vector<std::pair<Bitset, Bitset>> &L : ShardLearned)
          Learned.insert(Learned.end(), L.begin(), L.end());
      } else {
        Learned = Ctx.Wrong.snapshot();
      }
      Total.ImportedConstraints = Ctx.SeedWrong.size();
      size_t StoreDropped = 0;
      Total.ExportedConstraints = Opts.Learning->publish(
          LearnKey, Ctx.Ops.size(), Learned, &StoreDropped);
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
    Total.HitBudget = Ctx.WallAbort.load() || Total.ExhaustedUnits > 0;
    Total.Interrupted = Ctx.ExternalAbort.load() || Ctx.WallAbort.load();
    if (Ctx.Deterministic) {
      uint64_t Cap = Ctx.Ledger.totalQuota();
      Total.BudgetRemaining =
          Cap > Total.BudgetSpent ? Cap - Total.BudgetSpent : 0;
    }
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
      Ctx.ET.impossible()) {
    // The imported constraints alone are contradictory: no simple order
    // exists, proven before a single work unit ran. A reuse-off search
    // reaches the same verdict (by its own SAT proof or by exhaustion)
    // — the store only made it instant.
    // relaxed: single-threaded here (before the shards spawn).
    Ctx.EtImpossible.store(true, std::memory_order_relaxed);
    SearchSeconds = Ctx.Clock.seconds();
    Finish(SynthStatus::Impossible);
    return Result;
  }

  if (Shards <= 1) {
    Primary.runUnits();
  } else {
    // Extra shards run on their own threads — deliberately not on the
    // engine's job pool, whose workers may all be blocked inside jobs
    // waiting for exactly these threads (see engine/Engine.h).
    std::vector<SynthStats> ShardStats(Shards - 1);
    ShardLearned.resize(Shards - 1);
    std::vector<std::thread> Threads;
    Threads.reserve(Shards - 1);
    for (unsigned T = 0; T != Shards - 1; ++T) {
      Threads.emplace_back([&, T] {
        obs::TraceSpan ShardSpan("synth.shard");
        std::unique_ptr<CheckerBackend> ShardChecker =
            Opts.ShardCheckerFactory();
        if (!ShardChecker)
          return; // Fewer shards; the rest still cover every unit.
        KripkeStructure ShardK(Topo, Initial, Classes);
        ShardSearcher Shard(Ctx, ShardK, *ShardChecker, T + 1);
        CheckResult BindRes = Shard.bindInitial();
        // The primary bind verified the initial configuration; a shard
        // bind can only disagree if the backend is nondeterministic, in
        // which case exploring would be unsound — sit this run out.
        if (BindRes.Holds)
          Shard.runUnits();
        // Fold this checker's real work into the shard's stats before
        // the checker dies with this thread.
        Shard.Stats.BackendQueries += ShardChecker->numQueries();
        Shard.Stats.CacheHits += ShardChecker->cacheHits();
        Shard.Stats.CacheMisses += ShardChecker->cacheMisses();
        Shard.finalizeStats();
        ShardStats[T] = std::move(Shard.Stats);
        ShardLearned[T] = std::move(Shard.LearnedWrong);
      });
    }
    Primary.runUnits();
    for (std::thread &T : Threads)
      T.join();
    for (const SynthStats &S : ShardStats)
      Total.mergeFrom(S);
  }

  // All shards joined: the winner slot and flags are stable now.
  SearchSeconds = Ctx.Clock.seconds();
  std::vector<unsigned> WinnerSeq;
  if (!Ctx.winnerSnapshot(WinnerSeq)) {
    if (Ctx.EtImpossible.load())
      Finish(SynthStatus::Impossible); // SAT proof; outranks an abort.
    else if (Ctx.ExternalAbort.load() || Ctx.WallAbort.load() ||
             Ctx.ExhaustedUnits.load() > 0)
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
    Result.Commands = removeWaits(Topo, Initial, Classes, Result.Commands);
    Total.WaitRemovalSeconds = WaitClock.seconds();
    Total.WaitsAfterRemoval = countWaits(Result.Commands);
  }
  Finish(SynthStatus::Success);
  return Result;
}

} // namespace

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
