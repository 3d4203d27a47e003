//===- tests/budget_test.cpp - deterministic-budget tests ------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the deterministic budget subsystem (support/Budget.h and the
/// search's deterministic budget mode): ledger carving, inclusive
/// exactly-N boundary semantics, the determinism matrix (byte-identical
/// verdicts and sequences across shard and worker counts, budget-Aborted
/// cases included), the update-independent counterexample guard, the
/// Found-vs-budget abort classification, and the engine's abort-caching
/// contract across all of its Aborted-writing paths: pure
/// quota-exhaustion aborts are deterministic and ARE cached, while every
/// timing-shaped abort (cancellation, shutdown) stays out of the cache.
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "mc/BackendFactory.h"
#include "support/Budget.h"
#include "synth/OrderUpdate.h"
#include "topo/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

using namespace netupd;
using namespace netupd::testutil;

// --- BudgetLedger -----------------------------------------------------------

namespace {

/// The hard bound on charged calls across \p Units work units.
uint64_t carvedTotal(const BudgetLedger &L, size_t Units) {
  uint64_t Sum = 0;
  for (size_t U = 0; U != Units; ++U)
    Sum += L.unitQuota(U);
  return Sum;
}

} // namespace

TEST(BudgetLedgerTest, CarveGivesEarlierUnitsTheRemainder) {
  BudgetLedger L = BudgetLedger::carveTotal(10, 4);
  ASSERT_TRUE(L.limited());
  EXPECT_EQ(L.unitQuota(0), 3u);
  EXPECT_EQ(L.unitQuota(1), 3u);
  EXPECT_EQ(L.unitQuota(2), 2u);
  EXPECT_EQ(L.unitQuota(3), 2u);
  EXPECT_EQ(carvedTotal(L, 4), 10u);
}

TEST(BudgetLedgerTest, CarveFloorsEveryUnitAtOneCall) {
  // More units than budget: every unit still gets one call (progress),
  // so the hard total is max(Total, Units), not Total.
  BudgetLedger L = BudgetLedger::carveTotal(2, 5);
  for (size_t U = 0; U != 5; ++U)
    EXPECT_EQ(L.unitQuota(U), 1u) << "unit " << U;
  EXPECT_EQ(carvedTotal(L, 5), 5u);
}

TEST(BudgetLedgerTest, PerUnitGivesEveryUnitTheFullQuota) {
  BudgetLedger L = BudgetLedger::perUnit(7);
  for (size_t U = 0; U != 3; ++U)
    EXPECT_EQ(L.unitQuota(U), 7u);
  EXPECT_EQ(carvedTotal(L, 3), 21u);
}

TEST(BudgetLedgerTest, AccountsAreInclusiveAtTheBoundary) {
  BudgetAccount A = BudgetLedger::perUnit(2).openAccount(0);
  ASSERT_TRUE(A.limited());
  EXPECT_TRUE(A.canSpend()); // 0 spent of 2.
  A.charge();
  EXPECT_TRUE(A.canSpend()); // The 2nd (== quota-th) call is spendable.
  A.charge();
  EXPECT_FALSE(A.canSpend()); // The 3rd is not.
  EXPECT_TRUE(A.exhausted());
  EXPECT_EQ(A.spent(), 2u);

  BudgetAccount Unlimited = BudgetLedger().openAccount(0);
  EXPECT_FALSE(Unlimited.limited());
  Unlimited.charge();
  EXPECT_TRUE(Unlimited.canSpend());
  EXPECT_FALSE(Unlimited.exhausted());
}

// --- Exactly-N boundary semantics (regression for the >= off-by-one) --------

namespace {

/// Accepts every configuration; the search under it dives straight to a
/// full sequence, so a successful unit charges exactly numOps rechecks.
class AcceptAll : public CheckerBackend {
public:
  const char *name() const override { return "AcceptAll"; }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return false; }

protected:
  CheckResult bindImpl(KripkeStructure &, Formula) override {
    ++Queries;
    CheckResult R;
    R.Holds = true;
    return R;
  }
  CheckResult recheckImpl(const UpdateInfo &) override {
    ++Queries;
    CheckResult R;
    R.Holds = true;
    return R;
  }
};

} // namespace

// A job needing exactly its budget must Succeed: with an accept-all
// checker the first unit completes after exactly numOps charged rechecks,
// so a per-unit quota of exactly numOps is sufficient — the budget's
// final call is spendable (the historical >= check refused it). One call
// less must Abort, deterministically, with every unit truncated.
TEST(BudgetBoundaryTest, ExactBudgetSucceedsOneLessAborts) {
  Scenario S = diamondWithUpdates(1000, 4);
  unsigned NumOps = numUpdatingSwitches(S);
  ASSERT_GE(NumOps, 2u);

  {
    AcceptAll Checker;
    FormulaFactory FF;
    SynthOptions Opts;
    Opts.UnitCheckCalls = NumOps; // Exactly what the dive needs.
    SynthResult Res = synthesizeUpdate(S, FF, Checker, Opts);
    EXPECT_EQ(Res.Status, SynthStatus::Success)
        << "a budget of exactly N must permit N calls";
    EXPECT_EQ(Res.Stats.BudgetSpent, NumOps);
    EXPECT_EQ(Res.Stats.ExhaustedUnits, 0u)
        << "spending the full quota on a completed unit is not truncation";
  }
  {
    AcceptAll Checker;
    FormulaFactory FF;
    SynthOptions Opts;
    Opts.UnitCheckCalls = NumOps - 1;
    SynthResult Res = synthesizeUpdate(S, FF, Checker, Opts);
    EXPECT_EQ(Res.Status, SynthStatus::Aborted);
    EXPECT_EQ(Res.Stats.ExhaustedUnits, NumOps)
        << "every unit runs dry one call short of its sequence";
    EXPECT_TRUE(Res.Commands.empty());
  }
  {
    // Same boundary through the carved-total knob: an even split of
    // NumOps^2 over NumOps units gives the first unit exactly NumOps.
    AcceptAll Checker;
    FormulaFactory FF;
    SynthOptions Opts;
    Opts.MaxCheckCalls = static_cast<uint64_t>(NumOps) * NumOps;
    SynthResult Res = synthesizeUpdate(S, FF, Checker, Opts);
    EXPECT_EQ(Res.Status, SynthStatus::Success);
    EXPECT_EQ(Res.Stats.BudgetSpent, NumOps)
        << "only the winning unit should have spent its quota";
  }
}

// --- Determinism matrix -----------------------------------------------------

namespace {

/// One job's observable outcome for the matrix comparison: the verdict
/// plus the rendered command sequence (byte-identical requirement).
struct JobFingerprint {
  SynthStatus Status;
  std::string Commands;

  bool operator==(const JobFingerprint &O) const {
    return Status == O.Status && Commands == O.Commands;
  }
};

std::vector<SynthJob> matrixRegistry() {
  std::vector<SynthJob> Jobs;
  auto Add = [&](std::string Name, Scenario S, const char *Backend,
                 SynthOptions O) {
    SynthJob Job;
    Job.Name = std::move(Name);
    Job.S = std::move(S);
    PortfolioMember M;
    M.Backend = Backend;
    M.Opts = O;
    Job.Portfolio.push_back(std::move(M));
    Jobs.push_back(std::move(Job));
  };

  Scenario Diamond = diamondWithUpdates(2000, 4);
  Scenario DDiamond = doubleDiamond(9);

  SynthOptions Generous;
  Generous.MaxCheckCalls = 200000; // Finite: deterministic mode, completes.
  Add("diamond-generous", Diamond, "incremental", Generous);

  SynthOptions Tight;
  Tight.UnitCheckCalls = 2; // Truncates every unit: a budget Abort.
  Add("diamond-tight", Diamond, "incremental", Tight);

  SynthOptions TightTotal;
  TightTotal.MaxCheckCalls = 40;
  TightTotal.EarlyTermination = false;
  Add("ddiamond-tight", DDiamond, "incremental", TightTotal);

  SynthOptions DDGenerous;
  DDGenerous.MaxCheckCalls = 500000; // Enough to complete every unit.
  Add("ddiamond-generous", DDiamond, "incremental", DDGenerous);

  SynthOptions Memo = Generous;
  Add("diamond-memo", Diamond, "memo:incremental", Memo);
  return Jobs;
}

} // namespace

// The acceptance matrix: one job registry run at shards x workers under
// finite budgets must yield byte-identical verdicts and command
// sequences in every cell — budget-Aborted verdicts included. This is
// the property the ledger exists for; a wall clock or a shared call
// counter fails it on the first noisy machine.
TEST(BudgetDeterminismTest, MatrixOfShardAndWorkerCounts) {
  std::vector<SynthJob> Jobs = matrixRegistry();

  std::vector<JobFingerprint> Reference;
  bool SawAborted = false;
  for (unsigned Shards : {1u, 2u, 4u}) {
    for (unsigned Workers : {1u, 4u}) {
      EngineOptions EO;
      EO.NumWorkers = Workers;
      EO.IntraJobShards = Shards;
      EO.CacheResults = false; // Compare real runs, not cached replays.
      SynthEngine Engine(EO);
      BatchReport Rep = Engine.run(Jobs);

      std::vector<JobFingerprint> Run;
      for (size_t I = 0; I != Rep.Reports.size(); ++I) {
        const SynthReport &R = Rep.Reports[I];
        EXPECT_TRUE(R.Members[0].Error.empty()) << R.Members[0].Error;
        SawAborted |= R.Result.Status == SynthStatus::Aborted;
        Run.push_back({R.Result.Status,
                       commandSeqToString(Jobs[I].S.Topo,
                                          R.Result.Commands)});
      }
      if (Reference.empty()) {
        Reference = std::move(Run);
      } else {
        for (size_t I = 0; I != Run.size(); ++I) {
          EXPECT_EQ(Run[I].Status, Reference[I].Status)
              << Jobs[I].Name << " verdict changed at shards=" << Shards
              << " workers=" << Workers;
          EXPECT_EQ(Run[I].Commands, Reference[I].Commands)
              << Jobs[I].Name << " sequence changed at shards=" << Shards
              << " workers=" << Workers;
        }
      }
    }
  }
  EXPECT_TRUE(SawAborted)
      << "the registry must include a budget-Aborted case or the matrix "
         "proves nothing about abort determinism";
  EXPECT_EQ(Reference[0].Status, SynthStatus::Success);
  EXPECT_EQ(Reference[3].Status, SynthStatus::Impossible)
      << "a generous budget must still complete the impossibility proof";
}

// --- Update-independent counterexample guard --------------------------------

namespace {

/// Fails the first recheck with a fabricated counterexample that is
/// independent of the applied update: its trace crosses a *different*
/// updating switch. A correct backend cannot produce one (the violation
/// would exist in the verified initial configuration too), but the
/// search must degrade to "learn nothing" — not plant an unsound
/// wrong-set entry matching every configuration that has not touched
/// that switch.
class BogusCexChecker : public CheckerBackend {
public:
  explicit BogusCexChecker(std::vector<SwitchId> DiffSwitches)
      : DiffSwitches(std::move(DiffSwitches)) {}

  const char *name() const override { return "BogusCex"; }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return true; }

protected:
  CheckResult bindImpl(KripkeStructure &Structure, Formula) override {
    ++Queries;
    K = &Structure;
    CheckResult R;
    R.Holds = true;
    return R;
  }
  CheckResult recheckImpl(const UpdateInfo &Update) override {
    ++Queries;
    CheckResult R;
    if (Fired) {
      R.Holds = true;
      return R;
    }
    Fired = true;
    R.Holds = false;
    // Every state of some updating switch other than the one just
    // updated: Mask covers that switch's ops, none of which is applied,
    // so the derived (mask, value) pair has an all-zero value.
    SwitchId Other = DiffSwitches.front() != Update.Sw
                         ? DiffSwitches.front()
                         : DiffSwitches.back();
    for (StateId St = 0; St != K->numStates(); ++St)
      if (K->stateSwitch(St) == Other)
        R.Cex.push_back(St);
    EXPECT_FALSE(R.Cex.empty());
    return R;
  }

private:
  std::vector<SwitchId> DiffSwitches;
  KripkeStructure *K = nullptr;
  bool Fired = false;
};

} // namespace

// Regression (release builds): the wrong-set entry used to be planted
// before the update-independence guard, so a single bogus counterexample
// silently poisoned pruning for the rest of the search.
TEST(CexGuardTest, UpdateIndependentCexLearnsNothing) {
  Scenario S = diamondWithUpdates(4000, 3);
  std::vector<SwitchId> Diff = diffSwitches(S.Initial, S.Final);
  ASSERT_GE(Diff.size(), 2u);

  BogusCexChecker Checker(Diff);
  FormulaFactory FF;
  SynthResult Res = synthesizeUpdate(S, FF, Checker, SynthOptions{});
  EXPECT_EQ(Res.Status, SynthStatus::Success)
      << "one bogus counterexample must not derail a feasible search";
  EXPECT_EQ(Res.Stats.CexPrunes, 0u)
      << "an update-independent counterexample planted a wrong-set entry";
  EXPECT_EQ(Res.Stats.SatClauses, 0u)
      << "an update-independent counterexample reached the SAT layer";
}

// --- Found vs budget-abort classification -----------------------------------

namespace {

/// Accepts everything, parking each call behind a gate; used to hold
/// sibling shards back until the race is decided.
class GatedAcceptAll : public CheckerBackend {
public:
  GatedAcceptAll(std::shared_ptr<std::atomic<bool>> Gate,
                 std::shared_ptr<std::atomic<unsigned>> Count)
      : Gate(std::move(Gate)), Count(std::move(Count)) {}

  const char *name() const override { return "GatedAcceptAll"; }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return false; }

protected:
  CheckResult bindImpl(KripkeStructure &, Formula) override {
    return serve();
  }
  CheckResult recheckImpl(const UpdateInfo &) override { return serve(); }

private:
  CheckResult serve() {
    if (Gate)
      while (!Gate->load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++Queries;
    Count->fetch_add(1);
    CheckResult R;
    R.Holds = true;
    return R;
  }

  std::shared_ptr<std::atomic<bool>> Gate; // Null: never blocks.
  std::shared_ptr<std::atomic<unsigned>> Count;
};

} // namespace

// A sibling shard stopped by the winner's Found token observes a stop
// with work units left — which is exactly what a budget abort looks like
// from inside the shard. It must be classified as a race loss: a Found
// run never reports a budget abort (the stray flag used to leak into
// stats and, without a winner, into the verdict).
TEST(AbortClassificationTest, FoundRunNeverReportsBudgetAbort) {
  Scenario S = diamondWithUpdates(5000, 4);
  unsigned NumOps = numUpdatingSwitches(S);

  auto Gate = std::make_shared<std::atomic<bool>>(false);
  auto PrimaryCount = std::make_shared<std::atomic<unsigned>>(0);
  auto SiblingCount = std::make_shared<std::atomic<unsigned>>(0);

  GatedAcceptAll Primary(nullptr, PrimaryCount);
  SynthOptions Opts;
  Opts.Shards = 2;
  Opts.ShardCheckerFactory = [&]() -> std::unique_ptr<CheckerBackend> {
    return std::make_unique<GatedAcceptAll>(Gate, SiblingCount);
  };

  SynthResult Res;
  std::thread Runner([&] {
    FormulaFactory FF;
    Res = synthesizeUpdate(S, FF, Primary, Opts);
  });
  // The ungated primary dives to a win in bind + NumOps calls; give the
  // Found token time to become visible, then release the parked sibling.
  for (unsigned I = 0; I != 10000 && PrimaryCount->load() < NumOps + 1; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  bool PrimaryFinished = PrimaryCount->load() == NumOps + 1;
  if (PrimaryFinished)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Gate->store(true);
  Runner.join();
  ASSERT_TRUE(PrimaryFinished) << "primary did not finish in time";

  ASSERT_EQ(Res.Status, SynthStatus::Success);
  EXPECT_EQ(Res.Stats.ExhaustedUnits, 0u)
      << "a race loss was misclassified as a budget abort";
}

namespace {

/// Binds cleanly, then parks the (single) recheck behind a gate and
/// rejects it — lets the test complete an exhaustive search while an
/// external stop fires mid-flight.
class GatedReject : public CheckerBackend {
public:
  GatedReject(std::shared_ptr<std::atomic<bool>> Gate,
              std::shared_ptr<std::atomic<bool>> Parked)
      : Gate(std::move(Gate)), Parked(std::move(Parked)) {}

  const char *name() const override { return "GatedReject"; }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return false; }

protected:
  CheckResult bindImpl(KripkeStructure &, Formula) override {
    ++Queries;
    CheckResult R;
    R.Holds = true;
    return R;
  }
  CheckResult recheckImpl(const UpdateInfo &) override {
    Parked->store(true);
    while (!Gate->load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++Queries;
    CheckResult R;
    R.Holds = false;
    return R;
  }

private:
  std::shared_ptr<std::atomic<bool>> Gate;
  std::shared_ptr<std::atomic<bool>> Parked;
};

} // namespace

// A stop observed only after every work unit has been
// claimed and completed must not taint the verdict: the exhaustive
// Impossible proof is already established. (Regression: the unit loop
// used to poll the stop before noticing the cursor was exhausted, so a
// late cancellation discarded a completed proof as Aborted.)
TEST(AbortClassificationTest, LateStopDoesNotDiscardCompletedProof) {
  // Collapse a diamond's diff to a single switch: one op, one work
  // unit, and the (gated, rejecting) checker refutes it in one call —
  // a complete exhaustive search. Scenario semantics don't matter; the
  // checker fabricates the verdicts.
  Scenario S = diamondWithUpdates(8000, 2);
  std::vector<SwitchId> Diff = diffSwitches(S.Initial, S.Final);
  for (size_t I = 1; I != Diff.size(); ++I)
    S.Final.setTable(Diff[I], S.Initial.table(Diff[I]));
  ASSERT_EQ(numUpdatingSwitches(S), 1u);

  auto Gate = std::make_shared<std::atomic<bool>>(false);
  auto Parked = std::make_shared<std::atomic<bool>>(false);
  GatedReject Checker(Gate, Parked);
  StopSource Stop;
  SynthOptions Opts;
  Opts.Stop = Stop.token();

  SynthResult Res;
  std::thread Runner([&] {
    FormulaFactory FF;
    Res = synthesizeUpdate(S, FF, Checker, Opts);
  });
  // Wait until the search is parked inside the final (and only) unit's
  // recheck — past its last pre-recheck stop checkpoint — then cancel
  // and release it: the unit completes, nothing is left to claim, and
  // the proof must stand.
  while (!Parked->load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Stop.requestStop();
  Gate->store(true);
  Runner.join();

  EXPECT_EQ(Res.Status, SynthStatus::Impossible)
      << "a stop observed after exhaustion discarded a completed proof";
  EXPECT_FALSE(Res.Stats.Interrupted);
}

// --- The abort-caching contract, across every Aborted path ------------------

// A pure quota-exhaustion abort is a pure function of (job, budget) —
// the budget is in the digest — so the engine caches and replays it:
// repeated doomed probes in an autotuning loop cost one real run.
TEST(AbortedCacheTest, QuotaExhaustionAbortsAreCachedAndReplayed) {
  SynthJob Job;
  Job.Name = "tight";
  Job.S = diamondWithUpdates(6000, 3);
  Job.Portfolio.emplace_back();
  Job.Portfolio[0].Opts.UnitCheckCalls = 1; // Guaranteed truncation.

  EngineOptions EO;
  EO.NumWorkers = 1;
  SynthEngine Engine(EO); // CacheResults on (the default).

  BatchReport First = Engine.run({Job});
  ASSERT_EQ(First.Reports[0].Result.Status, SynthStatus::Aborted);
  ASSERT_GT(First.Reports[0].Result.Stats.ExhaustedUnits, 0u);
  EXPECT_FALSE(First.Reports[0].Result.Stats.Interrupted);

  // The digest-identical resubmission replays the deterministic abort
  // — verdict and accounting included — without running anything.
  BatchReport Second = Engine.run({Job});
  EXPECT_EQ(Second.EngineCacheHits, 1u);
  EXPECT_TRUE(Second.Reports[0].FromCache);
  EXPECT_EQ(Second.Reports[0].Result.Status, SynthStatus::Aborted);
  EXPECT_EQ(Second.Reports[0].Result.Stats.ExhaustedUnits,
            First.Reports[0].Result.Stats.ExhaustedUnits);
  EXPECT_EQ(Second.Reports[0].Result.Stats.BudgetSpent,
            First.Reports[0].Result.Stats.BudgetSpent);
  EXPECT_EQ(Second.TotalQueries, 0u);

  // A budget one notch different is a different digest: it must run.
  SynthJob Widened = Job;
  Widened.Portfolio[0].Opts.UnitCheckCalls = 2;
  BatchReport Third = Engine.run({Widened});
  EXPECT_FALSE(Third.Reports[0].FromCache)
      << "a different budget must never replay another budget's abort";
}

// A member whose own stop token fired before its search started is an
// external abort, not a budget decision: Interrupted, no exhausted
// unit, and never replayed from the result cache.
TEST(AbortedCacheTest, PreFiredMemberStopIsNeverCached) {
  StopSource Stop;
  Stop.requestStop();
  SynthJob Job;
  Job.Name = "stopped";
  Job.S = diamondWithUpdates(6000, 3);
  Job.Portfolio.emplace_back();
  Job.Portfolio[0].Opts.Stop = Stop.token();

  EngineOptions EO;
  EO.NumWorkers = 1;
  SynthEngine Engine(EO); // CacheResults on (the default).
  BatchReport First = Engine.run({Job});
  const SynthReport &R = First.Reports[0];
  ASSERT_EQ(R.Result.Status, SynthStatus::Aborted);
  EXPECT_TRUE(R.Result.Stats.Interrupted);
  EXPECT_EQ(R.Result.Stats.ExhaustedUnits, 0u);
  EXPECT_FALSE(Engine.resultCache()->lookup(digestOf(Job)).has_value())
      << "a stop-shaped abort leaked into the result cache";

  BatchReport Second = Engine.run({Job});
  EXPECT_FALSE(Second.Reports[0].FromCache);
}

namespace {

/// Blocks in bind() until released, raising Entered once it is parked
/// there; accepts everything afterwards.
class GateChecker : public CheckerBackend {
public:
  GateChecker(std::shared_ptr<std::atomic<bool>> Open,
              std::shared_ptr<std::atomic<bool>> Entered)
      : Open(std::move(Open)), Entered(std::move(Entered)) {}

  const char *name() const override { return "Gate"; }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return false; }

protected:
  CheckResult bindImpl(KripkeStructure &, Formula) override {
    Entered->store(true);
    while (!Open->load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++Queries;
    CheckResult R;
    R.Holds = true;
    return R;
  }
  CheckResult recheckImpl(const UpdateInfo &) override {
    ++Queries;
    CheckResult R;
    R.Holds = true;
    return R;
  }

private:
  std::shared_ptr<std::atomic<bool>> Open;
  std::shared_ptr<std::atomic<bool>> Entered;
};

} // namespace

// Shutdown path: the running job finishes and is cached, while a job
// still queued when the engine dies is reported Aborted by the
// destructor and never enters the result cache; a later engine runs it
// for real.
TEST(AbortedCacheTest, ShutdownOrphansAreNeverCached) {
  auto Open = std::make_shared<std::atomic<bool>>(false);
  auto Entered = std::make_shared<std::atomic<bool>>(false);
  BackendFactory::instance().registerBackend(
      "budget-gate", [Open, Entered](const Scenario &) {
        return std::make_unique<GateChecker>(Open, Entered);
      });

  SynthJob Blocker;
  Blocker.Name = "blocker";
  Blocker.S = diamondWithUpdates(7000, 3);
  Blocker.Portfolio.emplace_back();
  Blocker.Portfolio[0].Backend = "budget-gate";

  SynthJob Orphan;
  Orphan.Name = "orphan";
  Orphan.S = diamondWithUpdates(7100, 3);

  JobHandle OrphanHandle;
  std::shared_ptr<ResultCache> Cache;
  {
    EngineOptions EO;
    EO.NumWorkers = 1;
    SynthEngine Engine(EO);
    Cache = Engine.resultCache(); // Outlives the engine for the audit.
    JobHandle BlockerHandle = Engine.submit(Blocker);
    // Only once the blocker occupies the only worker, parked in bind, is
    // the orphan sure to stay queued until the destructor.
    while (!Entered->load())
      std::this_thread::yield();
    OrphanHandle = Engine.submit(Orphan);
    EXPECT_FALSE(OrphanHandle.done());
    EXPECT_FALSE(BlockerHandle.done());
    Open->store(true);
    // Destructor: the blocker finishes, the orphan is reported Aborted
    // without running.
  }
  ASSERT_TRUE(OrphanHandle.done());
  EXPECT_EQ(OrphanHandle.wait().Result.Status, SynthStatus::Aborted);
  EXPECT_FALSE(Cache->lookup(digestOf(Orphan)).has_value())
      << "a shutdown-aborted job leaked into the result cache";
  EXPECT_TRUE(Cache->lookup(digestOf(Blocker)).has_value())
      << "the job running at shutdown must finish and be cached";

  EngineOptions EO2;
  EO2.NumWorkers = 1;
  SynthEngine Fresh(EO2);
  BatchReport Rep = Fresh.run({Orphan});
  EXPECT_FALSE(Rep.Reports[0].FromCache);
  EXPECT_EQ(Rep.Reports[0].Result.Status, SynthStatus::Success);
}

// The cancel-races-completion window: whether the cancel lands before,
// during, or after the job, the invariant holds — a served cache entry
// is never Aborted, and an Aborted report is never served from cache.
TEST(AbortedCacheTest, CancelRacingCompletionNeverPoisonsTheCache) {
  Scenario S = diamondWithUpdates(7200, 3);
  for (unsigned Round = 0; Round != 6; ++Round) {
    EngineOptions EO;
    EO.NumWorkers = 1;
    SynthEngine Engine(EO);

    SynthJob Job;
    Job.Name = "raced";
    Job.S = S;

    JobHandle H = Engine.submit(Job);
    if (Round % 2)
      std::this_thread::sleep_for(std::chrono::microseconds(50 * Round));
    H.cancel();
    const SynthReport &Rep = H.wait();

    if (Rep.Result.Status == SynthStatus::Aborted) {
      // The retry must execute, not replay the abort.
      BatchReport Retry = Engine.run({Job});
      EXPECT_FALSE(Retry.Reports[0].FromCache) << "round " << Round;
      EXPECT_EQ(Retry.Reports[0].Result.Status, SynthStatus::Success);
    } else {
      // Completion won the race; a cached replay must carry the real
      // verdict.
      EXPECT_EQ(Rep.Result.Status, SynthStatus::Success);
      BatchReport Retry = Engine.run({Job});
      EXPECT_EQ(Retry.Reports[0].Result.Status, SynthStatus::Success);
    }
  }
}
