//===- tests/engine_test.cpp - batch-synthesis engine tests ----*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the SynthEngine and BackendFactory: backend registry
/// behaviour, query accounting across all backends, cross-backend
/// agreement on identical instances, batch determinism across worker
/// counts, portfolio-vs-single-config verdict agreement, cooperative
/// cancellation, and end-to-end synthesis on 500+-switch fabrics (2-flow
/// diamonds, and a churn stream served by the result cache).
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "mc/BackendFactory.h"
#include "mc/MemoizingChecker.h"
#include "mc/NaiveTraceChecker.h"
#include "topo/Churn.h"
#include "topo/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

using namespace netupd;
using namespace netupd::testutil;

namespace {

/// A small feasible diamond scenario, deterministic per seed.
Scenario smallDiamond(uint64_t Seed,
                      PropertyKind Kind = PropertyKind::Reachability) {
  Rng R(Seed);
  Topology Base = buildSmallWorld(16, 4, 0.2, R);
  std::optional<Scenario> S = makeDiamondScenario(Base, R, Kind);
  EXPECT_TRUE(S.has_value()) << "seed " << Seed << " grew no diamond";
  return std::move(*S);
}

/// The Fig. 8(h) adversarial instance: infeasible at switch granularity,
/// feasible at rule granularity.
Scenario doubleDiamond(uint64_t Seed) {
  Rng R(Seed);
  Topology Base = buildSmallWorld(20, 4, 0.2, R);
  std::optional<Scenario> S = makeDoubleDiamondScenario(Base, R);
  EXPECT_TRUE(S.has_value()) << "seed " << Seed << " grew no double diamond";
  return std::move(*S);
}

/// Replay-checks a report's command sequence against the job's property.
void expectCorrectSequence(const Scenario &S, const SynthReport &Rep) {
  FormulaFactory FF;
  Formula Phi = S.buildProperty(FF);
  EXPECT_TRUE(allIntermediateConfigsHold(S.Topo, S.Initial, S.classes(), Phi,
                                         Rep.Result.Commands))
      << "job " << Rep.JobIndex << " (winner " << Rep.Winner
      << ") produced an unsafe sequence";
  // Rule-granularity replay may order rules differently, so compare the
  // end configuration to the final one semantically (table outputs on the
  // scenario classes), as the synth tests do.
  Config Cur = S.Initial;
  applyCommands(Cur, Rep.Result.Commands);
  for (SwitchId Sw : diffSwitches(Cur, S.Final))
    for (const TrafficClass &C : S.classes())
      for (PortId Pt : S.Topo.switchPorts(Sw))
        EXPECT_EQ(Cur.table(Sw).apply(C.Hdr, Pt),
                  S.Final.table(Sw).apply(C.Hdr, Pt))
            << "sequence does not reach the final configuration";
}

} // namespace

TEST(BackendFactoryTest, BuiltinsRegistered) {
  BackendFactory &F = BackendFactory::instance();
  for (const char *Name : {"incremental", "batch", "symbolic", "hsa",
                           "naive"})
    EXPECT_TRUE(F.known(Name)) << Name;
  EXPECT_TRUE(F.known("Incremental")) << "lookup is case-insensitive";
  EXPECT_FALSE(F.known("nusmv"));

  Scenario S = smallDiamond(1);
  EXPECT_EQ(F.create("no-such-backend", S), nullptr);
  std::unique_ptr<CheckerBackend> B = F.create("batch", S);
  ASSERT_NE(B, nullptr);
  EXPECT_STREQ(B->name(), "Batch");
}

TEST(BackendFactoryTest, CustomRegistration) {
  BackendFactory &F = BackendFactory::instance();
  F.registerBackend("naive-small", [](const Scenario &) {
    return std::make_unique<NaiveTraceChecker>(1u << 16);
  });
  Scenario S = smallDiamond(2);
  std::unique_ptr<CheckerBackend> B = F.create("naive-small", S);
  ASSERT_NE(B, nullptr);
  EXPECT_STREQ(B->name(), "NaiveTrace");
}

// Every backend must count exactly one query per bind() and one per
// recheckAfterUpdate(): the synthesizer's CheckCalls counter increments at
// the same two call sites, so the two totals must match on any run. (The
// batch labeling checker used to double-count rechecks.)
TEST(BackendFactoryTest, QueriesCountedOncePerCall) {
  Scenario S = smallDiamond(3);
  for (const std::string &Name : BackendFactory::instance().names()) {
    std::unique_ptr<CheckerBackend> Checker =
        BackendFactory::instance().create(Name, S);
    ASSERT_NE(Checker, nullptr) << Name;
    FormulaFactory FF;
    SynthResult R = synthesizeUpdate(S, FF, *Checker);
    EXPECT_EQ(Checker->numQueries(), R.Stats.CheckCalls)
        << Name << " miscounts queries";
    EXPECT_GT(Checker->numQueries(), 0u) << Name;
  }
}

TEST(SynthEngineTest, SingleJobSucceedsAndIsCorrect) {
  SynthJob Job;
  Job.Name = "diamond-4";
  Job.S = smallDiamond(4);

  EngineOptions EO;
  EO.NumWorkers = 2;
  SynthEngine Engine(EO);
  BatchReport Rep = Engine.run({Job});
  ASSERT_EQ(Rep.Reports.size(), 1u);
  ASSERT_TRUE(Rep.Reports[0].ok());
  expectCorrectSequence(Job.S, Rep.Reports[0]);
  EXPECT_EQ(Rep.numSucceeded(), 1u);
  EXPECT_GT(Rep.TotalQueries, 0u);
  EXPECT_EQ(Rep.Merged.CheckCalls, Rep.Reports[0].Result.Stats.CheckCalls);
}

// All backends racing over the same instance must agree: every member
// that completes (not cancelled) reports the same feasibility verdict,
// and the winning sequence is correct under the reference checker.
TEST(SynthEngineTest, CrossBackendAgreement) {
  for (uint64_t Seed : {11, 12, 13}) {
    for (PropertyKind Kind :
         {PropertyKind::Reachability, PropertyKind::Waypoint}) {
      SynthJob Job;
      Job.S = smallDiamond(Seed, Kind);
      for (const char *Backend :
           {"incremental", "batch", "symbolic", "hsa", "naive"}) {
        PortfolioMember M;
        M.Backend = Backend;
        Job.Portfolio.push_back(std::move(M));
      }

      SynthEngine Engine;
      BatchReport Rep = Engine.run({Job});
      ASSERT_EQ(Rep.Reports.size(), 1u);
      const SynthReport &R = Rep.Reports[0];
      ASSERT_EQ(R.Members.size(), 5u);
      ASSERT_TRUE(R.ok()) << "diamond scenarios are always feasible";
      expectCorrectSequence(Job.S, R);
      for (const MemberOutcome &O : R.Members) {
        EXPECT_TRUE(O.Error.empty()) << O.Name << ": " << O.Error;
        if (!O.Cancelled) {
          EXPECT_EQ(O.Status, SynthStatus::Success)
              << O.Name << " disagrees on seed " << Seed;
        }
      }
    }
  }
}

// The same batch must yield identical per-job verdicts regardless of how
// many workers execute it, and reports must come back in job order.
TEST(SynthEngineTest, DeterministicAcrossWorkerCounts) {
  std::vector<SynthJob> Jobs;
  for (uint64_t Seed = 20; Seed != 26; ++Seed) {
    SynthJob Job;
    Job.Name = "diamond-" + std::to_string(Seed);
    Job.S = smallDiamond(Seed);
    Jobs.push_back(std::move(Job));
  }
  // Two jobs where switch granularity is infeasible.
  for (uint64_t Seed : {9, 31}) {
    SynthJob Job;
    Job.Name = "double-diamond-" + std::to_string(Seed);
    Job.S = doubleDiamond(Seed);
    Jobs.push_back(std::move(Job));
  }

  std::vector<std::vector<SynthStatus>> PerWorkerVerdicts;
  for (unsigned Workers : {1u, 4u}) {
    EngineOptions EO;
    EO.NumWorkers = Workers;
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run(Jobs);
    ASSERT_EQ(Rep.Reports.size(), Jobs.size());
    std::vector<SynthStatus> Verdicts;
    for (size_t I = 0; I != Rep.Reports.size(); ++I) {
      EXPECT_EQ(Rep.Reports[I].JobIndex, I) << "reports out of job order";
      Verdicts.push_back(Rep.Reports[I].Result.Status);
    }
    PerWorkerVerdicts.push_back(std::move(Verdicts));
  }
  EXPECT_EQ(PerWorkerVerdicts[0], PerWorkerVerdicts[1])
      << "worker count changed a verdict";
}

// Portfolio mode must agree with single-config runs: its verdict equals
// the best verdict any member achieves alone. On the Fig. 8(h) instance
// the switch-granularity member alone proves Impossible while the
// rule-granularity member succeeds — the portfolio must return Success.
TEST(SynthEngineTest, PortfolioAgreesWithSingleConfigRuns) {
  Scenario S = doubleDiamond(9);

  SynthOptions SwitchGran;
  SynthOptions RuleGran;
  RuleGran.RuleGranularity = true;

  // Single-config runs.
  std::vector<SynthStatus> Alone;
  for (const SynthOptions &O : {SwitchGran, RuleGran}) {
    SynthJob Job;
    Job.S = S;
    PortfolioMember M;
    M.Opts = O;
    Job.Portfolio.push_back(std::move(M));
    SynthEngine Engine;
    BatchReport Rep = Engine.run({Job});
    Alone.push_back(Rep.Reports[0].Result.Status);
  }
  EXPECT_EQ(Alone[0], SynthStatus::Impossible)
      << "double diamond should be switch-granularity infeasible";
  EXPECT_EQ(Alone[1], SynthStatus::Success);

  // The racing portfolio: must succeed via the rule-granularity member.
  SynthJob Job;
  Job.S = S;
  Job.Portfolio = defaultPortfolio();
  SynthEngine Engine;
  BatchReport Rep = Engine.run({Job});
  const SynthReport &R = Rep.Reports[0];
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Winner, "incremental/rule");
  expectCorrectSequence(S, R);
}

// A batch containing duplicate scenarios must report engine-cache hits
// and perform fewer queries than the same batch with caching disabled,
// while returning identical per-job verdicts and command sequences.
TEST(SynthEngineTest, DuplicateScenariosServedFromResultCache) {
  std::vector<SynthJob> Jobs;
  for (uint64_t Seed : {50, 51, 52}) {
    SynthJob Job;
    Job.Name = "diamond-" + std::to_string(Seed);
    Job.S = smallDiamond(Seed);
    Jobs.push_back(Job);
    // A digest-identical duplicate under a different display name.
    Job.Name += "-dup";
    Jobs.push_back(std::move(Job));
  }

  EngineOptions Cold;
  Cold.NumWorkers = 2;
  Cold.CacheResults = false;
  SynthEngine ColdEngine(Cold);
  BatchReport ColdRep = ColdEngine.run(Jobs);
  EXPECT_EQ(ColdRep.EngineCacheHits, 0u);

  EngineOptions Warm;
  Warm.NumWorkers = 1; // Deterministic execution order: dup follows prime.
  SynthEngine WarmEngine(Warm);
  BatchReport WarmRep = WarmEngine.run(Jobs);

  EXPECT_EQ(WarmRep.EngineCacheHits, 3u);
  EXPECT_EQ(WarmRep.EngineCacheMisses, 3u);
  EXPECT_LT(WarmRep.TotalQueries, ColdRep.TotalQueries);

  ASSERT_EQ(WarmRep.Reports.size(), ColdRep.Reports.size());
  for (size_t I = 0; I != WarmRep.Reports.size(); ++I) {
    const SynthReport &W = WarmRep.Reports[I];
    const SynthReport &C = ColdRep.Reports[I];
    EXPECT_EQ(W.Result.Status, C.Result.Status) << "job " << I;
    EXPECT_EQ(W.Result.Commands.size(), C.Result.Commands.size())
        << "job " << I;
    EXPECT_EQ(W.JobName, Jobs[I].Name);
    if (W.FromCache) {
      EXPECT_TRUE(W.Members.empty());
    }
    if (W.ok())
      expectCorrectSequence(Jobs[I].S, W);
  }

  // The cache persists across run() calls on the same engine: replaying
  // the batch is all hits.
  BatchReport Replay = WarmEngine.run(Jobs);
  EXPECT_EQ(Replay.EngineCacheHits, Jobs.size());
  EXPECT_EQ(Replay.TotalQueries, 0u);
  EXPECT_GT(WarmEngine.resultCache()->stats().Hits, 0u);
}

// The checkers assume no rule rewrites a tracked class's header (§3.3).
// A job that breaks the assumption is refused before any member runs: in
// an NDEBUG build the Kripke encoding would otherwise check a different
// network, and in a Debug build its assertion would fire.
TEST(SynthEngineTest, HeaderRewritingJobIsAnError) {
  Scenario S = smallDiamond(70);
  const TrafficClass &C = S.Flows[0].Class;
  SwitchId Sw = S.Flows[0].FinalPath[1];
  const Table Original = S.Final.table(Sw);
  std::vector<Rule> Rules = Original.rules();
  ASSERT_FALSE(Rules.empty());
  Rules[0].Actions.insert(
      Rules[0].Actions.begin(),
      Action::setField(Field::Typ, C.Hdr.get(Field::Typ) + 1));
  S.Final.setTable(Sw, Table(Rules));

  SynthJob Job;
  Job.S = S;
  Job.Portfolio = defaultPortfolio(SynthOptions());
  SynthEngine Engine(EngineOptions{});
  for (unsigned Round = 0; Round != 2; ++Round) {
    BatchReport Rep = Engine.run({Job});
    const SynthReport &R = Rep.Reports[0];
    EXPECT_EQ(R.Result.Status, SynthStatus::Aborted);
    EXPECT_TRUE(R.Result.Commands.empty());
    EXPECT_FALSE(R.FromCache) << "an error verdict was replayed";
    EXPECT_EQ(Rep.TotalQueries, 0u);
    ASSERT_EQ(R.Members.size(), 3u);
    for (const MemberOutcome &O : R.Members)
      EXPECT_NE(O.Error.find("rewrites the header"), std::string::npos)
          << O.Name << ": '" << O.Error << "'";
  }

  // Restoring the table makes the same job an ordinary success.
  Job.S.Final.setTable(Sw, Original);
  EXPECT_EQ(Engine.run({Job}).Reports[0].Result.Status, SynthStatus::Success);
}

// An unknown backend is an error, not a verdict.
TEST(SynthEngineTest, UnknownBackendIsAnError) {
  SynthJob Job;
  Job.S = smallDiamond(71);
  PortfolioMember M;
  M.Backend = "no-such-backend";
  Job.Portfolio.push_back(std::move(M));
  SynthEngine Engine(EngineOptions{});
  BatchReport Rep = Engine.run({Job});
  EXPECT_EQ(Rep.Reports[0].Result.Status, SynthStatus::Aborted);
  EXPECT_FALSE(Rep.Reports[0].Members[0].Error.empty());
}

// memo:<backend> must agree with <backend> on the verdict for every
// backend in the registry when raced by the engine.
TEST(SynthEngineTest, MemoBackendsAgreeWithPlainOnes) {
  MemoizingChecker::processCache()->clear();
  for (uint64_t Seed : {60, 61}) {
    Scenario S = smallDiamond(Seed);
    for (const std::string &Name : BackendFactory::instance().names()) {
      SynthStatus Verdicts[2];
      for (unsigned Memo = 0; Memo != 2; ++Memo) {
        SynthJob Job;
        Job.S = S;
        PortfolioMember M;
        M.Backend = Memo ? "memo:" + Name : Name;
        Job.Portfolio.push_back(std::move(M));
        EngineOptions EO;
        EO.NumWorkers = 1;
        SynthEngine Engine(EO);
        BatchReport Rep = Engine.run({Job});
        EXPECT_TRUE(Rep.Reports[0].Members[0].Error.empty())
            << Rep.Reports[0].Members[0].Error;
        Verdicts[Memo] = Rep.Reports[0].Result.Status;
        if (Memo) {
          // Cache-hit/miss counters surface in the merged batch stats.
          EXPECT_GT(Rep.Merged.CacheHits + Rep.Merged.CacheMisses, 0u)
              << Name;
        }
      }
      EXPECT_EQ(Verdicts[0], Verdicts[1]) << Name << " seed " << Seed;
    }
  }
}

namespace {

/// A backend that blocks in bind() until released — gives the async
/// tests deterministic control over when a job occupies a worker.
class GateChecker : public CheckerBackend {
public:
  explicit GateChecker(std::shared_ptr<std::atomic<bool>> Open)
      : Open(std::move(Open)) {}

  CheckResult bindImpl(KripkeStructure &, Formula) override {
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
    R.Holds = true; // Accept everything: the search succeeds immediately.
    return R;
  }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return false; }
  const char *name() const override { return "Gate"; }

private:
  std::shared_ptr<std::atomic<bool>> Open;
};

} // namespace

// Async front-end: submit returns immediately, poll observes completion,
// wait returns the report, and handles outlive batches.
TEST(SynthEngineTest, AsyncSubmitPollWait) {
  auto Open = std::make_shared<std::atomic<bool>>(false);
  BackendFactory::instance().registerBackend(
      "gate-async", [Open](const Scenario &) {
        return std::make_unique<GateChecker>(Open);
      });

  EngineOptions EO;
  EO.NumWorkers = 1;
  SynthEngine Engine(EO);

  SynthJob Gated;
  Gated.Name = "gated";
  Gated.S = smallDiamond(70);
  Gated.Portfolio.emplace_back();
  Gated.Portfolio[0].Backend = "gate-async";

  SynthJob Plain;
  Plain.Name = "plain";
  Plain.S = smallDiamond(71);

  JobHandle GatedHandle = Engine.submit(Gated);
  JobHandle PlainHandle = Engine.submit(Plain);
  ASSERT_TRUE(GatedHandle.valid());
  ASSERT_TRUE(PlainHandle.valid());
  EXPECT_FALSE(JobHandle().valid());

  // One worker, blocked in the gate: nothing can be done yet.
  EXPECT_FALSE(GatedHandle.done());
  EXPECT_FALSE(PlainHandle.done());

  Open->store(true);
  const SynthReport &GatedRep = GatedHandle.wait();
  EXPECT_EQ(GatedRep.Result.Status, SynthStatus::Success);
  EXPECT_EQ(GatedRep.JobName, "gated");
  const SynthReport &PlainRep = PlainHandle.wait();
  EXPECT_EQ(PlainRep.Result.Status, SynthStatus::Success);
  EXPECT_TRUE(GatedHandle.done());
  // The report carries the job's own timings: the plain job waited in
  // the queue behind the gated one, then ran.
  EXPECT_GT(PlainRep.QueueSeconds, 0.0);
  EXPECT_GT(PlainRep.Seconds, 0.0);
}

// Cancellation semantics: a queued job cancelled before a worker reaches
// it aborts without running; a running job aborts at its next
// checkpoint; cancelling a finished job is a no-op.
TEST(SynthEngineTest, AsyncCancelQueuedAndRunningJobs) {
  auto Open = std::make_shared<std::atomic<bool>>(false);
  BackendFactory::instance().registerBackend(
      "gate-cancel", [Open](const Scenario &) {
        return std::make_unique<GateChecker>(Open);
      });

  EngineOptions EO;
  EO.NumWorkers = 1;
  SynthEngine Engine(EO);

  SynthJob Running;
  Running.Name = "running";
  Running.S = smallDiamond(72);
  Running.Portfolio.emplace_back();
  Running.Portfolio[0].Backend = "gate-cancel";

  SynthJob Queued;
  Queued.Name = "queued";
  Queued.S = smallDiamond(73);

  JobHandle RunningHandle = Engine.submit(Running);
  JobHandle QueuedHandle = Engine.submit(Queued);

  // Cancel both while the single worker is blocked inside the first.
  QueuedHandle.cancel();
  RunningHandle.cancel();
  Open->store(true);

  // The running job passes its post-bind stop checkpoint and aborts; the
  // queued job is reported aborted without ever running.
  EXPECT_EQ(RunningHandle.wait().Result.Status, SynthStatus::Aborted);
  const SynthReport &QueuedRep = QueuedHandle.wait();
  EXPECT_EQ(QueuedRep.Result.Status, SynthStatus::Aborted);
  EXPECT_TRUE(QueuedRep.Members.empty()) << "cancelled before running";
  EXPECT_FALSE(QueuedRep.FromCache);
  QueuedHandle.cancel(); // No-op on a finished job.

  // An aborted job must not poison the result cache: resubmitting the
  // same scenario (uncancelled) runs it for real.
  JobHandle Retry = Engine.submit(Queued);
  EXPECT_EQ(Retry.wait().Result.Status, SynthStatus::Success);
  EXPECT_FALSE(Retry.wait().FromCache);
}

// --- Zoo scale --------------------------------------------------------------

namespace {

/// A 40-region WAN (16 PoPs per region on average): past 500 switches,
/// like the k=24 fat-tree.
Topology zooWan() {
  WanParams WP;
  WP.Regions = 40;
  Rng R(4207);
  return buildWan(WP, R);
}

} // namespace

// The fuzzer's families stay small; this is where the same builders must
// emit 500+-switch fabrics whose 2-flow diamond updates synthesize end to
// end. A fabric below the floor, a diamond that cannot be grown, or a job
// that does not succeed means a generator or the search regressed.
TEST(ZooScaleTest, TwoFlowDiamondsSynthesizeOnLargeFabrics) {
  DiamondOptions DO;
  DO.NumFlows = 2;
  for (const Topology &Topo : {buildFatTree(24), zooWan()}) {
    ASSERT_GE(Topo.numSwitches(), 500u);
    Rng R(4208);
    std::vector<SynthJob> Jobs(4);
    for (SynthJob &Job : Jobs) {
      std::optional<Scenario> S = makeDiamondScenarioRetrying(
          Topo, R, PropertyKind::Reachability, DO);
      ASSERT_TRUE(S.has_value())
          << "no 2-flow diamond on " << Topo.numSwitches() << " switches";
      Job.S = std::move(*S);
    }
    EngineOptions EO;
    EO.NumWorkers = 2;
    EO.CacheResults = false;
    EO.SharedLearning = false;
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run(Jobs);
    EXPECT_EQ(Rep.numSucceeded(), Jobs.size())
        << "on " << Topo.numSwitches() << " switches";
  }
}

// Rolling maintenance at WAN scale: flows flip between two branches, so
// step scenarios recur. Through one worker (two digest-identical jobs
// running at once could both miss) every step must succeed, and every
// repeat of an earlier digest must be a result-cache hit.
TEST(ZooScaleTest, WanChurnStreamHitsTheResultCache) {
  Topology Wan = zooWan();
  ASSERT_GE(Wan.numSwitches(), 500u);
  Rng R(4209);
  ChurnOptions CO;
  CO.NumFlows = 2;
  CO.Steps = 8;
  std::optional<ChurnTrace> Trace = makeChurnTrace(Wan, R, CO);
  ASSERT_TRUE(Trace.has_value());

  std::vector<SynthJob> Jobs;
  std::vector<Digest> Distinct;
  for (const Scenario &Step : Trace->Steps) {
    Digest D = digestOf(Step);
    if (std::find(Distinct.begin(), Distinct.end(), D) == Distinct.end())
      Distinct.push_back(D);
    SynthJob Job;
    Job.S = Step;
    Jobs.push_back(std::move(Job));
  }
  uint64_t Floor = Jobs.size() - Distinct.size();
  ASSERT_GT(Floor, 0u) << "the trace repeats no step; the floor is vacuous";

  EngineOptions EO;
  EO.NumWorkers = 1;
  EO.CacheResults = true;
  EO.SharedLearning = false;
  SynthEngine Engine(EO);
  BatchReport Rep = Engine.run(Jobs);
  EXPECT_EQ(Rep.numSucceeded(), Jobs.size());
  EXPECT_GE(Rep.EngineCacheHits, Floor);
}

TEST(StopTokenTest, Basics) {
  StopToken Empty;
  EXPECT_FALSE(Empty.possible());
  EXPECT_FALSE(Empty.stopRequested());

  StopSource Src;
  StopToken T = Src.token();
  EXPECT_TRUE(T.possible());
  EXPECT_FALSE(T.stopRequested());

  StopToken Merged = anyToken(Empty, T);
  StopSource Other;
  StopToken Wide = anyToken(Merged, Other.token());
  EXPECT_FALSE(Wide.stopRequested());
  Src.requestStop();
  EXPECT_TRUE(T.stopRequested());
  EXPECT_TRUE(Merged.stopRequested());
  EXPECT_TRUE(Wide.stopRequested());
  EXPECT_FALSE(Other.stopRequested());
}
