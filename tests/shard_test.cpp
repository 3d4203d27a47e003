//===- tests/shard_test.cpp - sharded-search tests -------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the prefix-split sharded DFS (SynthOptions::Shards):
/// verdict/sequence-class agreement with the sequential search across
/// the whole backend registry, graceful degradation without a checker
/// factory, sibling-shard cancellation on the first found sequence,
/// per-shard statistics merging, the engine's IntraJobShards default,
/// and the per-thread shard crew that runs the extra shards.
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "mc/BackendFactory.h"
#include "mc/LabelingChecker.h"
#include "synth/OrderUpdate.h"
#include "topo/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#ifdef __linux__
#include <dirent.h>
#include <set>
#include <sys/syscall.h>
#include <unistd.h>
#endif

using namespace netupd;
using namespace netupd::testutil;

namespace {

/// Replay-checks a successful result: every intermediate configuration
/// satisfies the property, and the end configuration is semantically the
/// final one — the "same sequence class" notion the sharded search
/// guarantees (the exact sequence may differ run to run).
void expectCorrectSequence(const Scenario &S, const SynthResult &Res) {
  FormulaFactory FF;
  Formula Phi = S.buildProperty(FF);
  EXPECT_TRUE(allIntermediateConfigsHold(S.Topo, S.Initial, S.classes(), Phi,
                                         Res.Commands))
      << "sharded search produced an unsafe sequence";
  Config Cur = S.Initial;
  applyCommands(Cur, Res.Commands);
  for (SwitchId Sw : diffSwitches(Cur, S.Final))
    for (const TrafficClass &C : S.classes())
      for (PortId Pt : S.Topo.switchPorts(Sw))
        EXPECT_EQ(Cur.table(Sw).apply(C.Hdr, Pt),
                  S.Final.table(Sw).apply(C.Hdr, Pt))
            << "sequence does not reach the final configuration";
}

/// Runs one backend over \p S sequentially and with \p Shards shards
/// (portfolio-disabled: a single-member job) and returns both statuses.
std::pair<SynthStatus, SynthStatus>
runBothWays(const Scenario &S, const std::string &Backend, unsigned Shards,
            bool RuleGranularity = false) {
  SynthStatus Out[2] = {SynthStatus::Aborted, SynthStatus::Aborted};
  for (unsigned Sharded = 0; Sharded != 2; ++Sharded) {
    SynthJob Job;
    Job.S = S;
    PortfolioMember M;
    M.Backend = Backend;
    M.Opts.RuleGranularity = RuleGranularity;
    M.Opts.Shards = Sharded ? Shards : 1;
    Job.Portfolio.push_back(std::move(M));

    EngineOptions EO;
    EO.NumWorkers = 1;
    EO.CacheResults = false; // Compare real runs, not cached replays.
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run({Job});
    const SynthReport &R = Rep.Reports[0];
    EXPECT_TRUE(R.Members[0].Error.empty()) << R.Members[0].Error;
    Out[Sharded] = R.Result.Status;
    if (R.ok())
      expectCorrectSequence(S, R.Result);
  }
  return {Out[0], Out[1]};
}

} // namespace

// Acceptance: with shards > 1 on a portfolio-disabled job, every
// registered backend returns the same verdict (and a correct sequence of
// the same class) as the sequential search.
TEST(ShardedSearchTest, MatchesSequentialAcrossBackendRegistry) {
  Scenario S = diamondWithUpdates(100, 4);
  for (const std::string &Name : BackendFactory::instance().names()) {
    auto [Seq, Sharded] = runBothWays(S, Name, 4);
    EXPECT_EQ(Seq, SynthStatus::Success) << Name;
    EXPECT_EQ(Seq, Sharded) << Name << ": shard count changed the verdict";
  }
  // The memoizing decorator composes with sharding: every shard owns a
  // private decorator over the shared check cache.
  auto [Seq, Sharded] = runBothWays(S, "memo:incremental", 4);
  EXPECT_EQ(Seq, SynthStatus::Success);
  EXPECT_EQ(Seq, Sharded);
}

// Infeasibility verdicts must also be scheduling-independent: the
// switch-granularity double diamond proves Impossible under any shard
// count, and the rule-granularity search still succeeds.
TEST(ShardedSearchTest, InfeasibleVerdictsSurviveSharding) {
  Scenario S = doubleDiamond(9);
  for (const char *Backend : {"incremental", "batch"}) {
    auto [Seq, Sharded] = runBothWays(S, Backend, 3);
    EXPECT_EQ(Seq, SynthStatus::Impossible) << Backend;
    EXPECT_EQ(Seq, Sharded) << Backend;
  }
  auto [Seq, Sharded] =
      runBothWays(S, "incremental", 3, /*RuleGranularity=*/true);
  EXPECT_EQ(Seq, SynthStatus::Success);
  EXPECT_EQ(Seq, Sharded);
}

// Shards > 1 without a ShardCheckerFactory must degrade to the classic
// sequential search, not fail.
TEST(ShardedSearchTest, NoFactoryDegradesToSequential) {
  Scenario S = diamondWithUpdates(200, 3);
  LabelingChecker Checker(LabelingChecker::Mode::Incremental);
  FormulaFactory FF;
  SynthOptions Opts;
  Opts.Shards = 8; // No factory set.
  SynthResult Res = synthesizeUpdate(S, FF, Checker, Opts);
  ASSERT_EQ(Res.Status, SynthStatus::Success);
  expectCorrectSequence(S, Res);
  EXPECT_EQ(Res.Stats.CheckCalls, Checker.numQueries())
      << "sequential degradation must keep single-checker accounting";
}

namespace {

/// A checker that accepts every configuration, optionally blocking each
/// call until a shared gate opens; used to control shard interleavings
/// deterministically.
class GatedAcceptAll : public CheckerBackend {
public:
  GatedAcceptAll(std::shared_ptr<std::atomic<bool>> Gate,
                 std::shared_ptr<std::atomic<unsigned>> Count)
      : Gate(std::move(Gate)), Count(std::move(Count)) {}

  CheckResult bindImpl(KripkeStructure &, Formula) override { return serve(); }
  CheckResult recheckImpl(const UpdateInfo &) override {
    return serve();
  }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return false; }
  const char *name() const override { return "GatedAcceptAll"; }

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

// The Found token: the first shard to complete a sequence cancels its
// siblings. The siblings here are parked behind a gate inside bind();
// once released — after the primary shard has already won — they must
// observe the cancellation and stop without pulling a single work unit.
TEST(ShardedSearchTest, WinnerCancelsSiblingShards) {
  Scenario S = diamondWithUpdates(300, 6);
  unsigned NumOps = numUpdatingSwitches(S);
  ASSERT_GE(NumOps, 6u);

  auto Gate = std::make_shared<std::atomic<bool>>(false);
  auto PrimaryCount = std::make_shared<std::atomic<unsigned>>(0);

  std::mutex SiblingM;
  std::vector<std::shared_ptr<std::atomic<unsigned>>> SiblingCounts;

  GatedAcceptAll Primary(nullptr, PrimaryCount);
  SynthOptions Opts;
  Opts.Shards = 3;
  Opts.WaitRemoval = false; // Keep the command count exactly NumOps.
  Opts.ShardCheckerFactory = [&]() -> std::unique_ptr<CheckerBackend> {
    auto Count = std::make_shared<std::atomic<unsigned>>(0);
    {
      std::lock_guard<std::mutex> Lock(SiblingM);
      SiblingCounts.push_back(Count);
    }
    return std::make_unique<GatedAcceptAll>(Gate, Count);
  };

  SynthResult Res;
  std::thread Runner([&] {
    FormulaFactory FF;
    Res = synthesizeUpdate(S, FF, Primary, Opts);
  });

  // The ungated primary accepts everything: its first unit dives straight
  // to a full sequence in bind + NumOps queries, then records the win.
  for (unsigned I = 0; I != 10000 && PrimaryCount->load() < NumOps + 1; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  bool PrimaryFinished = PrimaryCount->load() == NumOps + 1;
  if (PrimaryFinished) {
    // Give the win ample time to propagate to the Found token before
    // releasing the parked siblings.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  // Open the gate and join before any assertion can exit the test body:
  // returning with Runner joinable would std::terminate the process.
  Gate->store(true);
  Runner.join();
  ASSERT_TRUE(PrimaryFinished) << "primary did not finish in time";

  ASSERT_EQ(Res.Status, SynthStatus::Success);
  unsigned Updates = 0;
  for (const Command &C : Res.Commands)
    Updates += C.K == Command::Kind::Update;
  EXPECT_EQ(Updates, NumOps);

  ASSERT_EQ(SiblingCounts.size(), 2u) << "expected Shards - 1 factory calls";
  for (const auto &Count : SiblingCounts) {
    // One gated bind each; at most one stray recheck if a sibling
    // squeezed a unit in before the cancellation became visible.
    EXPECT_LE(Count->load(), 2u)
        << "sibling shard kept searching after the race was decided";
  }
  // Every checker's work is accounted: primary + both siblings.
  uint64_t Expected = PrimaryCount->load();
  for (const auto &Count : SiblingCounts)
    Expected += Count->load();
  EXPECT_EQ(Res.Stats.BackendQueries, Expected);
  EXPECT_EQ(Res.Stats.CheckCalls, Expected)
      << "plain backends serve every search query themselves";
}

namespace {

/// Forwards to a real checker while counting calls into a shared total;
/// lets the merge test compare search-side and backend-side accounting
/// across shard instances whose lifetimes end inside the search.
class CountingProxy : public CheckerBackend {
public:
  CountingProxy(std::unique_ptr<CheckerBackend> Inner,
                std::shared_ptr<std::atomic<uint64_t>> Total)
      : Inner(std::move(Inner)), Total(std::move(Total)) {}

  CheckResult bindImpl(KripkeStructure &K, Formula Phi) override {
    ++Queries;
    Total->fetch_add(1);
    return Inner->bind(K, Phi);
  }
  CheckResult recheckImpl(const UpdateInfo &U) override {
    ++Queries;
    Total->fetch_add(1);
    return Inner->recheckAfterUpdate(U);
  }
  void notifyRollback() override { Inner->notifyRollback(); }
  bool providesCounterexamples() const override {
    return Inner->providesCounterexamples();
  }
  const char *name() const override { return "CountingProxy"; }

private:
  std::unique_ptr<CheckerBackend> Inner;
  std::shared_ptr<std::atomic<uint64_t>> Total;
};

} // namespace

// Per-shard SynthStats flow through mergeFrom into one result: the
// search-side CheckCalls total must equal the calls every checker
// instance actually served (each shard's bind included), and
// BackendQueries must agree for plain (non-memoizing) backends.
TEST(ShardedSearchTest, ShardStatsMergeAccounting) {
  Scenario S = diamondWithUpdates(400, 5);
  auto Total = std::make_shared<std::atomic<uint64_t>>(0);
  std::atomic<unsigned> Instances{0};

  CountingProxy Primary(
      std::make_unique<LabelingChecker>(LabelingChecker::Mode::Incremental),
      Total);
  SynthOptions Opts;
  Opts.Shards = 4;
  Opts.ShardCheckerFactory = [&]() -> std::unique_ptr<CheckerBackend> {
    Instances.fetch_add(1);
    return std::make_unique<CountingProxy>(
        std::make_unique<LabelingChecker>(LabelingChecker::Mode::Incremental),
        Total);
  };

  FormulaFactory FF;
  SynthResult Res = synthesizeUpdate(S, FF, Primary, Opts);
  ASSERT_EQ(Res.Status, SynthStatus::Success);
  expectCorrectSequence(S, Res);

  EXPECT_EQ(Instances.load(), 3u) << "one factory call per extra shard";
  EXPECT_EQ(Res.Stats.CheckCalls, Total->load())
      << "merged CheckCalls must count every shard's queries";
  EXPECT_EQ(Res.Stats.BackendQueries, Total->load());
  EXPECT_GE(Res.Stats.CheckCalls, 4u) << "every shard binds once";
}

// EngineOptions::IntraJobShards applies sharding to members that didn't
// choose, through the engine's own factory wiring — and must preserve
// the verdict.
TEST(ShardedSearchTest, EngineDefaultShardsMatchesUnsharded) {
  Scenario S = diamondWithUpdates(500, 4);
  SynthStatus Verdicts[2];
  for (unsigned Sharded = 0; Sharded != 2; ++Sharded) {
    SynthJob Job;
    Job.S = S; // Empty portfolio: the default incremental member.
    EngineOptions EO;
    EO.NumWorkers = 1;
    EO.CacheResults = false;
    EO.IntraJobShards = Sharded ? 4 : 0;
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run({Job});
    Verdicts[Sharded] = Rep.Reports[0].Result.Status;
    ASSERT_TRUE(Rep.Reports[0].ok());
    expectCorrectSequence(S, Rep.Reports[0].Result);
    EXPECT_GT(Rep.TotalQueries, 0u);
  }
  EXPECT_EQ(Verdicts[0], Verdicts[1]);
}

// An explicit Shards = 1 pins the sequential search even under an
// engine-wide IntraJobShards default; only unset (0) members pick the
// default up. Observable through the backend factory: sharded runs
// instantiate extra per-shard checkers, sequential runs exactly one.
TEST(ShardedSearchTest, ExplicitSequentialMemberResistsEngineDefault) {
  Scenario S = diamondWithUpdates(800, 4);
  auto Instances = std::make_shared<std::atomic<unsigned>>(0);
  BackendFactory::instance().registerBackend(
      "counting-incremental", [Instances](const Scenario &) {
        Instances->fetch_add(1);
        return std::make_unique<LabelingChecker>(
            LabelingChecker::Mode::Incremental);
      });

  for (unsigned ExplicitOne : {1u, 0u}) {
    Instances->store(0);
    SynthJob Job;
    Job.S = S;
    PortfolioMember M;
    M.Backend = "counting-incremental";
    M.Opts.Shards = ExplicitOne; // 1: pinned sequential; 0: unset.
    Job.Portfolio.push_back(std::move(M));

    EngineOptions EO;
    EO.NumWorkers = 1;
    EO.CacheResults = false;
    EO.IntraJobShards = 4;
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run({Job});
    ASSERT_TRUE(Rep.Reports[0].ok());
    if (ExplicitOne)
      EXPECT_EQ(Instances->load(), 1u)
          << "explicit Shards = 1 must suppress the engine default";
    else
      EXPECT_GE(Instances->load(), 2u)
          << "unset Shards must pick up IntraJobShards";
  }
}

namespace {

/// Binds cleanly but rejects every update, with rechecks parked behind a
/// gate — holds the search mid-unit so a cancellation can be fired at a
/// controlled point.
class GatedRejectAll : public CheckerBackend {
public:
  GatedRejectAll(std::shared_ptr<std::atomic<bool>> Gate)
      : Gate(std::move(Gate)) {}

  CheckResult bindImpl(KripkeStructure &, Formula) override {
    ++Queries;
    CheckResult R;
    R.Holds = true;
    return R;
  }
  CheckResult recheckImpl(const UpdateInfo &) override {
    while (!Gate->load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++Queries;
    CheckResult R;
    R.Holds = false;
    return R;
  }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return false; }
  const char *name() const override { return "GatedRejectAll"; }

private:
  std::shared_ptr<std::atomic<bool>> Gate;
};

} // namespace

// A cancellation observed between work units must surface as Aborted —
// never as Impossible, which downstream consumers treat as a definitive
// infeasibility proof. (Regression test: the unit loop used to return on
// a stop without recording it, and the verdict assembly then mistook the
// unexplored units for an exhausted search.)
TEST(ShardedSearchTest, CancellationBetweenUnitsReportsAborted) {
  Scenario S = diamondWithUpdates(700, 3);
  auto Gate = std::make_shared<std::atomic<bool>>(false);
  GatedRejectAll Checker(Gate);
  StopSource Stop;
  SynthOptions Opts;
  Opts.Stop = Stop.token(); // Shards = 1: the sequential path is the one
                            // that historically mislabelled this.

  SynthResult Res;
  std::thread Runner([&] {
    FormulaFactory FF;
    Res = synthesizeUpdate(S, FF, Checker, Opts);
  });
  // Let the search park inside its first recheck, then cancel and
  // release it. Wherever the stop lands — before the first unit or
  // between units — the verdict must be Aborted.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Stop.requestStop();
  Gate->store(true);
  Runner.join();

  EXPECT_EQ(Res.Status, SynthStatus::Aborted)
      << "a cancelled search must never claim an impossibility proof";
  EXPECT_TRUE(Res.Commands.empty());
}

// A stop fired before the search starts aborts a sharded run exactly as
// it does a sequential one.
TEST(ShardedSearchTest, PreFiredStopAbortsShardedRun) {
  Scenario S = diamondWithUpdates(600, 3);
  StopSource Stop;
  Stop.requestStop();
  LabelingChecker Checker(LabelingChecker::Mode::Incremental);
  FormulaFactory FF;
  SynthOptions Opts;
  Opts.Shards = 4;
  Opts.Stop = Stop.token();
  Opts.ShardCheckerFactory = []() -> std::unique_ptr<CheckerBackend> {
    return std::make_unique<LabelingChecker>(
        LabelingChecker::Mode::Incremental);
  };
  SynthResult Res = synthesizeUpdate(S, FF, Checker, Opts);
  EXPECT_EQ(Res.Status, SynthStatus::Aborted);
  EXPECT_TRUE(Res.Commands.empty());
  EXPECT_TRUE(Res.Stats.Interrupted)
      << "a stop that fires before the search starts is an external abort";
}

// The 1-shard twin: the early stop path is shared, so the flag must be
// set without any shard ever observing the token.
TEST(ShardedSearchTest, PreFiredStopAbortsSequentialRun) {
  Scenario S = diamondWithUpdates(600, 3);
  StopSource Stop;
  Stop.requestStop();
  LabelingChecker Checker(LabelingChecker::Mode::Incremental);
  FormulaFactory FF;
  SynthOptions Opts;
  Opts.Shards = 1;
  Opts.Stop = Stop.token();
  SynthResult Res = synthesizeUpdate(S, FF, Checker, Opts);
  EXPECT_EQ(Res.Status, SynthStatus::Aborted);
  EXPECT_TRUE(Res.Commands.empty());
  EXPECT_TRUE(Res.Stats.Interrupted);
  EXPECT_EQ(Res.Stats.ExhaustedUnits, 0u);
}

#ifdef __linux__
namespace {

/// The number of threads in this process, from /proc/self/task.
unsigned numTasks() {
  unsigned N = 0;
  if (DIR *D = opendir("/proc/self/task")) {
    while (dirent *E = readdir(D))
      N += E->d_name[0] != '.';
    closedir(D);
  }
  return N;
}

/// Waits (up to 5 s) for the thread count to fall to \p Expected: a joined
/// thread's task can linger in /proc/self/task for a moment after its
/// join returns. Returns the last count read.
unsigned settledTasks(unsigned Expected) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  unsigned N = numTasks();
  while (N > Expected && std::chrono::steady_clock::now() < Deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    N = numTasks();
  }
  return N;
}

/// Kernel thread ids, logged from several threads at once.
struct TidLog {
  std::mutex M;
  std::set<long> Tids;

  void addCaller() {
    std::lock_guard<std::mutex> Lock(M);
    Tids.insert(static_cast<long>(syscall(SYS_gettid)));
  }

  std::set<long> take() {
    std::lock_guard<std::mutex> Lock(M);
    return std::exchange(Tids, {});
  }
};

/// A direct run of \p S with \p Shards shards on the calling thread.
/// Logs the kernel thread id of every thread that built a shard checker
/// (one per extra shard) into \p ShardTids.
SynthStatus runDirect(const Scenario &S, unsigned Shards, TidLog &ShardTids) {
  LabelingChecker Checker(LabelingChecker::Mode::Incremental);
  FormulaFactory FF;
  SynthOptions Opts;
  Opts.Shards = Shards;
  Opts.ShardCheckerFactory = [&]() -> std::unique_ptr<CheckerBackend> {
    ShardTids.addCaller();
    return std::make_unique<LabelingChecker>(
        LabelingChecker::Mode::Incremental);
  };
  SynthResult Res = synthesizeUpdate(S, FF, Checker, Opts);
  if (Res.Status == SynthStatus::Success)
    expectCorrectSequence(S, Res);
  return Res.Status;
}

/// A three-member portfolio job over \p S on \p Backend: switch and
/// rule granularity, and a second switch-granularity member.
SynthJob threeMemberJob(const Scenario &S, const std::string &Backend) {
  SynthJob Job;
  Job.S = S;
  for (bool Rule : {false, true, false}) {
    PortfolioMember M;
    M.Backend = Backend;
    M.Opts.RuleGranularity = Rule;
    Job.Portfolio.push_back(std::move(M));
  }
  return Job;
}

/// One worker, no result cache and no shedding: every job runs all of
/// its members for real, none is served or shed.
EngineOptions plainOneWorker(unsigned IntraJobShards = 0) {
  EngineOptions EO;
  EO.NumWorkers = 1;
  EO.CacheResults = false;
  EO.SharedLearning = false;
  EO.IntraJobShards = IntraJobShards;
  return EO;
}

} // namespace

// One thread's searches reuse its crew: after the first 4-shard search
// the process holds its crew threads, and neither a narrower nor another
// 4-shard search creates more. Kernel thread ids are not recycled this
// soon, so the later searches' shards must run on the first one's threads.
TEST(CrewTest, SearchesOnOneThreadReuseTheCrew) {
  Scenario S = diamondWithUpdates(100, 4);
  TidLog Log;
  SynthStatus Seq = runDirect(S, 1, Log);
  ASSERT_EQ(Seq, SynthStatus::Success);
  EXPECT_TRUE(Log.take().empty());

  EXPECT_EQ(runDirect(S, 4, Log), Seq);
  std::set<long> First = Log.take();
  EXPECT_EQ(First.size(), 3u);
  unsigned AfterFirst = numTasks();
  EXPECT_EQ(runDirect(S, 2, Log), Seq);
  EXPECT_LE(numTasks(), AfterFirst) << "a 2-shard search grew the crew";
  EXPECT_EQ(runDirect(S, 4, Log), Seq);
  EXPECT_LE(numTasks(), AfterFirst) << "a repeat search grew the crew";
  for (long Tid : Log.take())
    EXPECT_EQ(First.count(Tid), 1u) << "a shard ran on a new thread";
}

// A crew lives as long as its owner thread: once a thread that ran a
// sharded search has exited and been joined, its crew is gone too.
TEST(CrewTest, CrewExitsWithItsOwnerThread) {
  Scenario S = diamondWithUpdates(100, 4);
  unsigned Baseline = numTasks();
  SynthStatus Status = SynthStatus::Aborted;
  TidLog Log;
  std::thread Owner([&] { Status = runDirect(S, 4, Log); });
  Owner.join();
  EXPECT_EQ(Status, SynthStatus::Success);
  EXPECT_EQ(Log.take().size(), 3u);
  EXPECT_LE(settledTasks(Baseline), Baseline)
      << "the owner's crew outlived it";
}

// A worker runs a multi-member job's members as a round on its crew, not
// on threads of their own: the worker (seen running a single-member job
// inline) runs no member itself, and after the first job neither the
// task count grows nor does any member build its checker on a new thread.
TEST(CrewTest, PortfolioMembersReuseTheWorkersCrew) {
  auto Log = std::make_shared<TidLog>();
  BackendFactory::instance().registerBackend(
      "tid-members", [Log](const Scenario &) {
        Log->addCaller();
        return std::make_unique<LabelingChecker>(
            LabelingChecker::Mode::Incremental);
      });
  SynthEngine Engine(plainOneWorker());
  Scenario S = diamondWithUpdates(100, 4);
  SynthJob Single = threeMemberJob(S, "tid-members");
  Single.Portfolio.resize(1);
  EXPECT_TRUE(Engine.submit(Single).wait().ok());
  std::set<long> Worker = Log->take();
  ASSERT_EQ(Worker.size(), 1u);

  SynthReport First = Engine.submit(threeMemberJob(S, "tid-members")).wait();
  EXPECT_EQ(First.Result.Status, SynthStatus::Success);
  std::set<long> CrewTids = Log->take();
  EXPECT_EQ(CrewTids.size(), 3u) << "one crew thread per member";
  EXPECT_EQ(CrewTids.count(*Worker.begin()), 0u) << "the worker ran a member";
  unsigned AfterFirst = numTasks();

  for (unsigned I = 0; I != 4; ++I) {
    SynthReport Rep = Engine.submit(threeMemberJob(S, "tid-members")).wait();
    EXPECT_EQ(Rep.Result.Status, SynthStatus::Success);
    EXPECT_EQ(Rep.Members.size(), 3u);
    EXPECT_LE(numTasks(), AfterFirst) << "job " << I << " grew the crew";
    for (long Tid : Log->take())
      EXPECT_EQ(CrewTids.count(Tid), 1u) << "a member ran on a new thread";
  }
}

// Destroying the engine joins every crew: the workers' member crews and,
// below them, each member thread's shard crew.
TEST(CrewTest, EngineDestructionJoinsEveryCrew) {
  unsigned Baseline = numTasks();
  {
    SynthEngine Engine(plainOneWorker(/*IntraJobShards=*/4));
    Scenario S = diamondWithUpdates(100, 4);
    SynthReport Rep = Engine.submit(threeMemberJob(S, "incremental")).wait();
    EXPECT_EQ(Rep.Result.Status, SynthStatus::Success);
    EXPECT_GT(numTasks(), Baseline + 3) << "no nested crew was started";
  }
  EXPECT_LE(settledTasks(Baseline), Baseline)
      << "a crew outlived its engine";
}

// Nested crews: members on the worker's crew, each member's shards on its
// own crew thread's crew. A 3-member portfolio gives the same job verdict
// at 4 shards as at 1, and every member that was not cancelled by the
// race reaches the same verdict too.
TEST(CrewTest, ShardedPortfolioMatchesOneShard) {
  const Scenario Cases[] = {diamondWithUpdates(100, 4), doubleDiamond(9),
                            deepImpossible()};
  const SynthStatus Expected[] = {SynthStatus::Success, SynthStatus::Success,
                                  SynthStatus::Impossible};
  for (size_t C = 0; C != std::size(Cases); ++C) {
    SynthReport Reps[2];
    for (unsigned Sharded = 0; Sharded != 2; ++Sharded) {
      SynthEngine Engine(plainOneWorker(Sharded ? 4 : 1));
      Reps[Sharded] =
          Engine.submit(threeMemberJob(Cases[C], "incremental")).wait();
      if (Reps[Sharded].ok())
        expectCorrectSequence(Cases[C], Reps[Sharded].Result);
    }
    EXPECT_EQ(Reps[0].Result.Status, Expected[C]) << "case " << C;
    EXPECT_EQ(Reps[1].Result.Status, Expected[C]) << "case " << C;
    ASSERT_EQ(Reps[0].Members.size(), Reps[1].Members.size());
    for (size_t I = 0; I != Reps[0].Members.size(); ++I) {
      const MemberOutcome &One = Reps[0].Members[I], &Four = Reps[1].Members[I];
      EXPECT_TRUE(One.Error.empty() && Four.Error.empty());
      if (!One.Cancelled && !Four.Cancelled) {
        EXPECT_EQ(One.Status, Four.Status) << "case " << C << ", member " << I;
      }
    }
  }
}
#endif // __linux__
