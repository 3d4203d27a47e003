//===- engine/Engine.cpp - Parallel batch-synthesis engine -----*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "kripke/Kripke.h"
#include "mc/BackendFactory.h"
#include "obs/Trace.h"
#include "support/Crew.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cctype>

using namespace netupd;

namespace {

/// Display name for a member that did not set one.
std::string memberDisplayName(const PortfolioMember &M) {
  if (!M.Name.empty())
    return M.Name;
  return M.Backend + (M.Opts.RuleGranularity ? "/rule" : "/switch");
}

/// The members a job actually runs: its portfolio, or the single default
/// member an empty portfolio stands for. digestOf(SynthJob) uses the
/// same normalization so the cache key matches what executes.
std::vector<PortfolioMember> normalizedPortfolio(const SynthJob &Job) {
  std::vector<PortfolioMember> Members = Job.Portfolio;
  if (Members.empty())
    Members.emplace_back(); // Default: incremental, default options.
  return Members;
}

/// Runs one configuration to completion (or cancellation) with a private
/// checker and formula factory over the job's scenario, which it only
/// reads (see the Engine.h isolation note). \p Stop is everything that
/// may cancel the run (race + per-job cancellation + the member's own
/// token); \p RaceStop is only the job-level race, so a member aborted
/// by an external cancellation or its own budget is not mislabelled as
/// a race loser. \p DefaultShards fills in
/// SynthOptions::Shards for members that left it unset (0); an explicit
/// member value — 1 included — always wins (EngineOptions::IntraJobShards).
MemberOutcome runMember(const Scenario &Shared, const PortfolioMember &M,
                        const StopToken &Stop, const StopToken &RaceStop,
                        unsigned DefaultShards) {
  MemberOutcome Out;
  Out.Name = memberDisplayName(M);
  obs::TraceSpan Span("engine.member");

  std::unique_ptr<CheckerBackend> Checker =
      BackendFactory::instance().create(M.Backend, Shared);
  if (!Checker) {
    Out.Error = "unknown backend '" + M.Backend + "'";
    Out.Result.Status = SynthStatus::Aborted;
    return Out;
  }

  SynthOptions Opts = M.Opts;
  Opts.Stop = anyToken(Opts.Stop, Stop);
  if (Opts.Shards == 0 && DefaultShards > 1)
    Opts.Shards = DefaultShards;
  if (Opts.Shards > 1 && !Opts.ShardCheckerFactory) {
    // Each DFS shard needs a private backend over the same scenario; the
    // factory call is thread-safe and the job's scenario outlives the run.
    const Scenario *Scen = &Shared;
    std::string Spec = M.Backend;
    Opts.ShardCheckerFactory = [Scen, Spec] {
      return BackendFactory::instance().create(Spec, *Scen);
    };
  }

  FormulaFactory FF;
  Timer Clock;
  SynthResult Res = synthesizeUpdate(Shared, FF, *Checker, Opts);
  Out.Seconds = Clock.seconds();
  Out.Status = Res.Status;
  Out.Stats = Res.Stats;
  // Real checking work across every checker the member ran — the
  // caller's instance plus any shard-private ones.
  Out.Queries = static_cast<unsigned>(Res.Stats.BackendQueries);
  Out.Cancelled =
      Res.Status == SynthStatus::Aborted && RaceStop.stopRequested();
  // The commands travel back through the outcome only for the winner
  // selection below; losers' (empty) sequences cost nothing.
  Out.Result = std::move(Res);
  return Out;
}

/// The shedding key of a member: Impossible is a fact about the scenario
/// at one granularity, whatever the backend or the other knobs.
Digest impossibleKey(const Digest &ScenarioDigest, bool RuleGranularity) {
  DigestBuilder B;
  B.addDigest(ScenarioDigest);
  B.addBool(RuleGranularity);
  return B.finish();
}

/// Verdict precedence for picking a portfolio winner when several members
/// completed: a found sequence beats every proof, a definitive proof
/// beats an abort, and InitialViolation (the property fails before any
/// update) is the most specific infeasibility verdict.
int statusRank(SynthStatus S) {
  switch (S) {
  case SynthStatus::Success:
    return 3;
  case SynthStatus::InitialViolation:
    return 2;
  case SynthStatus::Impossible:
    return 1;
  case SynthStatus::Aborted:
    return 0;
  }
  return 0;
}

/// True when \p Rep may be replayed to digest-identical jobs. Completed
/// verdicts are cacheable unless an external stop (the Interrupted flag)
/// was observed shaping them. An Aborted verdict is cacheable only in its
/// deterministic shape: every member ran and aborted purely by
/// exhausting its check quota (ExhaustedUnits > 0, no stop observed, no
/// engine-level error) — such verdicts are a pure function of (job,
/// budget), and the budget is part of the digest. Everything else about
/// an abort — cancellation, a member that never ran — reflects the run,
/// not the instance, and must not be replayed.
bool cacheableReport(const SynthReport &Rep) {
  if (Rep.Result.Status != SynthStatus::Aborted)
    return !Rep.Result.Stats.Interrupted;
  if (Rep.Members.empty())
    return false; // Never ran (queued-cancel and shutdown paths don't
                  // reach the store; belt and braces).
  for (const MemberOutcome &O : Rep.Members) {
    if (O.Status != SynthStatus::Aborted || !O.Error.empty())
      return false;
    if (O.Stats.ExhaustedUnits == 0 || O.Stats.Interrupted)
      return false;
  }
  return true;
}

} // namespace

std::vector<PortfolioMember> netupd::defaultPortfolio(SynthOptions Base) {
  std::vector<PortfolioMember> Members;
  PortfolioMember IncrSwitch;
  IncrSwitch.Backend = "incremental";
  IncrSwitch.Opts = Base;
  IncrSwitch.Opts.RuleGranularity = false;
  Members.push_back(std::move(IncrSwitch));

  PortfolioMember IncrRule;
  IncrRule.Backend = "incremental";
  IncrRule.Opts = Base;
  IncrRule.Opts.RuleGranularity = true;
  Members.push_back(std::move(IncrRule));

  PortfolioMember BatchSwitch;
  BatchSwitch.Backend = "batch";
  BatchSwitch.Opts = Base;
  BatchSwitch.Opts.RuleGranularity = false;
  Members.push_back(std::move(BatchSwitch));
  return Members;
}

Digest netupd::digestOf(const SynthJob &Job) {
  DigestBuilder B;
  B.addDigest(digestOf(Job.S));
  std::vector<PortfolioMember> Members = normalizedPortfolio(Job);
  B.addU64(Members.size());
  for (const PortfolioMember &M : Members) {
    // Backend specs are case-insensitive at the factory; canonicalize.
    std::string Spec = M.Backend;
    std::transform(Spec.begin(), Spec.end(), Spec.begin(),
                   [](unsigned char C) {
                     return static_cast<char>(std::tolower(C));
                   });
    B.addString(Spec);
    // Every option that can change the result; display Name, the Stop
    // token and the sharding knobs (Shards, ShardCheckerFactory) are
    // presentation/control/performance, not semantics — any shard count
    // yields an interchangeable result for the same job. The check
    // budgets ARE semantic (they deterministically select the explored
    // prefix set, successful sequences included).
    B.addBool(M.Opts.CexPruning);
    B.addBool(M.Opts.EarlyTermination);
    B.addBool(M.Opts.WaitRemoval);
    B.addBool(M.Opts.RuleGranularity);
    B.addU64(M.Opts.MaxCheckCalls);
    B.addU64(M.Opts.UnitCheckCalls);
  }
  return B.finish();
}

// --- JobHandle --------------------------------------------------------------

bool JobHandle::done() const {
  if (!St)
    return false;
  MutexLock Lock(St->M);
  return St->Done;
}

const SynthReport &JobHandle::wait() const {
  assert(St && "waiting on an invalid handle");
  MutexLock Lock(St->M);
  while (!St->Done)
    St->CV.wait(St->M);
  return St->Rep; // Published by the Done latch; see JobState::Rep.
}

void JobHandle::cancel() {
  if (St)
    St->Cancel.requestStop();
}

// --- SynthEngine ------------------------------------------------------------

SynthEngine::SynthEngine(EngineOptions InitOpts) : Opts(std::move(InitOpts)) {
  Workers = Opts.NumWorkers;
  if (Workers == 0) {
    Workers = std::thread::hardware_concurrency();
    if (Workers == 0)
      Workers = 1;
  }
  Cache = std::make_shared<ResultCache>();
  if (Opts.SharedLearning)
    ImpossibleKeys = std::make_unique<ShardedDigestCache<bool>>(1 << 16);

  Pool.reserve(Workers);
  // Workers spawn lazily in submit(): a 1-job batch costs one thread no
  // matter how wide the machine is.
}

SynthEngine::~SynthEngine() {
  {
    MutexLock Lock(QueueMutex);
    ShuttingDown = true;
  }
  QueueCV.notify_all();
  for (std::thread &T : Pool)
    T.join();

  // Complete whatever never ran so outstanding handles unblock.
  std::deque<std::shared_ptr<detail::JobState>> Orphans;
  {
    MutexLock Lock(QueueMutex);
    Orphans.swap(Queue);
  }
  for (const std::shared_ptr<detail::JobState> &St : Orphans) {
    SynthReport Rep;
    Rep.JobIndex = St->Index;
    Rep.JobName = St->Job.Name;
    Rep.Result.Status = SynthStatus::Aborted;
    {
      MutexLock Lock(St->M);
      St->Rep = std::move(Rep);
      St->Done = true;
    }
    St->CV.notify_all();
  }
}

JobHandle SynthEngine::submit(SynthJob Job) {
  auto St = std::make_shared<detail::JobState>();
  St->Job = std::move(Job);
  bool Rejected = false;
  {
    MutexLock Lock(QueueMutex);
    St->Index = NextIndex++;
    if (ShuttingDown) {
      Rejected = true;
    } else {
      St->EnqueuedNs = obs::nowNs();
      Queue.push_back(St);
      // Grow the pool only when the backlog exceeds the idle workers;
      // see IdleWorkers in Engine.h.
      if (Pool.size() < Workers && Queue.size() > IdleWorkers)
        Pool.emplace_back([this] { workerLoop(); });
    }
  }
  if (Rejected) {
    MutexLock Lock(St->M);
    St->Rep.JobIndex = St->Index;
    St->Rep.JobName = St->Job.Name;
    St->Rep.Result.Status = SynthStatus::Aborted;
    St->Done = true;
  } else {
    QueueCV.notify_one();
  }
  return JobHandle(St);
}

void SynthEngine::workerLoop() {
  for (;;) {
    std::shared_ptr<detail::JobState> St;
    {
      MutexLock Lock(QueueMutex);
      ++IdleWorkers;
      // An explicit loop (not a predicate lambda): the analysis checks
      // these guarded reads against the held QueueMutex, which it cannot
      // do through a closure.
      while (!ShuttingDown && Queue.empty())
        QueueCV.wait(QueueMutex);
      --IdleWorkers;
      if (ShuttingDown)
        return; // Destructor drains what is left.
      St = std::move(Queue.front());
      Queue.pop_front();
    }
    executeJob(*St);
  }
}

void SynthEngine::executeJob(detail::JobState &St) {
  uint64_t QueueNs = St.EnqueuedNs ? obs::nowNs() - St.EnqueuedNs : 0;

  obs::TraceSpan Span("engine.job");
  Timer JobClock;
  StopToken Stop = St.Cancel.token();

  SynthReport Rep;
  Rep.JobIndex = St.Index;
  Rep.JobName = St.Job.Name;

  if (Stop.stopRequested()) {
    // Cancelled while queued: report without running (and without
    // touching the cache — an aborted job says nothing about the
    // instance).
    Rep.Result.Status = SynthStatus::Aborted;
  } else if (Opts.CacheResults) {
    Digest Key = digestOf(St.Job);
    if (std::optional<CachedJobResult> Hit = Cache->lookup(Key)) {
      assert((Hit->Result.Status != SynthStatus::Aborted ||
              Hit->Result.Stats.ExhaustedUnits > 0) &&
             "non-budget aborted result found in the cache");
      Rep.Result = std::move(Hit->Result);
      Rep.Winner = std::move(Hit->Winner);
      Rep.FromCache = true;
      Rep.Seconds = JobClock.seconds();
    } else {
      Rep = runOneJob(St.Job, St.Index, Stop);
      // The one store site, and the invariant's enforcement point:
      // cacheableReport() admits completed verdicts and deterministic
      // budget aborts, and rejects everything timing-shaped.
      // Interrupted Successes are excluded because a cancel observed
      // mid-race may have abandoned a unit that would outrank the
      // recorded winner — the sequence is timing-tainted
      // and must not be served as the job's canonical answer (a cancel
      // that raced completion and was never observed leaves the flag
      // clear — that result is the real, cacheable one). The shutdown
      // and queued-cancel paths report Aborted without reaching this
      // code at all.
      if (cacheableReport(Rep))
        Cache->store(Key, CachedJobResult{Rep.Result, Rep.Winner});
    }
  } else {
    Rep = runOneJob(St.Job, St.Index, Stop);
  }

  Rep.QueueSeconds = QueueNs / 1e9;

  {
    MutexLock Lock(St.M);
    St.Rep = std::move(Rep);
    St.Done = true;
  }
  St.CV.notify_all();
}

SynthReport SynthEngine::runOneJob(const SynthJob &Job, size_t Index,
                                   const StopToken &Stop) const {
  Timer JobClock;
  SynthReport Rep;
  Rep.JobIndex = Index;
  Rep.JobName = Job.Name;

  std::vector<PortfolioMember> Members = normalizedPortfolio(Job);

  // Every checker and wait removal keep a packet in its class (§3.3). A
  // job whose tables rewrite a tracked header would be checked as a
  // different network, so each member reports an error and none runs.
  const std::vector<TrafficClass> Classes = Job.S.classes();
  std::string Rewrite = classHeaderRewrite(Job.S.Initial, Classes);
  if (Rewrite.empty())
    Rewrite = classHeaderRewrite(Job.S.Final, Classes);
  if (!Rewrite.empty()) {
    for (const PortfolioMember &M : Members) {
      MemberOutcome O;
      O.Name = memberDisplayName(M);
      O.Error = Rewrite;
      Rep.Members.push_back(std::move(O));
    }
    Rep.Winner = Rep.Members[0].Name;
    Rep.Result.Status = SynthStatus::Aborted;
    Rep.Seconds = JobClock.seconds();
    return Rep;
  }

  // One scenario digest serves every member's shedding key; skip the
  // walk entirely when shedding is off.
  const Digest ScenDigest = ImpossibleKeys ? digestOf(Job.S) : Digest{};

  std::vector<MemberOutcome> Outcomes(Members.size());

  // Shedding: a member whose (scenario, granularity) key an earlier
  // member proved Impossible is answered from the proof instead of
  // raced. Gated so the fabricated outcome provably matches what a
  // standalone run would return: Impossible is a ground fact of
  // (scenario, granularity) — every complete search reaches it
  // regardless of knobs or backend — so only members that might not
  // *complete* (a check budget could report Aborted) or might not run
  // at all (unknown backend) are excluded.
  std::vector<uint8_t> Shed(Members.size(), 0);
  if (ImpossibleKeys) {
    for (size_t I = 0; I != Members.size(); ++I) {
      const PortfolioMember &M = Members[I];
      if (M.Opts.MaxCheckCalls > 0 || M.Opts.UnitCheckCalls > 0 ||
          !BackendFactory::instance().known(M.Backend))
        continue;
      if (!ImpossibleKeys->lookup(
              impossibleKey(ScenDigest, M.Opts.RuleGranularity)))
        continue;
      Shed[I] = 1;
      Outcomes[I].Name = memberDisplayName(M);
      Outcomes[I].Status = SynthStatus::Impossible;
      Outcomes[I].Stats.ShedMembers = 1;
      Outcomes[I].Result.Status = SynthStatus::Impossible;
      Outcomes[I].Result.Stats = Outcomes[I].Stats;
    }
  }

  // Runs member I and records an Impossible proof for later jobs. An
  // Impossible verdict is a SAT proof or an exhaustive exploration,
  // never a truncation (which reports Aborted).
  auto RunAndRecord = [&](size_t I, const StopToken &MemberStop,
                          const StopToken &RaceStop) {
    Outcomes[I] = runMember(Job.S, Members[I], MemberStop, RaceStop,
                            Opts.IntraJobShards);
    if (ImpossibleKeys && Outcomes[I].Status == SynthStatus::Impossible)
      ImpossibleKeys->store(
          impossibleKey(ScenDigest, Members[I].Opts.RuleGranularity), true);
  };

  if (Members.size() == 1) {
    if (!Shed[0])
      RunAndRecord(0, Stop, StopToken());
  } else {
    // Race: first Success fires the shared source; everyone also honours
    // the job's cancellation token. The members run as one round
    // on this thread's crew while it waits: running one here would let a
    // sharded member start a round on the same crew mid-round
    // (support/Crew.h).
    StopSource Race;
    StopToken RaceStop = Race.token();
    StopToken MemberStop = anyToken(Stop, RaceStop);
    std::function<void(unsigned)> Body = [&](unsigned I) {
      if (Shed[I])
        return;
      RunAndRecord(I, MemberStop, RaceStop);
      if (Outcomes[I].Status == SynthStatus::Success)
        Race.requestStop();
    };
    Crew::local().run(static_cast<unsigned>(Members.size()), Body, [] {});
  }

  // Deterministic winner: best verdict rank, lowest member index.
  size_t Best = 0;
  for (size_t I = 1; I != Outcomes.size(); ++I)
    if (statusRank(Outcomes[I].Status) > statusRank(Outcomes[Best].Status))
      Best = I;
  Rep.Winner = Outcomes[Best].Name;
  Rep.Result = std::move(Outcomes[Best].Result);

  for (MemberOutcome &O : Outcomes)
    O.Result = SynthResult(); // Commands live in Rep.Result only.
  Rep.Members = std::move(Outcomes);
  Rep.Seconds = JobClock.seconds();
  return Rep;
}

BatchReport SynthEngine::run(const std::vector<SynthJob> &Jobs) {
  Timer Clock;
  BatchReport Rep;
  Rep.NumWorkers = Workers;
  Rep.Reports.reserve(Jobs.size());
  if (Jobs.empty())
    return Rep;

  std::vector<JobHandle> Handles;
  Handles.reserve(Jobs.size());
  for (const SynthJob &Job : Jobs)
    Handles.push_back(submit(Job));

  for (size_t I = 0; I != Handles.size(); ++I) {
    SynthReport R = Handles[I].wait();
    R.JobIndex = I; // Batch-relative, independent of other clients.
    Rep.Reports.push_back(std::move(R));
  }

  for (const SynthReport &R : Rep.Reports) {
    Rep.Merged.mergeFrom(R.Result.Stats);
    for (const MemberOutcome &O : R.Members)
      Rep.TotalQueries += O.Queries;
    if (R.FromCache)
      ++Rep.EngineCacheHits;
    else if (Opts.CacheResults && !R.Members.empty())
      ++Rep.EngineCacheMisses; // Executed after a lookup failed;
                               // cache-off runs and aborted-unrun jobs
                               // are neither hits nor misses.
  }
  Rep.WallSeconds = Clock.seconds();
  return Rep;
}
