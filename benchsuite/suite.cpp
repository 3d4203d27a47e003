//===- benchsuite/suite.cpp - The end-to-end benchmark ---------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// bench_suite: the instrument for performance claims (README.md in this
/// directory has the workloads, the metric tables and how to compare).
///
///   bench_suite --workload <name|all> --seed N [--seconds S] [--traced]
///               [--trace-dir DIR]
///
/// For each workload it generates the inputs from the seed, sets up the
/// engine (five times; setup_s is the median), then drives the public
/// SynthEngine::submit / JobHandle::wait API in a closed loop — each
/// client submits its next job only when the previous one reported —
/// for S seconds. Outside the timed phase two oracles check every output
/// (Oracle.h). One JSON line per workload carries the end-to-end metrics.
///
/// --traced instead runs an untraced quarter, a traced half and another
/// untraced quarter, each on a fresh engine over the same pool. The traced
/// half turns on the obs detail tier and span tracing and wraps every
/// backend in the timing decorator (Timed.h); its line carries the
/// per-layer metrics, and the run fails unless the phases agree on every
/// verdict. The spans go to BENCH_suite_trace_<workload>.json in the trace
/// directory.
///
//===----------------------------------------------------------------------===//

#include "Oracle.h"
#include "Stats.h"
#include "Timed.h"
#include "Workloads.h"

#include "engine/Engine.h"
#include "kripke/Kripke.h"
#include "mc/MemoizingChecker.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Digest.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

using namespace netupd;
using namespace netupd::suite;

namespace {

using Clock = std::chrono::steady_clock;

/// Setups per untraced run; setup_s reports their median.
constexpr unsigned SetupRounds = 5;

/// Equal rounds the timed phase is cut into. Throughput, CPU per job and
/// the median latency are medians over the rounds: on a machine shared
/// with other tenants a job's time can swing by a third for seconds at a
/// time, and a median moves only when most rounds are hit. Higher
/// percentiles pool every job of the run, so that at least ten samples
/// lie beyond them.
constexpr unsigned Rounds = 5;

/// What the closed loop keeps per completed job.
struct JobRecord {
  uint32_t Idx = 0;
  SynthStatus Status = SynthStatus::Aborted;
  bool FromCache = false;
  bool MemberError = false;
  double QueueS = 0.0;
  double ServiceS = 0.0;
  /// Submission and completion time, seconds into the phase.
  double StartS = 0.0;
  double EndS = 0.0;
  /// The winning member's stats; left zero for cache-served jobs, which
  /// did no work.
  SynthStats Winner;
  /// Every member that ran, winners and losers alike.
  SynthStats AllMembers;
  uint64_t Queries = 0;
  uint32_t MembersRun = 0;
  uint32_t MembersCancelled = 0;

  double latencyS() const { return EndS - StartS; }
};

struct PhaseResult {
  /// Every completed job, by pool entry and then completion time.
  std::vector<JobRecord> Jobs;
  /// The command sequence of the first Success of each pool entry.
  std::map<uint32_t, CommandSeq> Sequences;
  /// Per round: jobs per second, CPU milliseconds per job, and the
  /// latencies (ms) of the jobs completed in it. A job counts towards each
  /// round in proportion to the share of its run that fell in the round,
  /// so the rates are not quantized to whole jobs per round.
  std::vector<double> JobsPerS, CpuMsPerJob;
  std::vector<std::vector<double>> LatencyMs;

  double jobsPerS() const { return median(JobsPerS); }
  double cpuMsPerJob() const { return median(CpuMsPerJob); }
  double medianLatencyMs() const {
    std::vector<double> PerRound;
    for (const std::vector<double> &L : LatencyMs)
      PerRound.push_back(median(L));
    return median(PerRound);
  }
  /// The \p P quantile of every job's latency.
  double pooledLatencyMs(double P) const {
    std::vector<double> All;
    for (const std::vector<double> &L : LatencyMs)
      All.insert(All.end(), L.begin(), L.end());
    return quantile(All, P);
  }
};

struct Setup {
  std::vector<BenchJob> Pool;
  std::unique_ptr<SynthEngine> Engine;
  double GenerateS = 0.0;
  double TotalS = 0.0;
};

/// \p X over \p N; 0 when N is 0.
double ratio(double X, double N) { return N > 0 ? X / N : 0.0; }

double seconds(Clock::duration D) {
  return std::chrono::duration<double>(D).count();
}

/// CPUs this process may run on (what nproc prints).
unsigned hardwareThreads() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// K: client threads, workers or shards of the parallel workloads.
unsigned kThreads() { return std::clamp(hardwareThreads(), 1u, 4u); }

EngineOptions engineOptions(const Workload &W) {
  EngineOptions EO;
  EO.NumWorkers = W.KWorkers ? kThreads() : 1;
  EO.IntraJobShards = W.KShards ? kThreads() : 1;
  EO.CacheResults = W.CacheResults;
  EO.SharedLearning = W.SharedLearning;
  return EO;
}

/// A fresh engine; "memo:" backends share one process-wide check cache,
/// which is emptied too, so no state survives from an earlier engine.
std::unique_ptr<SynthEngine> freshEngine(const Workload &W) {
  MemoizingChecker::processCache()->clear();
  return std::make_unique<SynthEngine>(engineOptions(W));
}

/// Builds a fresh engine and runs the warm-up job through it.
std::unique_ptr<SynthEngine> startEngine(const Workload &W, uint64_t Seed) {
  std::unique_ptr<SynthEngine> Engine = freshEngine(W);
  BenchJob Warm = W.WarmUp(Seed);
  JobHandle H = Engine->submit(Warm.make());
  if (!verdictOk(Warm.Want, H.wait().Result.Status))
    throw std::runtime_error("warm-up job returned a wrong verdict");
  return Engine;
}

/// Input generation, engine construction and one warm-up job.
Setup setUp(const Workload &W, uint64_t Seed) {
  Setup S;
  Timer Total;
  Timer Gen;
  S.Pool = W.Generate(Seed, kThreads());
  S.GenerateS = Gen.seconds();
  S.Engine = startEngine(W, Seed);
  S.TotalS = Total.seconds();
  return S;
}

JobRecord recordOf(uint32_t Idx, const SynthReport &R, double StartS,
                   double EndS) {
  JobRecord J;
  J.Idx = Idx;
  J.Status = R.Result.Status;
  J.FromCache = R.FromCache;
  J.StartS = StartS;
  J.EndS = EndS;
  J.QueueS = R.QueueSeconds;
  J.ServiceS = R.Seconds;
  if (!R.FromCache)
    J.Winner = R.Result.Stats;
  for (const MemberOutcome &O : R.Members) {
    J.MemberError |= !O.Error.empty();
    J.AllMembers.mergeFrom(O.Stats);
    J.Queries += O.Queries;
    J.MembersRun += O.Stats.ShedMembers == 0;
    J.MembersCancelled += O.Cancelled;
  }
  return J;
}

/// The closed loop: clients pull pool entries in order, starting over at
/// the top when the pool runs out, and submit each only after the
/// previous one reported. No new job starts after \p Seconds once MinJobs
/// are done; jobs in flight finish and count, in the last round.
PhaseResult runPhase(const Workload &W, const std::vector<BenchJob> &Pool,
                     std::unique_ptr<SynthEngine> &Engine, double Seconds) {
  unsigned Clients = W.KClients ? kThreads() : 1;
  if (W.FreshEnginePerPass && Clients != 1)
    throw std::logic_error("a fresh engine per pass needs a single client");
  std::atomic<uint64_t> Next{0}, Done{0};
  std::vector<std::atomic<uint8_t>> Captured(Pool.size());
  std::vector<PhaseResult> PerClient(Clients);
  std::vector<double> CpuAt(Rounds + 1, 0.0);

  CpuAt[0] = processCpuSeconds();
  Clock::time_point Start = Clock::now();
  auto At = [&](double S) {
    return Start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(S));
  };
  Clock::time_point Deadline = At(Seconds);
  auto Client = [&](unsigned C) {
    PhaseResult &Out = PerClient[C];
    for (;;) {
      // relaxed (both counters): tickets and a progress count; the
      // joins below order every record.
      if (Clock::now() >= Deadline &&
          Done.load(std::memory_order_relaxed) >= W.MinJobs)
        break;
      uint64_t N = Next.fetch_add(1, std::memory_order_relaxed);
      auto Idx = static_cast<uint32_t>(N % Pool.size());
      if (Idx == 0 && N != 0 && W.FreshEnginePerPass)
        Engine = freshEngine(W);
      SynthJob Job = Pool[Idx].make();
      Clock::time_point T0 = Clock::now();
      obs::TraceSpan Span("bench.job");
      JobHandle H = Engine->submit(std::move(Job));
      const SynthReport &R = H.wait();
      Clock::time_point T1 = Clock::now();
      Out.Jobs.push_back(recordOf(Idx, R, seconds(T0 - Start),
                                  seconds(T1 - Start)));
      if (R.Result.Status == SynthStatus::Success && !Captured[Idx].exchange(1))
        Out.Sequences.emplace(Idx, R.Result.Commands);
      Done.fetch_add(1, std::memory_order_relaxed);
    }
  };
  // Samples process CPU time at the round boundaries.
  std::thread Sampler([&] {
    for (unsigned K = 1; K != Rounds; ++K) {
      std::this_thread::sleep_until(At(Seconds * K / Rounds));
      CpuAt[K] = processCpuSeconds();
    }
  });
  std::vector<std::thread> Threads;
  for (unsigned C = 1; C < Clients; ++C)
    Threads.emplace_back(Client, C);
  Client(0);
  for (std::thread &T : Threads)
    T.join();
  Sampler.join();
  CpuAt[Rounds] = processCpuSeconds();

  PhaseResult R;
  for (PhaseResult &P : PerClient) {
    R.Jobs.insert(R.Jobs.end(), P.Jobs.begin(), P.Jobs.end());
    R.Sequences.merge(P.Sequences);
  }
  std::sort(R.Jobs.begin(), R.Jobs.end(),
            [](const JobRecord &A, const JobRecord &B) {
              return std::make_pair(A.Idx, A.EndS) <
                     std::make_pair(B.Idx, B.EndS);
            });
  double EndS = Seconds;
  for (const JobRecord &J : R.Jobs)
    EndS = std::max(EndS, J.EndS);
  auto RoundStart = [&](unsigned K) {
    return K == Rounds ? EndS : Seconds * K / Rounds;
  };
  std::vector<double> Credit(Rounds, 0.0);
  R.LatencyMs.resize(Rounds);
  for (const JobRecord &J : R.Jobs) {
    auto Last = std::min(Rounds - 1,
                         static_cast<unsigned>(J.EndS / Seconds * Rounds));
    R.LatencyMs[Last].push_back(J.latencyS() * 1e3);
    for (unsigned K = 0; K != Rounds; ++K) {
      double Overlap = std::min(J.EndS, RoundStart(K + 1)) -
                       std::max(J.StartS, RoundStart(K));
      if (Overlap > 0)
        Credit[K] += Overlap / J.latencyS();
    }
  }
  for (unsigned K = 0; K != Rounds; ++K) {
    R.JobsPerS.push_back(Credit[K] / (RoundStart(K + 1) - RoundStart(K)));
    R.CpuMsPerJob.push_back(ratio((CpuAt[K + 1] - CpuAt[K]) * 1e3, Credit[K]));
  }
  return R;
}

/// The oracles' findings over one phase.
struct Verdict {
  unsigned Failed = 0;
  std::string Digest;
  uint64_t DigestQueries = 0;
  /// Status of the first run of each pool entry, for cross-phase checks.
  std::map<uint32_t, SynthStatus> FirstStatus;
  double VerifyS = 0.0;
};

Verdict verify(const Workload &W, const std::vector<BenchJob> &Pool,
               const PhaseResult &P) {
  Timer Clock;
  Verdict V;
  std::vector<uint8_t> Bad(Pool.size(), 0);

  // Replay sample: the smallest Success updates, deterministic in the pool.
  std::vector<uint32_t> Sample;
  for (const auto &[Idx, Cmds] : P.Sequences)
    Sample.push_back(Idx);
  std::sort(Sample.begin(), Sample.end(), [&](uint32_t A, uint32_t B) {
    return std::make_pair(Pool[A].Diff, A) < std::make_pair(Pool[B].Diff, B);
  });
  Sample.resize(std::min<size_t>(Sample.size(), W.ReplayMax));
  for (const auto &[Idx, Cmds] : P.Sequences)
    if (!reachesFinal(*Pool[Idx].S, Cmds)) {
      Bad[Idx] = 1;
      std::fprintf(stderr, "oracle: %s misses its final configuration\n",
                   Pool[Idx].Name.c_str());
    }
  for (uint32_t Idx : Sample) {
    std::string Why;
    if (!replayOk(*Pool[Idx].S, P.Sequences.at(Idx), &Why)) {
      Bad[Idx] = 1;
      std::fprintf(stderr, "oracle: %s replay failed: %s\n",
                   Pool[Idx].Name.c_str(), Why.c_str());
    }
  }

  for (const JobRecord &J : P.Jobs) {
    auto [It, First] = V.FirstStatus.emplace(J.Idx, J.Status);
    bool Ok = !J.MemberError && verdictOk(Pool[J.Idx].Want, J.Status) &&
              It->second == J.Status && !Bad[J.Idx];
    if (!Ok) {
      ++V.Failed;
      std::fprintf(stderr, "oracle: %s returned status %d\n",
                   Pool[J.Idx].Name.c_str(), static_cast<int>(J.Status));
    }
    if (First && J.Idx < W.MinJobs)
      V.DigestQueries += J.Queries;
  }

  DigestBuilder B;
  for (uint32_t I = 0; I != std::min<size_t>(W.MinJobs, Pool.size()); ++I) {
    auto It = V.FirstStatus.find(I);
    B.addU64(It == V.FirstStatus.end() ? ~0ull
                                       : static_cast<uint64_t>(It->second));
  }
  V.Digest = B.finish().str().substr(0, 16);
  V.VerifyS = Clock.seconds();
  return V;
}

/// The fields every result line starts with.
JsonLine header(const Workload &W, uint64_t Seed, bool Traced,
                const PhaseResult &P, const Verdict &V, bool Correct) {
  JsonLine J;
  J.str("workload", W.Name)
      .num("seed", static_cast<double>(Seed))
      .boolean("traced", Traced)
      .num("hardware_threads", hardwareThreads())
      .num("clients", W.KClients ? kThreads() : 1)
      .boolean("correct", Correct)
      .num("attempted", static_cast<double>(P.Jobs.size()))
      .num("failed", V.Failed)
      .str("verdict_digest", V.Digest)
      .num("verify_s", V.VerifyS);
  return J;
}

void runUntraced(const Workload &W, uint64_t Seed, double Seconds,
                 bool SelfTestOk) {
  std::vector<double> SetupS;
  Setup S;
  for (unsigned Round = 0; Round != SetupRounds; ++Round) {
    S = Setup(); // Free the previous round's pool and engine first.
    S = setUp(W, Seed);
    SetupS.push_back(S.TotalS);
  }
  PhaseResult P = runPhase(W, S.Pool, S.Engine, Seconds);
  S.Engine.reset();
  Verdict V = verify(W, S.Pool, P);

  auto Jobs = static_cast<double>(P.Jobs.size());
  JsonLine M;
  M.metric("setup_s", median(SetupS), "s")
      .metric("jobs_per_s", P.jobsPerS(), "jobs/s")
      .metric("latency_p50_ms", P.medianLatencyMs(), "ms")
      .metric("latency_p90_ms", P.pooledLatencyMs(0.90), "ms")
      .metric("latency_p99_ms", P.pooledLatencyMs(0.99), "ms")
      .metric("cpu_ms_per_job", P.cpuMsPerJob(), "ms")
      .metric("peak_rss_mb", peakRssMb(), "MB")
      .metric("failed_frac", ratio(V.Failed, Jobs), "fraction");
  JsonLine Out = header(W, Seed, false, P, V, SelfTestOk && V.Failed == 0);
  Out.num("pool", static_cast<double>(S.Pool.size())).raw("metrics", M.text());
  std::printf("%s\n", Out.text().c_str());
  std::fflush(stdout);
}

/// The per-layer metrics of a traced phase. \p Before and \p After are
/// the untraced phases around it; \p BuildMs the bench-timed Kripke
/// constructions; \p DroppedFrac the share of spans the trace ring lost.
JsonLine layerMetrics(const PhaseResult &P, const PhaseResult &Before,
                      const PhaseResult &After, const CheckClocks &Clocks,
                      const std::vector<double> &BuildMs, double GenerateS,
                      double DroppedFrac) {
  SynthStats Win, All;
  double Jobs = 0, Worked = 0, Cached = 0, Queries = 0, Members = 0,
         Cancelled = 0, EarlyTerm = 0;
  std::vector<double> QueueMs, DispatchMs;
  for (const JobRecord &J : P.Jobs) {
    ++Jobs;
    QueueMs.push_back(J.QueueS * 1e3);
    DispatchMs.push_back((J.latencyS() - J.QueueS - J.ServiceS) * 1e3);
    if (J.FromCache) {
      ++Cached;
      continue;
    }
    ++Worked;
    Win.mergeFrom(J.Winner);
    All.mergeFrom(J.AllMembers);
    Queries += static_cast<double>(J.Queries);
    Members += J.MembersRun;
    Cancelled += J.MembersCancelled;
    EarlyTerm += J.Winner.EarlyTerminated;
  }
  auto PerJob = [&](double X) { return ratio(X, Jobs); };
  auto MsPerJob = [&](double Seconds) { return ratio(Seconds * 1e3, Jobs); };
  double Phases = Win.CheckSeconds + Win.MutateSeconds + Win.PruneSeconds +
                  Win.SatSeconds;
  auto Share = [&](double X) { return ratio(X, Phases); };
  std::vector<double> Untraced = Before.JobsPerS;
  Untraced.insert(Untraced.end(), After.JobsPerS.begin(),
                  After.JobsPerS.end());
  double Overhead = ratio(median(Untraced), P.jobsPerS()) - 1.0;
  const double MemoCalls = static_cast<double>(All.CacheHits + All.CacheMisses);

  JsonLine M;
  M.metric("engine.queue_wait_ms_p50", median(QueueMs), "ms")
      .metric("engine.dispatch_ms_p50", median(DispatchMs), "ms")
      .metric("engine.result_cache_hit_rate", PerJob(Cached), "fraction")
      .metric("engine.shed_members_per_job", PerJob(All.ShedMembers), "count")
      .metric("engine.members_cancelled_frac", ratio(Cancelled, Members),
              "fraction")
      .metric("synth.prune_share", Share(Win.PruneSeconds), "fraction")
      .metric("synth.prune_ms_per_job", MsPerJob(Win.PruneSeconds), "ms")
      .metric("synth.check_calls_per_job", PerJob(Win.CheckCalls), "count")
      .metric("synth.visited_prunes_per_job", PerJob(Win.VisitedPrunes),
              "count")
      .metric("synth.cex_prunes_per_job", PerJob(Win.CexPrunes), "count")
      .metric("synth.stolen_tasks_per_job", PerJob(Win.StolenTasks), "count")
      .metric("synth.restarts_per_job", PerJob(Win.Restarts), "count")
      .metric("synth.clauses_minimized_per_job", PerJob(Win.ClausesMinimized),
              "count")
      .metric("synth.seeded_prunes_per_job", PerJob(Win.SeededPrunes),
              "count")
      .metric("synth.wait_removal_ms_per_job",
              MsPerJob(Win.WaitRemovalSeconds), "ms")
      .metric("sat.share", Share(Win.SatSeconds), "fraction")
      .metric("sat.ms_per_job", MsPerJob(Win.SatSeconds), "ms")
      .metric("sat.clauses_per_job", PerJob(Win.SatClauses), "count")
      .metric("sat.early_terminated_frac", ratio(EarlyTerm, Worked),
              "fraction")
      .metric("mc.queries_per_job", PerJob(Queries), "count")
      .metric("mc.recheck_us_p50", Clocks.RecheckNs.quantileNs(0.50) / 1e3,
              "us")
      .metric("mc.recheck_us_p99", Clocks.RecheckNs.quantileNs(0.99) / 1e3,
              "us")
      .metric("mc.check_share", Share(Win.CheckSeconds), "fraction")
      .metric("mc.binds_per_job",
              PerJob(static_cast<double>(Clocks.BindNs.count())), "count")
      .metric("mc.bind_ms_p50", Clocks.BindNs.quantileNs(0.50) / 1e6, "ms")
      .metric("mc.memo_hit_rate", ratio(All.CacheHits, MemoCalls), "fraction")
      .metric("kripke.build_ms_p50", median(BuildMs), "ms")
      .metric("kripke.mutate_share", Share(Win.MutateSeconds), "fraction")
      .metric("kripke.mutate_ms_per_job", MsPerJob(Win.MutateSeconds), "ms")
      .metric("support.store_imported_per_job",
              PerJob(All.ImportedConstraints), "count")
      .metric("support.store_exported_per_job",
              PerJob(All.ExportedConstraints), "count")
      .metric("support.store_subsumed_dropped_per_job",
              PerJob(All.SubsumedDropped), "count")
      .metric("topo.generate_s", GenerateS, "s")
      .metric("obs.trace_overhead_frac", Overhead, "fraction")
      .metric("obs.spans_dropped_frac", DroppedFrac, "fraction");
  return M;
}

/// Tracing observes; it must not steer. Every pool entry that the traced
/// phase \p V and an untraced phase both ran must have the same verdict,
/// and where the engine makes checker work deterministic the query counts
/// must match too. \p Drift receives the relative query difference.
bool tracingAgrees(const Workload &W, const Verdict &V,
                   const std::vector<const Verdict *> &Untraced,
                   double &Drift) {
  bool Agree = true;
  for (const Verdict *U : Untraced) {
    Agree &= U->Digest == V.Digest;
    for (const auto &[Idx, St] : V.FirstStatus) {
      auto It = U->FirstStatus.find(Idx);
      Agree &= It == U->FirstStatus.end() || It->second == St;
    }
  }
  auto Base = static_cast<double>(Untraced.front()->DigestQueries);
  Drift = ratio(std::abs(static_cast<double>(V.DigestQueries) - Base), Base);
  if (W.MaxQueryDrift >= 0 && Drift > W.MaxQueryDrift)
    Agree = false;
  if (!Agree)
    std::fprintf(stderr,
                 "error: traced and untraced runs disagree (query drift %g)\n",
                 Drift);
  return Agree;
}

void runTraced(const Workload &W, uint64_t Seed, double Seconds,
               bool SelfTestOk, const std::string &TraceDir) {
  // Untraced quarters before and after the traced half, on fresh engines
  // over the same pool, so a drift of the machine's speed over the run
  // cancels out of the tracing overhead.
  Setup S = setUp(W, Seed);
  PhaseResult Before = runPhase(W, S.Pool, S.Engine, Seconds / 4);

  // The traced half runs every portfolio member on its timed twin.
  static CheckClocks Clocks; // Outlives every backend the factory builds.
  std::vector<BenchJob> Pool = S.Pool;
  std::vector<std::string> Specs;
  for (BenchJob &J : Pool)
    for (PortfolioMember &M : J.Portfolio) {
      if (std::find(Specs.begin(), Specs.end(), M.Backend) == Specs.end())
        Specs.push_back(M.Backend);
      M.Backend = timedSpec(M.Backend);
    }
  registerTimedBackends(Specs, Clocks);
  std::unique_ptr<SynthEngine> Engine = startEngine(W, Seed);
  Clocks.BindNs.reset();
  Clocks.RecheckNs.reset();
  obs::setDetail(true);
  obs::clearSpans();
  obs::setTracing(true);
  PhaseResult P = runPhase(W, Pool, Engine, Seconds / 2);
  Engine.reset();
  obs::setTracing(false);
  obs::setDetail(false);
  auto Kept = static_cast<double>(obs::snapshotSpans().size());
  auto Dropped = static_cast<double>(obs::droppedSpans());
  std::string TracePath = TraceDir + "/BENCH_suite_trace_" + W.Name + ".json";
  if (!obs::writeChromeTrace(TracePath))
    std::fprintf(stderr, "warning: cannot write %s\n", TracePath.c_str());

  S.Engine = startEngine(W, Seed);
  PhaseResult After = runPhase(W, S.Pool, S.Engine, Seconds / 4);
  S.Engine.reset();

  Verdict V = verify(W, Pool, P);
  Verdict BeforeV = verify(W, S.Pool, Before);
  Verdict AfterV = verify(W, S.Pool, After);
  double Drift = 0.0;
  bool Agree = tracingAgrees(W, V, {&BeforeV, &AfterV}, Drift);

  // Kripke construction, timed by the bench on the completed pool entries
  // (at most 64, to bound the run).
  std::vector<double> BuildMs;
  for (const auto &[Idx, St] : V.FirstStatus) {
    if (BuildMs.size() == 64)
      break;
    const Scenario &Sc = *Pool[Idx].S;
    Timer T;
    KripkeStructure K(Sc.Topo, Sc.Initial, Sc.classes());
    BuildMs.push_back(T.millis());
  }

  JsonLine M = layerMetrics(P, Before, After, Clocks, BuildMs, S.GenerateS,
                            ratio(Dropped, Kept + Dropped));
  bool Correct = SelfTestOk && Agree &&
                 V.Failed + BeforeV.Failed + AfterV.Failed == 0;
  JsonLine Out = header(W, Seed, true, P, V, Correct);
  Out.num("traced_jobs_per_s", P.jobsPerS())
      .num("query_drift", Drift)
      .raw("metrics", M.text());
  std::printf("%s\n", Out.text().c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: bench_suite --workload <name|all> --seed N "
               "[--seconds S] [--traced] [--trace-dir DIR]\nworkloads:",
               Why);
  for (const Workload &W : workloads())
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name;
  uint64_t Seed = 0;
  bool HaveSeed = false, Traced = false;
  double Seconds = 10.0;
  std::string TraceDir = ".";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload") {
      Name = Value();
    } else if (A == "--seed") {
      std::string V = Value();
      char *End = nullptr;
      errno = 0;
      Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || !std::isdigit(static_cast<unsigned char>(V[0])) ||
          *End || errno == ERANGE)
        usage("--seed takes a non-negative 64-bit integer");
      HaveSeed = true;
    } else if (A == "--seconds") {
      std::string V = Value();
      char *End = nullptr;
      Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(Seconds > 0) || Seconds > 600)
        usage("--seconds takes a number in (0, 600]");
    } else if (A == "--traced") {
      Traced = true;
    } else if (A == "--trace-dir") {
      TraceDir = Value();
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (Name.empty() || !HaveSeed)
    usage("--workload and --seed are required");
  std::vector<const Workload *> Selected;
  for (const Workload &W : workloads())
    if (Name == "all" || Name == W.Name)
      Selected.push_back(&W);
  if (Selected.empty())
    usage(("unknown workload " + Name).c_str());

  // The measured phases run with the hot-path obs tiers off whatever the
  // environment says; only the traced half turns them on.
  obs::setDetail(false);
  obs::setTracing(false);

  std::string Why;
  bool SelfTestOk = oracleSelfTest(&Why);
  if (!SelfTestOk)
    std::fprintf(stderr, "error: %s\n", Why.c_str());

  try {
    for (const Workload *W : Selected)
      if (Traced)
        runTraced(*W, Seed, Seconds, SelfTestOk, TraceDir);
      else
        runUntraced(*W, Seed, Seconds, SelfTestOk);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
  return SelfTestOk ? 0 : 1;
}
