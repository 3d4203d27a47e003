//===- tests/obs_test.cpp - observability layer tests ----------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the observability layer (src/obs/): span recording,
/// nesting, ring wrap-around, and Chrome-trace export; and the layer's
/// one hard contract — turning tracing and the detail tier on must not
/// change a verdict, a command sequence, or a search counter. The
/// invariance matrix runs the backend registry x shard counts {1,4}
/// with budgeted cells included, mirroring the learning and budget
/// matrices. A concurrency test hammers recording from several threads
/// while the exporter runs — the cell the TSan CI job exists for.
///
/// Sequence comparison caveat (same as tests/learning_test.cpp): at
/// Shards > 1 without a budget, which correct sequence a feasible
/// search returns is timing-dependent; those cells compare verdicts and
/// validate sequences by replay. Sequential and budgeted cells compare
/// byte-exactly.
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "mc/BackendFactory.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "synth/OrderUpdate.h"
#include "topo/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>

using namespace netupd;
using namespace netupd::testutil;

namespace {

/// Saves, overrides, and restores the process-wide obs switches, so
/// tests compose in one process whatever an earlier test left set.
struct ObsToggle {
  ObsToggle(bool Trace, bool Detail)
      : OldTrace(obs::tracingEnabled()), OldDetail(obs::detailEnabled()) {
    obs::setTracing(Trace);
    obs::setDetail(Detail);
  }
  ~ObsToggle() {
    obs::setTracing(OldTrace);
    obs::setDetail(OldDetail);
  }
  bool OldTrace, OldDetail;
};

/// A feasible diamond scenario with at least \p MinUpdates updating
/// switches. Deterministic: scans seeds from \p FirstSeed upward.
Scenario diamondWithUpdates(uint64_t FirstSeed, unsigned MinUpdates) {
  for (uint64_t Seed = FirstSeed; Seed != FirstSeed + 64; ++Seed) {
    Rng R(Seed);
    Topology Base = buildSmallWorld(24, 4, 0.2, R);
    std::optional<Scenario> S =
        makeDiamondScenario(Base, R, PropertyKind::Reachability);
    if (S && numUpdatingSwitches(*S) >= MinUpdates)
      return std::move(*S);
  }
  ADD_FAILURE() << "no diamond with >= " << MinUpdates
                << " updating switches from seed " << FirstSeed;
  return Scenario{};
}

/// The Fig. 8(h) instance: switch-granularity infeasible.
Scenario doubleDiamond(uint64_t Seed) {
  Rng R(Seed);
  Topology Base = buildSmallWorld(20, 4, 0.2, R);
  std::optional<Scenario> S = makeDoubleDiamondScenario(Base, R);
  EXPECT_TRUE(S.has_value()) << "seed " << Seed << " grew no double diamond";
  return std::move(*S);
}

/// What one run observably produced, for invariance comparisons.
struct RunResult {
  SynthStatus Status = SynthStatus::Aborted;
  std::string Rendered; // commandSeqToString: the byte-exact fingerprint.
  CommandSeq Commands;
  SynthStats Stats;
};

/// Runs one single-member job on a fresh 1-worker engine with the
/// result cache and learning off (observability, not reuse, is under
/// test here).
RunResult runOnce(const Scenario &S, const std::string &Backend,
                  unsigned Shards,
                  const std::function<void(SynthOptions &)> &Tweak = {}) {
  SynthJob Job;
  Job.S = S;
  PortfolioMember M;
  M.Backend = Backend;
  M.Opts.Shards = Shards;
  if (Tweak)
    Tweak(M.Opts);
  Job.Portfolio.push_back(std::move(M));

  EngineOptions EO;
  EO.NumWorkers = 1;
  EO.CacheResults = false;
  EO.SharedLearning = false;
  SynthEngine Engine(EO);
  BatchReport Rep = Engine.run({Job});
  const SynthReport &R = Rep.Reports[0];
  EXPECT_TRUE(R.Members[0].Error.empty()) << R.Members[0].Error;

  RunResult Out;
  Out.Status = R.Result.Status;
  Out.Rendered = commandSeqToString(S.Topo, R.Result.Commands);
  Out.Commands = R.Result.Commands;
  Out.Stats = R.Result.Stats;
  return Out;
}

void expectValidSequence(const Scenario &S, const CommandSeq &Cmds) {
  FormulaFactory FF;
  Formula Phi = S.buildProperty(FF);
  EXPECT_TRUE(
      allIntermediateConfigsHold(S.Topo, S.Initial, S.classes(), Phi, Cmds))
      << "an obs-on run produced an unsafe sequence";
}

/// The search counters that must be bit-identical with observability on
/// or off in any deterministic cell — obs code observes the DFS, it
/// must never steer it.
void expectSameCounters(const SynthStats &A, const SynthStats &B,
                        const std::string &Cell) {
  EXPECT_EQ(A.CheckCalls, B.CheckCalls) << Cell;
  EXPECT_EQ(A.VisitedPrunes, B.VisitedPrunes) << Cell;
  EXPECT_EQ(A.CexPrunes, B.CexPrunes) << Cell;
  EXPECT_EQ(A.BudgetSpent, B.BudgetSpent) << Cell;
  EXPECT_EQ(A.ExhaustedUnits, B.ExhaustedUnits) << Cell;
}

} // namespace

// --- TraceSpan / ring buffer ------------------------------------------------

TEST(TraceTest, SpansRecordNamesDurationsAndNesting) {
  ObsToggle On(true, false);
  obs::clearSpans();
  {
    obs::TraceSpan Outer("test.outer");
    {
      obs::TraceSpan Inner("test.inner");
      (void)Inner;
    }
    { obs::TraceSpan Inner2("test.inner2"); }
  }

  std::vector<obs::SpanRecord> Spans = obs::snapshotSpans();
  const obs::SpanRecord *Outer = nullptr, *Inner = nullptr, *Inner2 = nullptr;
  for (const obs::SpanRecord &S : Spans) {
    if (std::string(S.Name) == "test.outer")
      Outer = &S;
    else if (std::string(S.Name) == "test.inner")
      Inner = &S;
    else if (std::string(S.Name) == "test.inner2")
      Inner2 = &S;
  }
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  ASSERT_NE(Inner2, nullptr);

  // Nesting: children are one level deeper and contained in time.
  EXPECT_EQ(Inner->Depth, Outer->Depth + 1);
  EXPECT_EQ(Inner2->Depth, Outer->Depth + 1);
  EXPECT_GE(Inner->StartNs, Outer->StartNs);
  EXPECT_LE(Inner->StartNs + Inner->DurNs, Outer->StartNs + Outer->DurNs);
  EXPECT_GE(Inner2->StartNs, Inner->StartNs + Inner->DurNs)
      << "siblings must not overlap on one thread";
  // All on the recording thread.
  EXPECT_EQ(Inner->Tid, Outer->Tid);
}

TEST(TraceTest, DisabledTracingRecordsNothing) {
  ObsToggle Off(false, false);
  obs::clearSpans();
  { obs::TraceSpan S("test.invisible"); }
  for (const obs::SpanRecord &S : obs::snapshotSpans())
    EXPECT_STRNE(S.Name, "test.invisible");
}

TEST(TraceTest, RingWrapKeepsTheNewestSpans) {
  ObsToggle On(true, false);
  obs::clearSpans();
  const size_t Cap = obs::traceBufferCapacity();
  for (size_t I = 0; I != Cap + 100; ++I) {
    obs::TraceSpan S(I + 1 == Cap + 100 ? "test.wrap_last" : "test.wrap");
  }
  std::vector<obs::SpanRecord> Spans = obs::snapshotSpans();
  size_t Mine = 0;
  bool SawLast = false;
  for (const obs::SpanRecord &S : Spans) {
    std::string N(S.Name);
    if (N == "test.wrap" || N == "test.wrap_last")
      ++Mine;
    SawLast |= N == "test.wrap_last";
  }
  EXPECT_LE(Mine, Cap) << "a ring must not hold more than its capacity";
  EXPECT_GE(Mine, Cap / 2) << "wrap lost far more than it should";
  EXPECT_TRUE(SawLast) << "wrap must evict oldest, not newest";
  EXPECT_GE(obs::droppedSpans(), 100u);
}

TEST(TraceTest, ChromeTraceExportIsWellFormed) {
  ObsToggle On(true, false);
  obs::clearSpans();
  { obs::TraceSpan S("test.export \"quoted\""); }
  std::string Json = obs::exportChromeTrace();
  EXPECT_NE(Json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("test.export \\\"quoted\\\""), std::string::npos)
      << "names must be JSON-escaped";
  EXPECT_EQ(Json.back(), '}');

  std::string Path = "obs_test_trace.json";
  ASSERT_TRUE(obs::writeChromeTrace(Path));
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::fclose(F);
  std::remove(Path.c_str());
}

// --- On-vs-off invariance matrix --------------------------------------------

// Acceptance: for every registered backend (the memoizing decorator
// included) and shard count, an obs-on run (tracing + detail tier)
// returns the same verdict — and, wherever sequences are deterministic,
// the byte-identical command sequence and search counters — as an
// obs-off run. Observability observes; it never steers.
TEST(ObsInvarianceTest, FeasibleMatrixAcrossBackendRegistry) {
  Scenario Feas = diamondWithUpdates(9200, 4);
  std::vector<std::string> Backends = BackendFactory::instance().names();
  Backends.push_back("memo:incremental");
  for (const std::string &Backend : Backends) {
    for (unsigned Shards : {1u, 4u}) {
      std::string Cell = Backend + " shards=" + std::to_string(Shards);
      RunResult Ref, On;
      {
        ObsToggle Off(false, false);
        Ref = runOnce(Feas, Backend, Shards);
      }
      {
        ObsToggle Obs(true, true);
        obs::clearSpans();
        On = runOnce(Feas, Backend, Shards);
      }
      EXPECT_EQ(On.Status, Ref.Status) << Cell;
      if (Shards == 1) {
        EXPECT_EQ(On.Rendered, Ref.Rendered) << Cell;
        expectSameCounters(On.Stats, Ref.Stats, Cell);
      } else if (On.Status == SynthStatus::Success) {
        expectValidSequence(Feas, On.Commands);
      }
      // The obs-on run must actually have profiled and traced.
      EXPECT_GT(On.Stats.CheckSeconds, 0.0) << Cell;
      EXPECT_EQ(Ref.Stats.CheckSeconds, 0.0)
          << Cell << ": detail-off runs must not pay for clock reads";
      bool SawSearch = false;
      for (const obs::SpanRecord &Sp : obs::snapshotSpans())
        SawSearch |= std::string(Sp.Name) == "synth.search";
      EXPECT_TRUE(SawSearch) << Cell;
    }
  }
}

TEST(ObsInvarianceTest, InfeasibleVerdictUnchanged) {
  Scenario Inf = doubleDiamond(9);
  for (unsigned Shards : {1u, 4u}) {
    RunResult Ref, On;
    {
      ObsToggle Off(false, false);
      Ref = runOnce(Inf, "incremental", Shards);
    }
    {
      ObsToggle Obs(true, true);
      On = runOnce(Inf, "incremental", Shards);
    }
    EXPECT_EQ(On.Status, Ref.Status) << "shards=" << Shards;
    EXPECT_NE(On.Status, SynthStatus::Success);
  }
}

// Budgeted cells: verdict AND sequence are a pure function of
// (job, budget) at any shard count, so every comparison is byte-exact —
// including the charged-budget accounting.
TEST(ObsInvarianceTest, BudgetedCellsStayByteIdentical) {
  Scenario Feas = diamondWithUpdates(9100, 4);
  for (uint64_t Unit : {uint64_t(2), uint64_t(100000)}) {
    auto Budget = [Unit](SynthOptions &O) { O.UnitCheckCalls = Unit; };
    for (unsigned Shards : {1u, 4u}) {
      std::string Cell =
          "unit=" + std::to_string(Unit) + " shards=" + std::to_string(Shards);
      RunResult Ref, On;
      {
        ObsToggle Off(false, false);
        Ref = runOnce(Feas, "incremental", Shards, Budget);
      }
      {
        ObsToggle Obs(true, true);
        On = runOnce(Feas, "incremental", Shards, Budget);
      }
      EXPECT_EQ(On.Status, Ref.Status) << Cell;
      EXPECT_EQ(On.Rendered, Ref.Rendered)
          << Cell << ": observability leaked into a deterministic verdict";
      // Work counters are only timing-independent at one shard: the
      // budget contract pins the verdict and the rendered sequence at
      // any shard count, but how much work losing shards do before
      // they see the winner follows scheduling (same scope as
      // learning_test's budgeted cells).
      if (Shards == 1)
        expectSameCounters(On.Stats, Ref.Stats, Cell);
    }
    // The tight budget must actually exercise the Abort regime once.
    if (Unit == 2) {
      ObsToggle Obs(true, true);
      EXPECT_EQ(runOnce(Feas, "incremental", 1, Budget).Status,
                SynthStatus::Aborted);
    }
  }
}

// --- Concurrency ------------------------------------------------------------

// Recording threads vs a concurrent exporter: the cell the TSan CI job
// runs. Failure mode here is a data race or a torn span, not an
// assertion.
TEST(ObsConcurrencyTest, RecordExportAndSnapshotRace) {
  ObsToggle On(true, true);
  obs::clearSpans();
  std::atomic<bool> Go{false}, Done{false};

  std::vector<std::thread> Writers;
  for (int T = 0; T != 4; ++T) {
    Writers.emplace_back([&] {
      while (!Go.load())
        std::this_thread::yield();
      for (int I = 0; I != 4000; ++I) {
        obs::TraceSpan Outer("test.race_outer");
        obs::TraceSpan Inner("test.race_inner");
      }
    });
  }
  std::thread Reader([&] {
    while (!Done.load())
      (void)obs::exportChromeTrace();
  });

  Go.store(true);
  for (std::thread &W : Writers)
    W.join();
  Done.store(true);
  Reader.join();

  // Every span survived the rings (each writer's 8000 fit in its own)
  // and is well-formed: matching names, sane depths.
  size_t Outers = 0;
  for (const obs::SpanRecord &S : obs::snapshotSpans()) {
    std::string N(S.Name);
    if (N != "test.race_outer" && N != "test.race_inner")
      continue;
    Outers += N == "test.race_outer";
    EXPECT_LE(S.Depth, 8u);
  }
  EXPECT_EQ(Outers, 4u * 4000u);
}

// An engine run with tracing on while another thread exports —
// end-to-end version of the race above — then the whole run written to
// a file once the engine is gone.
TEST(ObsConcurrencyTest, EngineRunsWhileSnapshotting) {
  ObsToggle On(true, true);
  Scenario S = diamondWithUpdates(9000, 3);
  std::string Path = "obs_test_engine_trace.json";

  std::atomic<bool> Done{false};
  std::thread Reader([&] {
    while (!Done.load())
      (void)obs::exportChromeTrace();
  });
  {
    EngineOptions EO;
    EO.NumWorkers = 2;
    SynthEngine Engine(EO);
    std::vector<SynthJob> Jobs;
    for (int I = 0; I != 4; ++I) {
      SynthJob J;
      J.S = S;
      PortfolioMember M;
      M.Backend = "incremental";
      M.Opts.Shards = 2;
      J.Portfolio.push_back(std::move(M));
      Jobs.push_back(std::move(J));
    }
    BatchReport Rep = Engine.run(Jobs);
    for (const SynthReport &R : Rep.Reports)
      EXPECT_EQ(R.Result.Status, SynthStatus::Success);
  }
  Done.store(true);
  Reader.join();

  ASSERT_TRUE(obs::writeChromeTrace(Path));
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr) << "writeChromeTrace produced no file";
  char Buf[16] = {};
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  std::remove(Path.c_str());
  EXPECT_GT(N, 0u);
  EXPECT_EQ(std::string(Buf).rfind("{\"", 0), 0u) << "not JSON: " << Buf;
}
