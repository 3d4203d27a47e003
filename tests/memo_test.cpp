//===- tests/memo_test.cpp - memoizing checker tests -----------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the MemoizingChecker decorator and the factory's "memo:"
/// specs: verdict and query-count agreement with the undecorated backend
/// across the whole registry, cross-run cache reuse (a repeated scenario
/// costs zero underlying queries), sound operation when only part of the
/// query stream hits (the rebind/desync machinery), and counter plumbing
/// into SynthStats.
///
//===----------------------------------------------------------------------===//

#include "mc/BackendFactory.h"
#include "mc/MemoizingChecker.h"
#include "synth/OrderUpdate.h"
#include "topo/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace netupd;
using namespace netupd::testutil;

namespace {

Scenario diamond(uint64_t Seed,
                 PropertyKind Kind = PropertyKind::Reachability) {
  Rng R(Seed);
  Topology Base = buildSmallWorld(16, 4, 0.2, R);
  std::optional<Scenario> S = makeDiamondScenario(Base, R, Kind);
  EXPECT_TRUE(S.has_value()) << "seed " << Seed << " grew no diamond";
  return std::move(*S);
}

/// Runs synthesizeUpdate over \p S with a memoizing wrapper around the
/// factory backend \p Backend, sharing \p Cache.
SynthResult runMemoized(const Scenario &S, const std::string &Backend,
                        const std::shared_ptr<CheckCache> &Cache,
                        unsigned &QueriesOut, SynthOptions Opts = {}) {
  std::unique_ptr<CheckerBackend> Inner =
      BackendFactory::instance().create(Backend, S);
  EXPECT_NE(Inner, nullptr) << Backend;
  MemoizingChecker Memo(std::move(Inner), Cache);
  FormulaFactory FF;
  SynthResult R = synthesizeUpdate(S, FF, Memo, Opts);
  QueriesOut = Memo.numQueries();
  return R;
}

} // namespace

TEST(BackendFactoryMemoTest, MemoSpecsResolve) {
  BackendFactory &F = BackendFactory::instance();
  for (const std::string &Name : F.names()) {
    EXPECT_TRUE(F.known("memo:" + Name)) << Name;
    // names() lists only underlying backends; memo composes at lookup.
    EXPECT_EQ(Name.rfind("memo:", 0), std::string::npos);
  }
  EXPECT_TRUE(F.known("Memo:Incremental")) << "specs are case-insensitive";
  EXPECT_TRUE(F.known("memo:memo:batch")) << "the prefix composes";
  EXPECT_FALSE(F.known("memo:no-such-backend"));

  Scenario S = diamond(1);
  EXPECT_EQ(F.create("memo:no-such-backend", S), nullptr);
  std::unique_ptr<CheckerBackend> B = F.create("memo:batch", S);
  ASSERT_NE(B, nullptr);
  EXPECT_STREQ(B->name(), "Memo(Batch)");
  EXPECT_EQ(B->cacheHits(), 0u);
}

// memo:<backend> must agree with <backend> on the verdict and drive the
// identical query stream (same CheckCalls) for every backend in the
// registry; with a cold private cache the first run computes every
// query, and an identical second run is served entirely from the cache.
TEST(MemoizingCheckerTest, AgreesWithPlainBackendAcrossRegistry) {
  for (uint64_t Seed : {21, 22}) {
    for (PropertyKind Kind :
         {PropertyKind::Reachability, PropertyKind::Waypoint}) {
      Scenario S = diamond(Seed, Kind);
      for (const std::string &Name : BackendFactory::instance().names()) {
        std::unique_ptr<CheckerBackend> Plain =
            BackendFactory::instance().create(Name, S);
        ASSERT_NE(Plain, nullptr) << Name;
        FormulaFactory FF;
        SynthResult Ref = synthesizeUpdate(S, FF, *Plain);

        auto Cache = std::make_shared<CheckCache>();
        unsigned ColdQueries = 0, WarmQueries = 0;
        SynthResult Cold = runMemoized(S, Name, Cache, ColdQueries);
        EXPECT_EQ(Cold.Status, Ref.Status) << Name;
        EXPECT_EQ(Cold.Stats.CheckCalls, Ref.Stats.CheckCalls)
            << Name << ": memoization changed the query stream";
        EXPECT_EQ(ColdQueries, Plain->numQueries()) << Name;
        EXPECT_EQ(Cold.Stats.CacheHits, 0u) << Name;
        EXPECT_EQ(Cold.Stats.CacheMisses, Ref.Stats.CheckCalls) << Name;

        SynthResult Warm = runMemoized(S, Name, Cache, WarmQueries);
        EXPECT_EQ(Warm.Status, Ref.Status) << Name;
        EXPECT_EQ(Warm.Stats.CheckCalls, Ref.Stats.CheckCalls) << Name;
        EXPECT_EQ(WarmQueries, 0u)
            << Name << ": a repeated scenario must cost no real queries";
        EXPECT_EQ(Warm.Stats.CacheHits, Ref.Stats.CheckCalls) << Name;
        EXPECT_EQ(Warm.Stats.CacheMisses, 0u) << Name;
        if (Ref.ok()) {
          EXPECT_EQ(Warm.Commands.size(), Ref.Commands.size()) << Name;
        }
      }
    }
  }
}

// Partial hits: run switch granularity first, then rule granularity with
// the same cache. The streams overlap (both visit intermediate
// configurations reachable at either granularity) but are not identical,
// so the decorator must interleave cache hits with incremental rechecks
// and re-binds — and still reproduce the plain backend's verdict.
TEST(MemoizingCheckerTest, PartialHitsStaySound) {
  for (uint64_t Seed : {9, 31}) {
    Scenario S = doubleDiamond(Seed);

    SynthOptions RuleGran;
    RuleGran.RuleGranularity = true;

    std::unique_ptr<CheckerBackend> Plain =
        BackendFactory::instance().create("incremental", S);
    FormulaFactory FF;
    SynthResult Ref = synthesizeUpdate(S, FF, *Plain, RuleGran);
    EXPECT_EQ(Ref.Status, SynthStatus::Success);

    auto Cache = std::make_shared<CheckCache>();
    unsigned SwitchQueries = 0, RuleQueries = 0;
    SynthResult SwitchRun =
        runMemoized(S, "incremental", Cache, SwitchQueries);
    EXPECT_EQ(SwitchRun.Status, SynthStatus::Impossible)
        << "double diamonds are switch-granularity infeasible";

    SynthResult RuleRun =
        runMemoized(S, "incremental", Cache, RuleQueries, RuleGran);
    EXPECT_EQ(RuleRun.Status, Ref.Status);
    EXPECT_EQ(RuleRun.Stats.CheckCalls, Ref.Stats.CheckCalls)
        << "cached results must equal freshly computed ones";
    EXPECT_EQ(RuleRun.Stats.CacheHits + RuleRun.Stats.CacheMisses,
              RuleRun.Stats.CheckCalls);
    EXPECT_GT(RuleRun.Stats.CacheHits, 0u)
        << "granularities share at least the initial configuration";
    EXPECT_LT(RuleQueries, Ref.Stats.CheckCalls)
        << "partial hits must save real queries";
  }
}

// Distinct properties over the same structure must not collide: the key
// includes the property digest.
TEST(MemoizingCheckerTest, PropertyIsPartOfTheKey) {
  Scenario Reach = diamond(33, PropertyKind::Reachability);
  Scenario Way = Reach; // Same topology/configs, different property.
  Way.Kind = PropertyKind::Waypoint;
  for (FlowSpec &F : Way.Flows)
    if (F.Waypoints.empty() && F.InitialPath.size() > 1)
      F.Waypoints.push_back(F.InitialPath[F.InitialPath.size() / 2]);

  auto Cache = std::make_shared<CheckCache>();
  unsigned Q1 = 0, Q2 = 0;
  SynthResult R1 = runMemoized(Reach, "incremental", Cache, Q1);
  SynthResult R2 = runMemoized(Way, "incremental", Cache, Q2);
  // Whatever the verdicts, the second run must have computed its own
  // initial check rather than reusing the reachability result.
  EXPECT_GT(Q2, 0u);
  (void)R1;
  (void)R2;
}

// Different inner backends must not share entries: hsa produces no
// counterexamples, and serving its cached result to a cex-guided search
// would change the search.
TEST(MemoizingCheckerTest, InnerBackendIsPartOfTheKey) {
  Scenario S = diamond(34);
  auto Cache = std::make_shared<CheckCache>();
  unsigned QHsa = 0, QIncr = 0;
  runMemoized(S, "hsa", Cache, QHsa);
  size_t EntriesAfterHsa = Cache->stats().Entries;
  runMemoized(S, "incremental", Cache, QIncr);
  EXPECT_GT(QHsa, 0u);
  EXPECT_GT(QIncr, 0u) << "incremental must not reuse hsa's entries";
  EXPECT_GT(Cache->stats().Entries, EntriesAfterHsa);
}

TEST(MemoizingCheckerTest, ProcessCacheIsSharedAndClearable) {
  const std::shared_ptr<CheckCache> &Cache =
      MemoizingChecker::processCache();
  ASSERT_NE(Cache, nullptr);
  Cache->clear();

  Scenario S = diamond(35);
  std::unique_ptr<CheckerBackend> A =
      BackendFactory::instance().create("memo:incremental", S);
  ASSERT_NE(A, nullptr);
  FormulaFactory FF;
  SynthResult First = synthesizeUpdate(S, FF, *A);
  EXPECT_EQ(First.Stats.CacheHits, 0u);
  EXPECT_GT(Cache->stats().Entries, 0u);

  std::unique_ptr<CheckerBackend> B =
      BackendFactory::instance().create("memo:incremental", S);
  FormulaFactory FF2;
  SynthResult Second = synthesizeUpdate(S, FF2, *B);
  EXPECT_EQ(Second.Status, First.Status);
  EXPECT_EQ(Second.Stats.CacheMisses, 0u)
      << "factory-built memo backends share the process cache";
  EXPECT_EQ(B->numQueries(), 0u);

  Cache->clear();
  EXPECT_EQ(Cache->stats().Entries, 0u);
}
