//===- tests/steal_test.cpp - work-stealing determinism tests --*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Determinism matrix for the work-stealing layer of the sharded search,
/// which steals whenever several shards share the pruning scope: across
/// shard counts {1, 2, 4, 8}, verdicts must be identical on feasible and
/// infeasible instances, budget-bound runs must stay byte-identical to
/// the 1-shard reference (commands included), and deterministic budget
/// mode must never steal at all — its unit scopes forbid cross-shard
/// hand-offs, so a single stolen task there would be a contract breach.
/// A deep-proof matrix over shard counts pins the sharded
/// probe-before-claim order: same verdict, same query count.
///
//===----------------------------------------------------------------------===//

#include "mc/LabelingChecker.h"
#include "synth/Command.h"
#include "synth/OrderUpdate.h"
#include "topo/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

using namespace netupd;
using namespace netupd::testutil;

namespace {

/// An exhaustion-proof instance: a feasible diamond whose destination is
/// blackholed in the final configuration, so every order fails and the
/// search must walk the whole safe sub-lattice to report Impossible.
/// This is the workload where stealing actually engages (many rechecks
/// per unit) and where an unsoundly dropped steal descriptor would turn
/// into a false Impossible.
Scenario blackholedDiamond(uint64_t FirstSeed, unsigned MinUpdates) {
  Scenario S = diamondWithUpdates(FirstSeed, MinUpdates);
  if (S.Flows.empty())
    return S;
  SwitchId Dst = S.Flows[0].FinalPath.back();
  S.Final.setTable(Dst, Table());
  return S;
}

/// Runs the plain (portfolio-free) search over \p S with the given shard
/// count; every shard gets its own incremental labeling checker.
/// \p Tweak adjusts the options last (early termination).
SynthResult
runSearch(const Scenario &S, unsigned Shards, uint64_t MaxCheckCalls = 0,
          const std::function<void(SynthOptions &)> &Tweak = {}) {
  LabelingChecker Checker(LabelingChecker::Mode::Incremental);
  FormulaFactory FF;
  SynthOptions Opts;
  Opts.Shards = Shards;
  Opts.MaxCheckCalls = MaxCheckCalls;
  Opts.WaitRemoval = false; // Keep command sequences minimal and stable.
  if (Tweak)
    Tweak(Opts);
  if (Shards > 1)
    Opts.ShardCheckerFactory = []() -> std::unique_ptr<CheckerBackend> {
      return std::make_unique<LabelingChecker>(
          LabelingChecker::Mode::Incremental);
    };
  return synthesizeUpdate(S, FF, Checker, Opts);
}

} // namespace

// Feasible instances: every shard count agrees on the verdict, and
// every returned sequence is genuinely correct (replay-checked) —
// stealing may change WHICH correct sequence wins, never whether one is
// found.
TEST(StealDeterminismTest, FeasibleMatrixAgreesOnVerdict) {
  Scenario S = diamondWithUpdates(100, 5);
  FormulaFactory FF;
  Formula Phi = S.buildProperty(FF);
  for (unsigned Shards : {1u, 2u, 4u, 8u}) {
    SynthResult Res = runSearch(S, Shards);
    ASSERT_EQ(Res.Status, SynthStatus::Success) << Shards << " shards";
    EXPECT_TRUE(allIntermediateConfigsHold(S.Topo, S.Initial, S.classes(),
                                           Phi, Res.Commands))
        << Shards << " shards: unsafe sequence";
    if (Shards == 1) {
      EXPECT_EQ(Res.Stats.StolenTasks, 0u)
          << "stealing must be inert unsharded";
    }
  }
}

// Infeasible instances are the soundness-critical cells: an Impossible
// verdict claims the whole lattice was covered, so a steal descriptor
// published but never drained — or a subtree double-claimed and skipped
// — would surface here as a verdict flip across the matrix.
TEST(StealDeterminismTest, ExhaustionProofSurvivesStealing) {
  Scenario S = blackholedDiamond(300, 4);
  for (unsigned Shards : {1u, 2u, 4u, 8u}) {
    SynthResult Res = runSearch(S, Shards);
    EXPECT_EQ(Res.Status, SynthStatus::Impossible)
        << Shards << " shards: exhaustion verdict changed";
    EXPECT_TRUE(Res.Commands.empty());
  }
}

// Budget-bound cells: with MaxCheckCalls set the search runs in
// deterministic budget mode, whose verdict AND command sequence are a
// pure function of (job, budget) — byte-identical across every shard
// count, with zero tasks stolen (budget mode never steals; a unit scope
// cannot migrate).
TEST(StealDeterminismTest, BudgetedCellsAreByteIdentical) {
  for (uint64_t Budget : {25u, 60u}) {
    // Both regimes: a budget too small to finish (deterministic Abort)
    // and, on the feasible instance at 60, enough to decide some units.
    for (bool Blackholed : {false, true}) {
      Scenario S = Blackholed ? blackholedDiamond(500, 4)
                              : diamondWithUpdates(400, 4);
      SynthResult Ref = runSearch(S, 1, Budget);
      std::string RefCmds = commandSeqToString(S.Topo, Ref.Commands);
      for (unsigned Shards : {1u, 2u, 4u, 8u}) {
        SynthResult Res = runSearch(S, Shards, Budget);
        EXPECT_EQ(Res.Status, Ref.Status)
            << Shards << " shards, budget=" << Budget << ": verdict drifted";
        EXPECT_EQ(commandSeqToString(S.Topo, Res.Commands), RefCmds)
            << Shards << " shards, budget=" << Budget
            << ": sequence drifted";
        EXPECT_EQ(Res.Stats.StolenTasks, 0u)
            << "deterministic budget mode must never steal";
        // Total spend is shard-independent only when every unit runs to
        // its deterministic conclusion. A Success cancels sibling shards
        // mid-unit, so their partial spends are scheduling-dependent
        // (the verdict and sequence still are not).
        if (Ref.Status != SynthStatus::Success) {
          EXPECT_EQ(Res.Stats.BudgetSpent, Ref.Stats.BudgetSpent)
              << "budget accounting must not depend on shard count";
        }
      }
    }
  }
}

// Sharded searchers probe W before they claim, so a refuted
// configuration settles without entering the shared claim table. That
// must neither lose a proof nor buy extra checks: on a deep exhaustion
// proof every shard count stays Impossible, and its checker queries
// (less the one bind each stolen task costs) stay within 1% of the
// 1-shard search.
TEST(StealDeterminismTest, ShardedRefutationKeepsProofAndQueryCount) {
  Scenario S = deepImpossible(1);
  ASSERT_FALSE(S.Flows.empty());
  uint64_t RefChecks = 0;
  for (unsigned Shards : {1u, 2u, 4u}) {
    SynthResult Res = runSearch(
        S, Shards, 0, [](SynthOptions &O) { O.EarlyTermination = false; });
    std::string Cell = std::to_string(Shards) + " shards";
    ASSERT_EQ(Res.Status, SynthStatus::Impossible) << Cell;
    uint64_t Checks = Res.Stats.CheckCalls - Res.Stats.StolenTasks;
    if (Shards == 1) {
      RefChecks = Checks;
      continue;
    }
    EXPECT_LE(std::llabs(static_cast<long long>(Checks) -
                         static_cast<long long>(RefChecks)) *
                  100,
              static_cast<long long>(RefChecks))
        << Cell << ": " << Checks << " checks against " << RefChecks
        << " at 1 shard";
  }
}
