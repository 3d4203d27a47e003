//===- tests/steal_test.cpp - work-stealing determinism tests --*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Determinism matrix for the work-stealing layer of the sharded search
/// (SynthOptions::WorkStealing): across shard counts {1, 2, 4, 8} and
/// steal on/off, verdicts must be identical on feasible and infeasible
/// instances, budget-bound runs must stay byte-identical to the 1-shard
/// reference (commands included), and deterministic budget mode must
/// never steal at all — its unit-local state forbids cross-shard
/// hand-offs, so a single stolen task there would be a contract breach.
/// A deep-proof matrix over shards, steal and store seeding pins the
/// sharded probe-before-claim order: same verdict, same query count.
///
//===----------------------------------------------------------------------===//

#include "mc/LabelingChecker.h"
#include "support/ConstraintStore.h"
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

/// A feasible diamond scenario with at least \p MinUpdates updating
/// switches, so an 8-way split has real top-level units. Deterministic:
/// scans seeds from \p FirstSeed upward.
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
/// count and stealing mode; every shard gets its own incremental
/// labeling checker. \p Tweak adjusts the options last (store seeding,
/// early termination).
SynthResult
runSearch(const Scenario &S, unsigned Shards, bool Steal,
          uint64_t MaxCheckCalls = 0,
          const std::function<void(SynthOptions &)> &Tweak = {}) {
  LabelingChecker Checker(LabelingChecker::Mode::Incremental);
  FormulaFactory FF;
  SynthOptions Opts;
  Opts.Shards = Shards;
  Opts.WorkStealing = Steal;
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

// Feasible instances: every (shards, steal) cell of the matrix agrees
// on the verdict, and every returned sequence is genuinely correct
// (replay-checked) — stealing may change WHICH correct sequence wins,
// never whether one is found.
TEST(StealDeterminismTest, FeasibleMatrixAgreesOnVerdict) {
  Scenario S = diamondWithUpdates(100, 5);
  FormulaFactory FF;
  Formula Phi = S.buildProperty(FF);
  for (unsigned Shards : {1u, 2u, 4u, 8u}) {
    for (bool Steal : {false, true}) {
      SynthResult Res = runSearch(S, Shards, Steal);
      ASSERT_EQ(Res.Status, SynthStatus::Success)
          << Shards << " shards, steal=" << Steal;
      EXPECT_TRUE(allIntermediateConfigsHold(S.Topo, S.Initial, S.classes(),
                                             Phi, Res.Commands))
          << Shards << " shards, steal=" << Steal
          << ": unsafe sequence";
      if (Shards == 1 || !Steal) {
        EXPECT_EQ(Res.Stats.StolenTasks, 0u)
            << "stealing must be inert when off or unsharded";
      }
    }
  }
}

// Infeasible instances are the soundness-critical cells: an Impossible
// verdict claims the whole lattice was covered, so a steal descriptor
// published but never drained — or a subtree double-claimed and skipped
// — would surface here as a verdict flip across the matrix.
TEST(StealDeterminismTest, ExhaustionProofSurvivesStealing) {
  Scenario S = blackholedDiamond(300, 4);
  for (unsigned Shards : {1u, 2u, 4u, 8u})
    for (bool Steal : {false, true}) {
      SynthResult Res = runSearch(S, Shards, Steal);
      EXPECT_EQ(Res.Status, SynthStatus::Impossible)
          << Shards << " shards, steal=" << Steal
          << ": exhaustion verdict changed";
      EXPECT_TRUE(Res.Commands.empty());
    }
}

// Budget-bound cells: with MaxCheckCalls set the search runs in
// deterministic budget mode, whose verdict AND command sequence are a
// pure function of (job, budget) — byte-identical across every shard
// count and steal setting, with zero tasks stolen (budget mode turns
// stealing off internally; unit-local V/W/SAT state cannot migrate).
TEST(StealDeterminismTest, BudgetedCellsAreByteIdentical) {
  for (uint64_t Budget : {25u, 60u}) {
    // Both regimes: a budget too small to finish (deterministic Abort)
    // and, on the feasible instance at 60, enough to decide some units.
    for (bool Blackholed : {false, true}) {
      Scenario S = Blackholed ? blackholedDiamond(500, 4)
                              : diamondWithUpdates(400, 4);
      SynthResult Ref = runSearch(S, 1, /*Steal=*/false, Budget);
      std::string RefCmds = commandSeqToString(S.Topo, Ref.Commands);
      for (unsigned Shards : {1u, 2u, 4u, 8u})
        for (bool Steal : {false, true}) {
          SynthResult Res = runSearch(S, Shards, Steal, Budget);
          EXPECT_EQ(Res.Status, Ref.Status)
              << Shards << " shards, steal=" << Steal
              << ", budget=" << Budget << ": verdict drifted";
          EXPECT_EQ(commandSeqToString(S.Topo, Res.Commands), RefCmds)
              << Shards << " shards, steal=" << Steal
              << ", budget=" << Budget << ": sequence drifted";
          EXPECT_EQ(Res.Stats.StolenTasks, 0u)
              << "deterministic budget mode must never steal";
          // Total spend is shard-independent only when every unit runs
          // to its deterministic conclusion. A Success cancels sibling
          // shards mid-unit, so their partial spends are scheduling-
          // dependent (the verdict and sequence still are not).
          if (Ref.Status != SynthStatus::Success) {
            EXPECT_EQ(Res.Stats.BudgetSpent, Ref.Stats.BudgetSpent)
                << "budget accounting must not depend on shard count";
          }
        }
    }
  }
}

// Sharded searchers probe the seed set and W before they claim, so a
// refuted configuration settles without entering the shared claim
// table. That must neither lose a proof nor buy extra checks: on a deep
// exhaustion proof every shards x steal x store-seeding cell stays
// Impossible, and its checker queries (less the one bind each stolen
// task costs) stay within 1% of the 1-shard search over the same store
// content. The store is filled per cell by the same budgeted run, so
// every seeded cell starts from identical imports that refute only part
// of the lattice, leaving both the seed and the run-local W probe work.
TEST(StealDeterminismTest, ShardedRefutationKeepsProofAndQueryCount) {
  Scenario S = deepImpossible(1);
  ASSERT_FALSE(S.Flows.empty());
  for (bool Seeded : {false, true}) {
    uint64_t RefChecks = 0;
    for (unsigned Shards : {1u, 2u, 4u})
      for (bool Steal : {false, true}) {
        if (Shards == 1 && Steal)
          continue; // Stealing is inert unsharded.
        std::shared_ptr<ConstraintStore> Store;
        auto Tweak = [&](SynthOptions &O) {
          O.EarlyTermination = false;
          O.Learning = Store;
        };
        if (Seeded) {
          Store = std::make_shared<ConstraintStore>();
          runSearch(S, 1, /*Steal=*/false, /*MaxCheckCalls=*/200, Tweak);
        }
        SynthResult Res = runSearch(S, Shards, Steal, 0, Tweak);
        std::string Cell = std::to_string(Shards) + " shards, steal=" +
                           std::to_string(Steal) +
                           ", seeded=" + std::to_string(Seeded);
        ASSERT_EQ(Res.Status, SynthStatus::Impossible) << Cell;
        if (Seeded) {
          EXPECT_GT(Res.Stats.SeededPrunes, 0u) << Cell;
        }
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
}
