//===- bench/waits.cpp - §6 wait-removal measurements ----------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the §6 "Waits" measurements: the time spent in the
/// wait-removal pass and the residual wait counts, for (g)-style feasible
/// diamonds and (i)-style rule-granularity double diamonds. The paper
/// reports ~2 residual waits for (g), ~2.6 for (i), with ~99.9% of waits
/// removed on the largest instances.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "mc/LabelingChecker.h"
#include "synth/OrderUpdate.h"
#include "topo/Generators.h"
#include "topo/Scenario.h"

using namespace netupd;
using namespace netupd::benchutil;

int main(int Argc, char **Argv) {
  double Scale = parseScale(Argc, Argv);
  banner("§6 Waits: wait-removal runtime and residual waits");

  row({"instance", "updates", "waits-before", "waits-after", "removed%",
       "waitrm(s)"},
      {26, 9, 14, 13, 10, 10});

  // An instance that fails to synthesize, or that leaves more waits than
  // the careful sequence had, fails the run (exit 1).
  bool Failed = false;
  auto Report = [&Failed](const std::string &Name, const SynthResult &Res) {
    if (!Res.ok()) {
      std::printf("ERROR: %s did not synthesize\n", Name.c_str());
      Failed = true;
      return;
    }
    unsigned Before = Res.Stats.WaitsBeforeRemoval;
    unsigned After = Res.Stats.WaitsAfterRemoval;
    if (After > Before) {
      std::printf("ERROR: %s kept %u waits of %u\n", Name.c_str(), After,
                  Before);
      Failed = true;
      return;
    }
    double RemovedPct =
        Before == 0 ? 0.0
                    : 100.0 * static_cast<double>(Before - After) /
                          static_cast<double>(Before);
    unsigned Updates = 0;
    for (const Command &C : Res.Commands)
      Updates += C.K == Command::Kind::Update;
    row({Name, format("%u", Updates), format("%u", Before),
         format("%u", After), format("%.1f%%", RemovedPct),
         format("%.4f", Res.Stats.WaitRemovalSeconds)},
        {26, 9, 14, 13, 10, 10});
  };

  // (g)-style feasible diamonds, switch granularity.
  for (unsigned N : {100u, 300u, 800u}) {
    unsigned Size = static_cast<unsigned>(N * Scale);
    if (Size < 20)
      continue;
    Rng R(6000 + Size);
    Topology Topo = buildSmallWorld(Size, 4, 0.3, R);
    DiamondOptions Opts;
    Opts.LongPaths = true;
    std::optional<Scenario> S =
        makeDiamondScenario(Topo, R, PropertyKind::Reachability, Opts);
    if (!S)
      continue;
    FormulaFactory FF;
    LabelingChecker Checker;
    SynthResult Res = synthesizeUpdate(*S, FF, Checker);
    Report(format("diamond(n=%u)", Size), Res);
  }

  // (i)-style rule-granularity double diamonds.
  for (unsigned N : {50u, 150u, 400u}) {
    unsigned Size = static_cast<unsigned>(N * Scale);
    if (Size < 16)
      continue;
    Rng R(7000 + Size);
    Topology Topo = buildSmallWorld(Size, 4, 0.3, R);
    DiamondOptions Opts;
    Opts.LongPaths = true;
    std::optional<Scenario> S = makeDoubleDiamondScenario(Topo, R, Opts);
    if (!S)
      continue;
    FormulaFactory FF;
    LabelingChecker Checker;
    SynthOptions SOpts;
    SOpts.RuleGranularity = true;
    SynthResult Res = synthesizeUpdate(*S, FF, Checker, SOpts);
    Report(format("double-diamond(n=%u)", Size), Res);
  }

  std::printf("\npaper shape: a careful sequence has one wait per update; "
              "removal keeps ~2 (feasible) / ~2.6 (rule-granular) waits, "
              "i.e. ~99.9%% removed on large instances\n");
  return Failed ? 1 : 0;
}
