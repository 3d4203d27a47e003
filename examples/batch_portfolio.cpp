//===- examples/batch_portfolio.cpp - The batch engine in action -*- C++-*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serving many synthesis requests at once: build a batch of update
/// scenarios, hand them to the SynthEngine's worker pool, and let each
/// job race the standard backend portfolio — switch-granularity and
/// rule-granularity incremental checkers plus the batch checker. The
/// first configuration to find a correct order wins and cancels the
/// rest; instances where no switch-granularity order exists (the
/// Fig. 8(h) "double diamond") are won by the rule-granularity racer.
///
/// The run is also observed: span tracing is on for the engine's
/// lifetime, and once the engine is gone every span goes to a
/// Chrome-trace JSON file (open it at ui.perfetto.dev to see jobs,
/// portfolio members, and searches nested on a timeline). Each job's
/// report carries its own timings: time queued and time run.
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "obs/Trace.h"
#include "topo/Generators.h"

#include <cstdio>

using namespace netupd;

int main() {
  // 1. A mixed workload: ordinary diamonds (feasible at switch
  //    granularity) and adversarial double diamonds (feasible only at
  //    rule granularity).
  std::vector<SynthJob> Jobs;
  Rng R(42);
  for (unsigned I = 0; I != 4; ++I) {
    Rng Fork = R.fork();
    Topology Base = buildSmallWorld(30, 4, 0.2, Fork);
    std::optional<Scenario> S =
        makeDiamondScenario(Base, Fork, PropertyKind::Waypoint);
    if (!S)
      continue;
    SynthJob Job;
    Job.Name = "diamond-" + std::to_string(I);
    Job.S = std::move(*S);
    Job.Portfolio = defaultPortfolio();
    Jobs.push_back(std::move(Job));
  }
  for (unsigned I = 0; I != 2; ++I) {
    Rng Fork = R.fork();
    Topology Base = buildSmallWorld(30, 4, 0.2, Fork);
    std::optional<Scenario> S = makeDoubleDiamondScenario(Base, Fork);
    if (!S)
      continue;
    SynthJob Job;
    Job.Name = "double-diamond-" + std::to_string(I);
    Job.S = std::move(*S);
    Job.Portfolio = defaultPortfolio();
    Jobs.push_back(std::move(Job));
  }

  // 2. Run the whole batch on a fixed-size worker pool, with span
  //    tracing on. Reports come back in job order whatever the
  //    scheduling.
  obs::setTracing(true);
  EngineOptions EO;
  EO.NumWorkers = 4;
  BatchReport Rep;
  {
    SynthEngine Engine(EO);
    Rep = Engine.run(Jobs);

    // 3. Inspect the verdicts.
    std::printf("%zu jobs on %u workers: %u synthesized, %.3fs wall\n",
                Jobs.size(), Engine.numWorkers(), Rep.numSucceeded(),
                Rep.WallSeconds);
    for (const SynthReport &Report : Rep.Reports) {
      std::printf(
          "  %-18s %-9s won by %-18s (%zu commands, %.3fs queued, "
          "%.3fs run)\n",
          Report.JobName.c_str(), Report.ok() ? "success" : "infeasible",
          Report.ok() ? Report.Winner.c_str() : "-",
          Report.Result.Commands.size(), Report.QueueSeconds,
          Report.Seconds);
    }
    std::printf("checker queries across all racers: %llu\n",
                static_cast<unsigned long long>(Rep.TotalQueries));
  }

  // 4. The engine is gone and its workers joined, so every span they
  //    recorded is in the rings: write the timeline.
  if (!obs::writeChromeTrace("batch_portfolio_trace.json"))
    return 1;
  std::printf("\ntrace timeline: batch_portfolio_trace.json "
              "(open in ui.perfetto.dev)\n");
  return Rep.numSucceeded() == Rep.Reports.size() ? 0 : 1;
}
