//===- bench/ablation_pruning.cpp - §4.2 optimization ablation -*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the §4.2 optimizations (not a paper figure; DESIGN.md
/// calls these design choices out):
///
///  - counterexample pruning (W) on/off, measured in checker calls on
///    feasible diamonds;
///  - SAT-based early termination on/off, measured on infeasible double
///    diamonds where exhaustive search is the alternative.
///
/// An ablation may change the cost, never the answer: the run exits 1 if
/// the full and ablated searches disagree on a verdict in either section,
/// or if an infeasible instance is not proved Impossible.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "mc/LabelingChecker.h"
#include "support/Timer.h"
#include "synth/OrderUpdate.h"
#include "topo/Generators.h"
#include "topo/Scenario.h"

using namespace netupd;
using namespace netupd::benchutil;

int main(int Argc, char **Argv) {
  double Scale = parseScale(Argc, Argv);
  banner("Ablation: counterexample pruning and early termination (§4.2)");

  bool Failed = false;
  auto Expect = [&Failed](bool Ok, const std::string &What) {
    if (!Ok) {
      std::printf("ERROR: %s\n", What.c_str());
      Failed = true;
    }
  };

  std::printf("\n-- counterexample pruning, rule-granular double "
              "diamonds --\n");
  row({"switches", "ops", "checks(full)", "checks(no-prune)",
       "time(full)", "time(no-prune)"},
      {10, 6, 13, 17, 11, 15});
  for (unsigned N : {30u, 60u, 120u}) {
    unsigned Size = static_cast<unsigned>(N * Scale);
    if (Size < 20)
      continue;
    Rng R(8000 + Size);
    Topology Topo = buildSmallWorld(Size, 4, 0.3, R);
    DiamondOptions Opts;
    Opts.LongPaths = true;
    std::optional<Scenario> S = makeDoubleDiamondScenario(Topo, R, Opts);
    if (!S)
      continue;

    FormulaFactory FF;
    SynthOptions Full;
    Full.RuleGranularity = true;
    SynthOptions NoPrune = Full;
    NoPrune.CexPruning = false;
    NoPrune.EarlyTermination = false;

    LabelingChecker C1, C2;
    Timer T1;
    SynthResult RFull = synthesizeUpdate(*S, FF, C1, Full);
    double FullSecs = T1.seconds();
    Timer T2;
    SynthResult RNo = synthesizeUpdate(*S, FF, C2, NoPrune);
    double NoSecs = T2.seconds();

    row({format("%u", Size), format("%u", 2 * numUpdatingSwitches(*S)),
         format("%llu", (unsigned long long)RFull.Stats.CheckCalls),
         format("%llu", (unsigned long long)RNo.Stats.CheckCalls),
         format("%.3fs", FullSecs), format("%.3fs", NoSecs)},
        {10, 6, 13, 17, 11, 15});
    Expect(RFull.Status == RNo.Status,
           format("n=%u: pruning changed the verdict (%s vs %s)", Size,
                  statusName(RFull.Status), statusName(RNo.Status)));
  }

  std::printf("\n-- early termination on infeasible double diamonds --\n");
  row({"switches", "updating", "verdict", "time(et)", "time(no-et)",
       "checks(et)", "checks(no-et)"},
      {10, 10, 12, 10, 12, 11, 13});
  for (unsigned N : {24u, 40u, 60u}) {
    unsigned Size = static_cast<unsigned>(N * Scale);
    if (Size < 16)
      continue;
    Rng R(9000 + Size);
    Topology Topo = buildSmallWorld(Size, 4, 0.3, R);
    std::optional<Scenario> S = makeDoubleDiamondScenario(Topo, R);
    if (!S)
      continue;

    FormulaFactory FF;
    SynthOptions Et;
    SynthOptions NoEt;
    NoEt.EarlyTermination = false;

    LabelingChecker C1, C2;
    Timer T1;
    SynthResult REt = synthesizeUpdate(*S, FF, C1, Et);
    double EtSecs = T1.seconds();
    Timer T2;
    SynthResult RNo = synthesizeUpdate(*S, FF, C2, NoEt);
    double NoSecs = T2.seconds();

    row({format("%u", Size), format("%u", numUpdatingSwitches(*S)),
         statusName(REt.Status),
         format("%.3fs", EtSecs), format("%.3fs", NoSecs),
         format("%llu", (unsigned long long)REt.Stats.CheckCalls),
         format("%llu", (unsigned long long)RNo.Stats.CheckCalls)},
        {10, 10, 12, 10, 12, 11, 13});
    Expect(REt.Status == RNo.Status,
           format("n=%u: early termination changed the verdict (%s vs %s)",
                  Size, statusName(REt.Status), statusName(RNo.Status)));
    Expect(REt.Status == SynthStatus::Impossible,
           format("n=%u: infeasible instance not proved impossible", Size));
  }
  std::printf("\nexpected: pruning cuts checker calls when the search "
              "backtracks (rule-granular double diamonds). On these "
              "infeasible instances every depth-1 candidate already "
              "fails, so exhaustion is immediate and early termination "
              "adds insurance rather than speed; it pays off on inputs "
              "whose failures only appear deeper in the search.\n");
  return Failed ? 1 : 0;
}
