//===- bench/mc_micro.cpp - §6 checker micro-comparison --------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the §6 micro-comparison: total model-checking time of the
/// Incremental checker versus the Batch checker and the
/// NetPlumber-substitute on the *identical* stream of model-checking
/// questions a synthesis run poses (apply update / recheck / rollback),
/// factoring out the end-to-end counterexample advantage.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "hsa/HsaChecker.h"
#include "mc/LabelingChecker.h"
#include "support/Timer.h"
#include "synth/OrderUpdate.h"
#include "topo/Generators.h"
#include "topo/Scenario.h"

using namespace netupd;
using namespace netupd::benchutil;

namespace {

/// One recorded query: apply the final table of Sw (Apply=true) and
/// recheck, or roll the last applied update back (Apply=false).
struct Query {
  bool Apply = true;
  SwitchId Sw = 0;
};

/// Builds a query stream for a scenario: walk a correct update order, and
/// before each good step probe one wrong step (apply + rollback), the
/// churn a DFS generates.
std::vector<Query> makeStream(const Scenario &S) {
  std::vector<SwitchId> Diff = diffSwitches(S.Initial, S.Final);
  std::vector<Query> Stream;
  for (size_t I = 0; I != Diff.size(); ++I) {
    // Probe a later switch first (likely wrong), then take the real step.
    if (I + 1 < Diff.size()) {
      Stream.push_back(Query{true, Diff[Diff.size() - 1 - I]});
      Stream.push_back(Query{false, Diff[Diff.size() - 1 - I]});
    }
    Stream.push_back(Query{true, Diff[I]});
  }
  return Stream;
}

/// Replays \p Stream against \p Checker; returns total seconds.
double replay(const Scenario &S, Formula Phi, CheckerBackend &Checker,
              const std::vector<Query> &Stream) {
  KripkeStructure K(S.Topo, S.Initial, S.classes());
  Timer Clock;
  Checker.bind(K, Phi);

  std::vector<KripkeStructure::UndoRecord> Undos;
  for (const Query &Q : Stream) {
    if (Q.Apply) {
      std::vector<StateId> Changed;
      Undos.push_back(
          K.applySwitchUpdate(Q.Sw, S.Final.table(Q.Sw), Changed));
      UpdateInfo Info;
      Info.Sw = Q.Sw;
      Info.OldTable = &Undos.back().Old->table();
      Info.NewTable = &Undos.back().New->table();
      Info.ChangedStates = &Changed;
      Checker.recheckAfterUpdate(Info);
    } else {
      Checker.notifyRollback();
      K.undo(Undos.back());
      Undos.pop_back();
    }
  }
  return Clock.seconds();
}

} // namespace

int main(int Argc, char **Argv) {
  double Scale = parseScale(Argc, Argv);
  banner("§6 micro-comparison: identical query streams per checker");

  row({"switches", "queries", "incr(s)", "batch(s)", "netplumber(s)",
       "x batch", "x netplumber"},
      {10, 9, 10, 10, 15, 9, 13});

  std::vector<double> BatchX, HsaX;
  for (unsigned N : {50u, 100u, 200u, 400u}) {
    unsigned Size = static_cast<unsigned>(N * Scale);
    if (Size < 16)
      continue;
    Rng R(5000 + Size);
    Topology Topo = buildSmallWorld(Size, 4, 0.3, R);
    // The paper replays the query stream of its rule-granularity
    // Small-World workload; that regime has many flows sharing switches.
    DiamondOptions Opts;
    Opts.LongPaths = true;
    Opts.NumFlows = 6;
    Opts.DisjointFlows = false;
    std::optional<Scenario> S =
        makeDiamondScenario(Topo, R, PropertyKind::Reachability, Opts);
    if (!S)
      continue;

    FormulaFactory FF;
    Formula Phi = S->buildProperty(FF);
    std::vector<Query> Stream = makeStream(*S);

    LabelingChecker Incr(LabelingChecker::Mode::Incremental);
    LabelingChecker Batch(LabelingChecker::Mode::Batch);
    HsaChecker Hsa(HsaChecker::probesFromScenario(*S));

    double IncrSecs = replay(*S, Phi, Incr, Stream);
    double BatchSecs = replay(*S, Phi, Batch, Stream);
    double HsaSecs = replay(*S, Phi, Hsa, Stream);

    double XB = IncrSecs > 0 ? BatchSecs / IncrSecs : 0;
    double XH = IncrSecs > 0 ? HsaSecs / IncrSecs : 0;
    if (XB > 0)
      BatchX.push_back(XB);
    if (XH > 0)
      HsaX.push_back(XH);
    row({format("%u", Size), format("%zu", Stream.size()),
         format("%.4f", IncrSecs), format("%.4f", BatchSecs),
         format("%.4f", HsaSecs), format("%.1fx", XB),
         format("%.1fx", XH)},
        {10, 9, 10, 10, 15, 9, 13});
  }
  std::printf("\ngeomean: Batch %.1fx, NetPlumber-substitute %.1fx slower "
              "than Incremental\n",
              geomean(BatchX), geomean(HsaX));
  std::printf("paper shape: Incremental faster on all instances; the §6 "
              "same-queries comparison reports a 2.7x mean over "
              "NetPlumber\n");
  return 0;
}
