//===- fuzz/Fuzz.cpp - Differential fuzzing harness ------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"

#include "engine/Engine.h"
#include "fuzz/Minimize.h"
#include "kripke/Kripke.h"
#include "mc/BackendFactory.h"
#include "mc/LabelingChecker.h"
#include "support/Strings.h"
#include "synth/Command.h"
#include "synth/OrderUpdate.h"
#include "topo/Churn.h"
#include "topo/Generators.h"

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <sstream>

using namespace netupd;
using namespace netupd::fuzz;

namespace {

std::string cellName(const std::string &Backend, bool RuleGran,
                     bool Budgeted, unsigned Shards) {
  std::string N = Backend;
  N += RuleGran ? "/rule" : "/switch";
  N += "/sh" + std::to_string(Shards);
  if (Budgeted)
    N += "/budget";
  return N;
}

/// One matrix cell: a plain synthesizeUpdate run with a fresh checker.
SynthResult runCell(const Scenario &S, const std::string &Backend,
                    bool RuleGran, const BudgetSpec *Budget,
                    unsigned Shards) {
  FormulaFactory FF;
  std::unique_ptr<CheckerBackend> Checker =
      BackendFactory::instance().create(Backend, S);
  SynthOptions O;
  O.RuleGranularity = RuleGran;
  O.WaitRemoval = false; // Minimal, byte-comparable sequences.
  if (Budget) {
    if (Budget->PerUnit)
      O.UnitCheckCalls = Budget->Amount;
    else
      O.MaxCheckCalls = Budget->Amount;
  }
  O.Shards = Shards; // An explicit 1 pins the sequential search.
  if (Shards > 1)
    O.ShardCheckerFactory = [&Backend,
                             &S]() -> std::unique_ptr<CheckerBackend> {
      return BackendFactory::instance().create(Backend, S);
    };
  return synthesizeUpdate(S, FF, *Checker, O);
}

/// Replays \p Cmds from the initial configuration, model-checking every
/// intermediate configuration with an independent batch checker, and
/// requires the sequence to land on the final configuration. "Lands on"
/// is semantic, not byte-for-byte: rule-granularity sequences assemble a
/// switch's final table slice by slice, so its rule order depends on the
/// order the classes were updated in — what must match is every class's
/// forwarding behaviour on every in-port of every diffed switch.
bool replayOk(const Scenario &S, const CommandSeq &Cmds, std::string *Why) {
  FormulaFactory FF;
  Formula Phi = S.buildProperty(FF);
  std::vector<TrafficClass> Cs = S.classes();
  auto Holds = [&](const Config &C) {
    KripkeStructure K(S.Topo, C, Cs);
    LabelingChecker Checker(LabelingChecker::Mode::Batch);
    return Checker.bind(K, Phi).Holds;
  };
  Config Cur = S.Initial;
  if (!Holds(Cur)) {
    if (Why)
      *Why = "initial configuration violates the property";
    return false;
  }
  unsigned Step = 0;
  for (const Command &C : Cmds) {
    ++Step;
    if (C.K != Command::Kind::Update)
      continue;
    Cur.setTable(C.Sw, C.NewTable);
    if (!Holds(Cur)) {
      if (Why)
        *Why = "intermediate configuration after command " +
               std::to_string(Step) + " violates the property";
      return false;
    }
  }
  for (SwitchId Sw : diffSwitches(Cur, S.Final))
    for (const TrafficClass &C : Cs)
      for (PortId Pt : S.Topo.switchPorts(Sw))
        if (!(Cur.table(Sw).apply(C.Hdr, Pt) ==
              S.Final.table(Sw).apply(C.Hdr, Pt))) {
          if (Why)
            *Why = "sequence does not reach the final configuration";
          return false;
        }
  return true;
}

Disagreement disagree(std::string What, std::string CellA, std::string CellB,
                      std::string Expected, std::string Got) {
  Disagreement D;
  D.What = std::move(What);
  D.CellA = std::move(CellA);
  D.CellB = std::move(CellB);
  D.Expected = std::move(Expected);
  D.Got = std::move(Got);
  return D;
}

/// Zoo-like indices small enough for a 100+-cell matrix run (the matrix
/// includes the symbolic backend, whose cost climbs steeply with state
/// count — large zoo members belong to the bench sweeps, not here).
const std::vector<unsigned> &smallZooIndices() {
  static const std::vector<unsigned> Small = [] {
    std::vector<unsigned> Out;
    for (unsigned I = 0; I != NumZooLike; ++I)
      if (zooLikeSize(I) <= 20)
        Out.push_back(I);
    return Out;
  }();
  return Small;
}

Topology randomTopology(Rng &R) {
  switch (R.nextBelow(5)) {
  case 0:
    return buildSmallWorld(10 + static_cast<unsigned>(R.nextBelow(9)), 4,
                           0.1 + 0.3 * R.nextDouble(), R);
  case 1:
    return buildFatTree(4);
  case 2: {
    // A single metro region: ring of PoPs plus chords. (A plain Clos is
    // deliberately absent here — its diameter-2 leaf-spine core has no
    // room for the >= 3-hop diamonds the scenario builders need.)
    WanParams P;
    P.Regions = 1;
    P.MeanRegionSize = 6 + static_cast<unsigned>(R.nextBelow(3));
    P.ChordFraction = 0.4;
    P.ExtraBackboneLinks = 0;
    return buildWan(P, R);
  }
  case 3: {
    const std::vector<unsigned> &Zoo = smallZooIndices();
    return buildZooLike(Zoo[R.nextBelow(Zoo.size())]);
  }
  default: {
    WanParams P;
    P.Regions = 2;
    P.MeanRegionSize = 4 + static_cast<unsigned>(R.nextBelow(2));
    P.ChordFraction = 0.25;
    P.ExtraBackboneLinks = 1;
    return buildWan(P, R);
  }
  }
}

/// Reverts updating switches (highest id first, never \p Keep) until the
/// update diff is at most \p MaxDiff switches — corrupted instances are
/// searched exhaustively, so their lattice must stay small.
void capDiff(Scenario &S, unsigned MaxDiff, SwitchId Keep) {
  for (;;) {
    std::vector<SwitchId> Diff = diffSwitches(S.Initial, S.Final);
    if (Diff.size() <= MaxDiff)
      return;
    auto It = std::find_if(Diff.rbegin(), Diff.rend(),
                           [&](SwitchId Sw) { return Sw != Keep; });
    if (It == Diff.rend())
      return;
    S.Final.setTable(*It, S.Initial.table(*It));
  }
}

/// Sometimes corrupts a freshly generated feasible instance into one of
/// the adversarial shapes the oracle must also agree on.
void mutateInstance(Scenario &S, Rng &R) {
  double U = R.nextDouble();
  if (U < 0.15) {
    // Blackhole the destination in the final configuration: no order can
    // work, the search must prove Impossible by exhaustion.
    SwitchId Dst = S.Flows[0].FinalPath.back();
    S.Final.setTable(Dst, Table());
    capDiff(S, 3, Dst);
  } else if (U < 0.25) {
    // Break the initial route: the instance is an InitialViolation.
    const std::vector<SwitchId> &P = S.Flows[0].InitialPath;
    if (P.size() >= 3)
      S.Initial.setTable(P[P.size() / 2], Table());
  } else if (U < 0.33) {
    // Blackhole an interior switch of the final path.
    const std::vector<SwitchId> &P = S.Flows[0].FinalPath;
    if (P.size() >= 3) {
      SwitchId Victim = P[P.size() / 2];
      S.Final.setTable(Victim, Table());
      capDiff(S, 3, Victim);
    }
  }
}

BudgetSpec drawBudget(Rng &R) {
  BudgetSpec B;
  B.PerUnit = R.nextBool(0.3);
  B.Amount = B.PerUnit ? 2 + R.nextBelow(9) : 10 + R.nextBelow(90);
  return B;
}

} // namespace

std::string Disagreement::str() const {
  std::string S = What;
  S += " [" + CellA + " vs " + CellB + "]";
  S += " expected: " + Expected + "; got: " + Got;
  return S;
}

Scenario fuzz::generateInstance(Rng &R) {
  for (;;) {
    Topology Base = randomTopology(R);
    PropertyKind Kind = static_cast<PropertyKind>(R.nextBelow(3));
    std::optional<Scenario> S;
    double Shape = R.nextDouble();
    if (Shape < 0.30) {
      DiamondOptions O;
      S = makeDiamondScenarioRetrying(Base, R, Kind, O);
    } else if (Shape < 0.55) {
      DiamondOptions O;
      O.NumFlows = 2;
      O.DisjointFlows = R.nextBool(0.75);
      S = makeDiamondScenarioRetrying(Base, R, Kind, O);
    } else if (Shape < 0.75) {
      // The Fig. 8(h) adversarial shape: switch-infeasible,
      // rule-feasible — the cross-granularity cells earn their keep here.
      DiamondOptions O;
      S = makeDoubleDiamondScenarioRetrying(Base, R, O, Kind);
    } else {
      DiamondOptions O;
      O.NumFlows = 3;
      S = makeDiamondScenarioRetrying(Base, R, Kind, O);
    }
    if (!S)
      continue; // Topology too small for the requested shape; re-roll.
    mutateInstance(*S, R);
    return std::move(*S);
  }
}

std::optional<Disagreement>
fuzz::checkScenario(const Scenario &S,
                    const std::vector<std::string> &Backends,
                    const BudgetSpec &Budget, unsigned *CellRuns,
                    const std::vector<std::string> &Shallow) {
  const BackendFactory &F = BackendFactory::instance();
  for (const std::string &B : Backends)
    if (!F.known(B))
      return disagree("unknown backend", B, "", "registered backend",
                      "no registry entry");
  if (Backends.empty())
    return std::nullopt;
  auto IsShallow = [&](const std::string &B) {
    return B != Backends[0] &&
           std::find(Shallow.begin(), Shallow.end(), B) != Shallow.end();
  };

  unsigned Cells = 0;

  SynthStatus GranRef[2] = {SynthStatus::Aborted, SynthStatus::Aborted};
  std::optional<Disagreement> Bad;

  for (bool RuleGran : {false, true}) {
    // The unlimited sequential reference cell for this granularity.
    SynthResult Ref = runCell(S, Backends[0], RuleGran, nullptr, 1);
    ++Cells;
    std::string RefName = cellName(Backends[0], RuleGran, false, 1);
    std::string RefCmds = commandSeqToString(S.Topo, Ref.Commands);
    GranRef[RuleGran] = Ref.Status;

    if (Ref.Status == SynthStatus::Success) {
      std::string Why;
      if (!replayOk(S, Ref.Commands, &Why)) {
        Bad = disagree("reference sequence fails replay", RefName, "replay",
                       "correct careful sequence", Why);
        break;
      }
    }

    for (const std::string &B : Backends) {
      const bool ShallowB = IsShallow(B);
      // Shallow backends additionally only see single-class reachability
      // instances: the symbolic checker's BDD blows up on multi-class
      // and waypoint/chain formulas (the paper's §6 reports the same —
      // NuSMV timed out beyond the smallest instances).
      if (ShallowB &&
          (S.Flows.size() != 1 || S.Kind != PropertyKind::Reachability))
        continue;
      std::optional<SynthResult> BRef; // Budget reference, per backend.
      std::string BRefCmds, BRefName;
      for (bool Budgeted : {false, true}) {
        if (ShallowB && Budgeted)
          continue;
        for (unsigned Shards : {1u, 4u}) {
          if (ShallowB && Shards != 1)
            continue;
          if (!Budgeted && B == Backends[0] && Shards == 1)
            continue; // That is the reference cell itself.
          SynthResult R = runCell(S, B, RuleGran,
                                  Budgeted ? &Budget : nullptr, Shards);
          ++Cells;
          std::string Name = cellName(B, RuleGran, Budgeted, Shards);

          if (!Budgeted) {
            if (R.Status != Ref.Status) {
              Bad = disagree("verdict mismatch", RefName, Name,
                             statusName(Ref.Status), statusName(R.Status));
              break;
            }
            if (Shards == 1) {
              std::string Cmds = commandSeqToString(S.Topo, R.Commands);
              if (Cmds != RefCmds) {
                Bad = disagree("sequential sequence drift", RefName,
                               Name, RefCmds, Cmds);
                break;
              }
            } else if (R.Status == SynthStatus::Success) {
              std::string Why;
              if (!replayOk(S, R.Commands, &Why)) {
                Bad = disagree("sharded sequence fails replay", RefName,
                               Name, "correct careful sequence", Why);
                break;
              }
            }
            if (Shards == 1 && R.Stats.StolenTasks != 0) {
              Bad = disagree("stealing engaged while inert", RefName,
                             Name, "StolenTasks == 0",
                             std::to_string(R.Stats.StolenTasks));
              break;
            }
          } else {
            if (!BRef) {
              // First budgeted cell of this backend group is the
              // 1-shard budget reference.
              BRef = R;
              BRefCmds = commandSeqToString(S.Topo, R.Commands);
              BRefName = Name;
              if (R.Status != SynthStatus::Aborted &&
                  R.Status != Ref.Status) {
                Bad = disagree("completed budget verdict contradicts "
                               "unlimited verdict",
                               RefName, Name, statusName(Ref.Status),
                               statusName(R.Status));
                break;
              }
              continue;
            }
            if (R.Status != BRef->Status) {
              Bad = disagree("budget verdict drift", BRefName, Name,
                             statusName(BRef->Status), statusName(R.Status));
              break;
            }
            std::string Cmds = commandSeqToString(S.Topo, R.Commands);
            if (Cmds != BRefCmds) {
              Bad = disagree("budget sequence drift", BRefName, Name,
                             BRefCmds, Cmds);
              break;
            }
            if (R.Stats.StolenTasks != 0) {
              Bad = disagree("deterministic budget mode stole tasks",
                             BRefName, Name, "StolenTasks == 0",
                             std::to_string(R.Stats.StolenTasks));
              break;
            }
            if (R.Status != SynthStatus::Success &&
                R.Stats.BudgetSpent != BRef->Stats.BudgetSpent) {
              Bad = disagree("budget accounting drift", BRefName, Name,
                             std::to_string(BRef->Stats.BudgetSpent),
                             std::to_string(R.Stats.BudgetSpent));
              break;
            }
          }
        }
        if (Bad)
          break;
      }
      if (Bad)
        break;
    }
    if (Bad)
      break;
  }

  if (CellRuns)
    *CellRuns += Cells;
  if (Bad)
    return Bad;

  // Cross-granularity relations between the two reference verdicts.
  bool SwIV = GranRef[0] == SynthStatus::InitialViolation;
  bool RlIV = GranRef[1] == SynthStatus::InitialViolation;
  std::string SwName = cellName(Backends[0], false, false, 1);
  std::string RlName = cellName(Backends[0], true, false, 1);
  if (SwIV != RlIV)
    return disagree("InitialViolation depends on granularity", SwName,
                    RlName, statusName(GranRef[0]), statusName(GranRef[1]));
  if (GranRef[0] == SynthStatus::Success &&
      GranRef[1] == SynthStatus::Impossible)
    return disagree("switch-feasible instance is rule-impossible", SwName,
                    RlName, "rule granularity at least as permissive",
                    "Impossible");
  return std::nullopt;
}

Scenario fuzz::generateLargeInstance(Rng &R) {
  for (;;) {
    Rng TopoRng = R.fork();
    // Hundreds of switches: the point is checker state-space scale
    // (incremental rebinds over a big Kripke structure), not lattice
    // width, so the update diff is capped after generation.
    unsigned N = 240 + 40 * static_cast<unsigned>(R.nextBelow(4));
    Topology Base =
        buildSmallWorld(N, 4, 0.06 + 0.04 * R.nextDouble(), TopoRng);
    DiamondOptions O;
    O.LongPaths = true;
    if (R.nextBool(0.3))
      O.NumFlows = 2;
    PropertyKind Kind = static_cast<PropertyKind>(R.nextBelow(3));
    std::optional<Scenario> S =
        makeDiamondScenarioRetrying(Base, R, Kind, O);
    if (!S)
      continue;
    mutateInstance(*S, R);
    capDiff(*S, 12, S->Flows[0].FinalPath.back());
    return std::move(*S);
  }
}

std::optional<Disagreement>
fuzz::checkLargeScenario(const Scenario &S, const std::string &Backend,
                         unsigned *CellRuns) {
  if (!BackendFactory::instance().known(Backend))
    return disagree("unknown backend", Backend, "", "registered backend",
                    "no registry entry");
  unsigned Cells = 0;
  std::optional<Disagreement> Bad;
  SynthStatus GranRef[2] = {SynthStatus::Aborted, SynthStatus::Aborted};
  for (bool RuleGran : {false, true}) {
    SynthResult Ref = runCell(S, Backend, RuleGran, nullptr, 1);
    ++Cells;
    GranRef[RuleGran] = Ref.Status;
    if (Ref.Status == SynthStatus::Success) {
      std::string Why;
      if (!replayOk(S, Ref.Commands, &Why)) {
        Bad = disagree("large-instance reference fails replay",
                       cellName(Backend, RuleGran, false, 1),
                       "replay", "correct careful sequence", Why);
        break;
      }
    }
  }
  if (CellRuns)
    *CellRuns += Cells;
  if (Bad)
    return Bad;
  bool SwIV = GranRef[0] == SynthStatus::InitialViolation;
  bool RlIV = GranRef[1] == SynthStatus::InitialViolation;
  if (SwIV != RlIV)
    return disagree("InitialViolation depends on granularity (large)",
                    cellName(Backend, false, false, 1),
                    cellName(Backend, true, false, 1),
                    statusName(GranRef[0]), statusName(GranRef[1]));
  if (GranRef[0] == SynthStatus::Success &&
      GranRef[1] == SynthStatus::Impossible)
    return disagree("switch-feasible large instance is rule-impossible",
                    cellName(Backend, false, false, 1),
                    cellName(Backend, true, false, 1),
                    "rule granularity at least as permissive",
                    "Impossible");
  return std::nullopt;
}

std::optional<Disagreement> fuzz::checkChurnStream(Rng &R,
                                                   unsigned *CellRuns,
                                                   Scenario *BadStep) {
  Rng TopoRng = R.fork();
  Topology Base = buildSmallWorld(
      24 + 4 * static_cast<unsigned>(R.nextBelow(3)), 4, 0.2, TopoRng);
  ChurnOptions CO;
  CO.NumFlows = 2;
  CO.Steps = 12 + static_cast<unsigned>(R.nextBelow(9));
  CO.Kind = static_cast<PropertyKind>(R.nextBelow(3));
  std::optional<ChurnTrace> Trace = makeChurnTrace(Base, R, CO);
  if (!Trace)
    return std::nullopt; // Topology too small; skip this iteration.

  std::vector<SynthJob> Jobs;
  for (size_t I = 0; I != Trace->Steps.size(); ++I) {
    SynthJob J;
    J.Name = format("churn%zu", I);
    J.S = Trace->Steps[I];
    PortfolioMember M;
    M.Backend = "incremental";
    M.Opts.Shards = 1; // Pin the sequential search: sequences byte-compare.
    M.Opts.WaitRemoval = false;
    J.Portfolio.push_back(M);
    Jobs.push_back(std::move(J));
  }

  struct Mode {
    const char *Name;
    bool Cache, Learn;
  };
  const Mode Modes[] = {{"engine/plain", false, false},
                        {"engine/cache", true, false},
                        {"engine/learn", false, true},
                        {"engine/cache+learn", true, true}};
  std::vector<std::vector<std::pair<SynthStatus, std::string>>> PerMode;
  uint64_t CacheHits[4] = {0, 0, 0, 0};
  for (unsigned M = 0; M != 4; ++M) {
    EngineOptions EO;
    // Two digest-identical jobs on concurrent workers may both miss the
    // result cache (neither has populated it yet), so the pigeonhole
    // floor below is only deterministic when cached batches run on one
    // worker. The uncached modes keep two workers, which makes the
    // cross-mode byte-compare a worker-count invariance check too.
    EO.NumWorkers = Modes[M].Cache ? 1 : 2;
    EO.CacheResults = Modes[M].Cache;
    EO.SharedLearning = Modes[M].Learn;
    SynthEngine E(EO);
    BatchReport BR = E.run(Jobs);
    if (CellRuns)
      *CellRuns += static_cast<unsigned>(Jobs.size());
    CacheHits[M] = BR.EngineCacheHits;
    std::vector<std::pair<SynthStatus, std::string>> Out;
    for (size_t I = 0; I != BR.Reports.size(); ++I)
      Out.emplace_back(BR.Reports[I].Result.Status,
                       commandSeqToString(Trace->Steps[I].Topo,
                                          BR.Reports[I].Result.Commands));
    PerMode.push_back(std::move(Out));
  }

  for (unsigned M = 1; M != 4; ++M) {
    for (size_t I = 0; I != Jobs.size(); ++I) {
      if (PerMode[M][I] == PerMode[0][I])
        continue;
      if (BadStep)
        *BadStep = Trace->Steps[I];
      return disagree(
          format("engine mode drift at churn step %zu", I), Modes[0].Name,
          Modes[M].Name,
          std::string(statusName(PerMode[0][I].first)) + " | " +
              PerMode[0][I].second,
          std::string(statusName(PerMode[M][I].first)) + " | " +
              PerMode[M][I].second);
    }
  }

  // Pigeonhole floor for the result cache: a stream with D distinct job
  // digests and N steps must serve at least N - D steps from the cache.
  std::vector<Digest> Distinct;
  for (const SynthJob &J : Jobs) {
    Digest D = digestOf(J);
    if (std::find(Distinct.begin(), Distinct.end(), D) == Distinct.end())
      Distinct.push_back(D);
  }
  uint64_t Floor = Jobs.size() - Distinct.size();
  for (unsigned M : {1u, 3u}) {
    if (CacheHits[M] < Floor) {
      if (BadStep)
        *BadStep = Trace->Steps[0];
      return disagree("result cache under-served a churn stream",
                      Modes[0].Name, Modes[M].Name,
                      "at least " + std::to_string(Floor) + " cache hits",
                      std::to_string(CacheHits[M]));
    }
  }
  return std::nullopt;
}

FuzzReport fuzz::runFuzz(const FuzzOptions &Opts, std::ostream &Log) {
  FuzzReport Rep;
  std::vector<std::string> Backends = Opts.Backends.empty()
                                          ? BackendFactory::instance().names()
                                          : Opts.Backends;
  if (!Opts.OutDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Opts.OutDir, EC);
  }

  Rng Master(Opts.Seed);
  for (unsigned Iter = 0; Iter != Opts.Iters; ++Iter) {
    Rng R = Master.fork();
    std::optional<Disagreement> D;
    Scenario Bad;
    bool Churn = Opts.ChurnEvery && (Iter + 1) % Opts.ChurnEvery == 0;
    // Offset by half a period so large iterations never displace churn
    // iterations (with the defaults, 8 | 16, an unoffset schedule
    // would swallow every other churn stream).
    bool Large = Opts.LargeEvery &&
                 (Iter + Opts.LargeEvery / 2) % Opts.LargeEvery == 0 &&
                 !Churn;

    if (Large) {
      ++Rep.LargeInstances;
      Scenario S = generateLargeInstance(R);
      D = checkLargeScenario(S, Backends[0], &Rep.CellRuns);
      if (Opts.Verbose && !D)
        Log << "iter " << Iter << ": large instance ("
            << S.Topo.numSwitches() << " switches) ok\n";
      if (D) {
        // No delta-minimization at this scale — the oracle re-runs are
        // exhaustive sequential searches over a 200+-switch fabric.
        Bad = std::move(S);
        Log << "iter " << Iter << ": DISAGREEMENT: " << D->str() << "\n";
      }
    } else if (Churn) {
      ++Rep.ChurnStreams;
      D = checkChurnStream(R, &Rep.CellRuns, &Bad);
      if (Opts.Verbose && !D)
        Log << "iter " << Iter << ": churn stream ok\n";
    } else {
      ++Rep.Instances;
      BudgetSpec Budget = drawBudget(R);
      Scenario S = generateInstance(R);
      D = checkScenario(S, Backends, Budget, &Rep.CellRuns,
                        Opts.ShallowBackends);
      if (Opts.Verbose && !D)
        Log << "iter " << Iter << ": " << S.Topo.numSwitches()
            << " switches, " << S.Flows.size() << " flows, ok\n";
      if (D) {
        Log << "iter " << Iter << ": DISAGREEMENT: " << D->str() << "\n";
        // Delta-minimize against the full matrix: any reduction that
        // still disagrees anywhere is kept.
        Oracle StillBad = [&](const Scenario &Cand) {
          return checkScenario(Cand, Backends, Budget, nullptr,
                               Opts.ShallowBackends)
              .has_value();
        };
        Bad = minimizeScenario(S, StillBad);
        if (std::optional<Disagreement> MinD =
                checkScenario(Bad, Backends, Budget, nullptr,
                              Opts.ShallowBackends))
          D = MinD; // Report the disagreement the minimized form shows.
        Log << "  minimized to " << Bad.Topo.numSwitches() << " switches, "
            << Bad.Flows.size() << " flow(s)\n";
      }
    }

    if (!D)
      continue;
    if (Churn && !Large)
      Log << "iter " << Iter << ": DISAGREEMENT: " << D->str() << "\n";

    Repro Rp;
    Rp.Seed = Opts.Seed;
    Rp.Iter = Iter;
    Rp.Title = D->What;
    Rp.CellA = D->CellA;
    Rp.CellB = D->CellB;
    Rp.Detail = "expected: " + D->Expected + "; got: " + D->Got;
    Rp.S = Bad;
    if (!Opts.OutDir.empty()) {
      std::string Path = Opts.OutDir + "/repro-seed" +
                         std::to_string(Opts.Seed) + "-iter" +
                         std::to_string(Iter) + ".repro";
      if (saveReproFile(Rp, Path)) {
        Log << "  repro written to " << Path << "\n";
        Rep.ReproPaths.push_back(Path);
      } else {
        Log << "  FAILED to write repro to " << Path << "\n";
      }
    }
    Rep.Repros.push_back(std::move(Rp));
  }

  Log << "fuzz: " << Rep.Instances << " instances, " << Rep.ChurnStreams
      << " churn streams, " << Rep.LargeInstances << " large instances, "
      << Rep.CellRuns << " cell runs, " << Rep.Repros.size()
      << " disagreement(s)\n";
  return Rep;
}
