//===- benchsuite/Oracle.h - Output checks for bench_suite -----*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two oracles bench_suite applies outside its timed phase.
///
///  - Known answers: every generated job carries the verdict its
///    construction guarantees (a feasible diamond must succeed, a
///    blackholed one is impossible, a budgeted job may also abort).
///  - Replay: a Success sequence is re-checked from the initial
///    configuration with an independent batch LabelingChecker on a fresh
///    Kripke structure per step, and must land semantically on the final
///    configuration (every class's forwarding on every port of every
///    differing switch). This is a bench-side copy of the differential
///    fuzzer's replay check, kept apart from src/ on purpose: the
///    benchmark must not trust the code it measures.
///
/// oracleSelfTest() proves at start-up that the replay check rejects a
/// corrupted sequence, so a vacuous oracle cannot pass a run.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_BENCHSUITE_ORACLE_H
#define NETUPD_BENCHSUITE_ORACLE_H

#include "kripke/Kripke.h"
#include "mc/LabelingChecker.h"
#include "synth/Command.h"
#include "synth/OrderUpdate.h"
#include "topo/Generators.h"
#include "topo/Scenario.h"

#include <optional>
#include <string>
#include <vector>

namespace netupd {
namespace suite {

/// The verdict a job's construction guarantees.
enum class Expect : uint8_t {
  Success,
  Impossible,
  /// A budgeted job: Aborted, or the unbudgeted answer if the budget
  /// sufficed.
  SuccessOrAborted,
  ImpossibleOrAborted,
};

inline bool verdictOk(Expect Want, SynthStatus Got) {
  switch (Want) {
  case Expect::Success:
    return Got == SynthStatus::Success;
  case Expect::Impossible:
    return Got == SynthStatus::Impossible;
  case Expect::SuccessOrAborted:
    return Got == SynthStatus::Success || Got == SynthStatus::Aborted;
  case Expect::ImpossibleOrAborted:
    return Got == SynthStatus::Impossible || Got == SynthStatus::Aborted;
  }
  return false;
}

/// True if applying \p Cmds to the initial configuration forwards every
/// traffic class exactly as the final configuration does. Rule-granularity
/// sequences assemble tables slice by slice, so rule order may differ;
/// forwarding behaviour may not.
inline bool reachesFinal(const Scenario &S, const CommandSeq &Cmds) {
  Config Cur = S.Initial;
  applyCommands(Cur, Cmds);
  std::vector<TrafficClass> Cs = S.classes();
  for (SwitchId Sw : diffSwitches(Cur, S.Final))
    for (const TrafficClass &C : Cs)
      for (PortId Pt : S.Topo.switchPorts(Sw))
        if (!(Cur.table(Sw).apply(C.Hdr, Pt) ==
              S.Final.table(Sw).apply(C.Hdr, Pt)))
          return false;
  return true;
}

/// Full replay; see the file comment. \p Why receives the first failure.
inline bool replayOk(const Scenario &S, const CommandSeq &Cmds,
                     std::string *Why) {
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
      *Why = "configuration after command " + std::to_string(Step) +
             " violates the property";
      return false;
    }
  }
  if (!reachesFinal(S, Cmds)) {
    *Why = "sequence does not reach the final configuration";
    return false;
  }
  return true;
}

/// Synthesizes one small fixed diamond, requires its sequence to replay,
/// then drops one update and requires the replay to reject it.
inline bool oracleSelfTest(std::string *Why) {
  Rng R(20150613);
  std::optional<Scenario> S = makeDiamondScenarioRetrying(
      buildSmallWorld(24, 4, 0.2, R), R, PropertyKind::Reachability);
  if (!S) {
    *Why = "self-test: no diamond";
    return false;
  }
  FormulaFactory FF;
  LabelingChecker Checker(LabelingChecker::Mode::Incremental);
  SynthResult Res = synthesizeUpdate(*S, FF, Checker);
  if (!Res.ok() || !replayOk(*S, Res.Commands, Why)) {
    *Why = "self-test: a verified sequence failed to replay: " + *Why;
    return false;
  }
  CommandSeq Broken = Res.Commands;
  for (auto It = Broken.begin(); It != Broken.end(); ++It)
    if (It->K == Command::Kind::Update) {
      Broken.erase(It);
      break;
    }
  std::string Ignored;
  if (replayOk(*S, Broken, &Ignored)) {
    *Why = "self-test: the oracle accepted a sequence missing an update";
    return false;
  }
  return true;
}

} // namespace suite
} // namespace netupd

#endif // NETUPD_BENCHSUITE_ORACLE_H
