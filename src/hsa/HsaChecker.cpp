//===- hsa/HsaChecker.cpp - NetPlumber-substitute backend ------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "hsa/HsaChecker.h"

#include <cassert>

using namespace netupd;

CheckResult HsaChecker::bindImpl(KripkeStructure &Structure, Formula) {
  K = &Structure;
  UndoStack.clear();
  Engine = std::make_unique<Plumber>(K->topology(), K->config(),
                                     K->classes(), Probes);
  ++Queries;
  CheckResult R;
  R.Holds = Engine->allProbesPass();
  return R;
}

CheckResult HsaChecker::recheckImpl(const UpdateInfo &Update) {
  assert(K && Engine && "recheck before bind");
  assert(Update.OldTable && "need the pre-update table for rollback");
  UndoStack.emplace_back(Update.Sw, Update.OldTable);
  Engine->updateSwitch(Update.Sw, K->table(Update.Sw));
  ++Queries;
  CheckResult R;
  R.Holds = Engine->allProbesPass();
  return R; // No counterexamples, like NetPlumber.
}

void HsaChecker::notifyRollback() {
  assert(!UndoStack.empty() && "rollback without a matching recheck");
  auto [Sw, OldTable] = UndoStack.back();
  UndoStack.pop_back();
  Engine->updateSwitch(Sw, *OldTable);
}

std::vector<ProbeSpec>
HsaChecker::probesFromScenario(const Scenario &S) {
  std::vector<ProbeSpec> Probes;
  for (unsigned I = 0; I != S.Flows.size(); ++I) {
    const FlowSpec &F = S.Flows[I];
    ProbeSpec P;
    P.ClassIdx = I;
    P.SrcPort = F.SrcPort;
    P.DstPort = F.DstPort;
    switch (S.Kind) {
    case PropertyKind::Reachability:
      P.K = ProbeSpec::Kind::Reachability;
      break;
    case PropertyKind::Waypoint:
      P.K = ProbeSpec::Kind::Waypoint;
      P.Waypoints = F.Waypoints;
      break;
    case PropertyKind::ServiceChain:
      P.K = ProbeSpec::Kind::ServiceChain;
      P.Waypoints = F.Waypoints;
      break;
    }
    Probes.push_back(std::move(P));
  }
  return Probes;
}
