//===- hsa/HsaChecker.h - NetPlumber-substitute backend --------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adapts the Plumber engine to the CheckerBackend interface the
/// synthesizer drives. Unlike the LTL checkers, the probe language covers
/// exactly the property families of §6 (reachability, waypointing,
/// service chaining) — the probes are supplied up front (usually derived
/// from a Scenario) and the LTL formula passed to bind() is unused. Like
/// NetPlumber, the backend produces no counterexamples, so the
/// synthesizer cannot learn from failures when driving it (§6 notes this
/// disadvantage in the end-to-end comparison).
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_HSA_HSACHECKER_H
#define NETUPD_HSA_HSACHECKER_H

#include "hsa/Plumber.h"
#include "mc/CheckerBackend.h"
#include "topo/Scenario.h"

#include <memory>

namespace netupd {

/// The NetPlumber-substitute backend; see file comment.
class HsaChecker : public CheckerBackend {
public:
  explicit HsaChecker(std::vector<ProbeSpec> Probes)
      : Probes(std::move(Probes)) {}

  void notifyRollback() override;
  bool providesCounterexamples() const override { return false; }
  const char *name() const override { return "NetPlumber"; }

  /// Work counters of the underlying engine.
  uint64_t numPipeComputations() const {
    return Engine ? Engine->numPipeComputations() : 0;
  }
  uint64_t numFlowExpansions() const {
    return Engine ? Engine->numFlowExpansions() : 0;
  }

  /// Derives the probe specs describing a scenario's property.
  static std::vector<ProbeSpec> probesFromScenario(const Scenario &S);

protected:
  CheckResult bindImpl(KripkeStructure &K, Formula Phi) override;
  CheckResult recheckImpl(const UpdateInfo &Update) override;

private:
  std::vector<ProbeSpec> Probes;
  std::unique_ptr<Plumber> Engine;
  KripkeStructure *K = nullptr;
  /// (switch, pre-update table) stack for rollbacks. The tables are the
  /// structure's interned ones, which outlive every update on it.
  std::vector<std::pair<SwitchId, const Table *>> UndoStack;
};

} // namespace netupd

#endif // NETUPD_HSA_HSACHECKER_H
