//===- topo/Churn.h - Rolling-maintenance churn traces ---------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Churn traces: streams of dozens of successive update scenarios over one
/// network, the shape a controller produces during rolling maintenance.
/// The trace carves several node-disjoint diamonds out of a base topology
/// and then repeatedly reroutes a randomly chosen flow from its current
/// branch to the other one; step i's initial configuration is exactly step
/// i-1's final configuration.
///
/// Because flows flip back and forth between two branch assignments, the
/// same (initial, final) pair — and hence the same scenario digest —
/// recurs throughout a long trace. That is deliberate: churn traces are
/// how the engine's result cache, incremental digests and portfolio
/// shedding get exercised the way a controller would exercise them,
/// rather than by one-shot synthetic jobs.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_TOPO_CHURN_H
#define NETUPD_TOPO_CHURN_H

#include "topo/Scenario.h"

#include <optional>
#include <vector>

namespace netupd {

/// Options for makeChurnTrace.
struct ChurnOptions {
  /// Number of node-disjoint diamonds (flows) carved out of the base
  /// topology. Each step reroutes exactly one of them.
  unsigned NumFlows = 2;
  /// Number of successive update scenarios in the trace.
  unsigned Steps = 24;
  /// Property family asserted for every flow at every step.
  PropertyKind Kind = PropertyKind::Reachability;
  /// Knobs forwarded to the underlying diamond generator (NumFlows is
  /// overridden by ChurnOptions::NumFlows).
  DiamondOptions Diamond;
};

/// A stream of successive update scenarios over one shared topology.
struct ChurnTrace {
  /// The scenarios, in controller order. For every i > 0,
  /// Steps[i].Initial == Steps[i-1].Final (same rule tables), and all
  /// steps share one topology and flow set.
  std::vector<Scenario> Steps;
};

/// Builds a churn trace over (a copy of) \p Base, or std::nullopt if the
/// topology cannot fit ChurnOptions::NumFlows disjoint diamonds.
/// Deterministic in (\p Base, \p R's state, \p Opts). Every step is a
/// feasible single-flow reroute across a diamond, so a correct
/// synthesizer reports Success on each one.
std::optional<ChurnTrace> makeChurnTrace(const Topology &Base, Rng &R,
                                         const ChurnOptions &Opts = {});

} // namespace netupd

#endif // NETUPD_TOPO_CHURN_H
