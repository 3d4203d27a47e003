//===- synth/WaitRemoval.h - Wait-removal heuristic ------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wait-removal heuristic of §4.2 (C). ORDERUPDATE emits a careful
/// sequence (a wait between every two updates); most waits are
/// unnecessary: a wait before an update is needed only if the updated
/// switch could receive an in-flight packet that traversed some switch s0
/// before s0's own update (since the last retained wait).
///
/// "Could receive" is over-approximated per traffic class, maintaining
/// reachability-between-switches information as the paper describes:
///
///  - a packet of class c only observes the class-c slice of each table,
///    so updates to other classes' rules neither create in-flight hazards
///    for c nor are endangered by c's packets;
///  - reachability is computed over the union of the class-c forwarding
///    graphs of every configuration version since the last retained wait
///    (a packet may have been forwarded under any of them);
///  - a switch that was never reachable from an ingress since the last
///    wait cannot have processed any packet, so its update leaves nothing
///    in flight.
///
/// All three refinements over-approximate, so removal never breaks
/// correctness; together they remove the overwhelming majority of waits
/// (~99.9% in the paper's experiments).
///
/// The pass is incremental. Between two retained waits the class-c union
/// graph only gains edges, and the set of dirty switches (updated while
/// live) only gains members, so two closures per class only grow: the
/// switches reachable from an ingress, and the switches reachable from a
/// dirty switch. Both are kept as flag arrays and extended by a DFS from
/// each new edge whose source they already hold and from each newly dirty
/// switch; every query is one lookup. A retained wait rebuilds each
/// class's graph and ingress closure from the current tables once, and
/// empties its dirty closure. Only the classes an update changes gain
/// edges: for any other class the new table's slice equals the old one,
/// whose edges the graph already holds.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SYNTH_WAITREMOVAL_H
#define NETUPD_SYNTH_WAITREMOVAL_H

#include "synth/Command.h"

#include <vector>

namespace netupd {

/// Returns \p Cmds with unnecessary waits removed; the update commands
/// are moved, in order, into the result. \p Initial is the configuration
/// the sequence starts from; \p Classes the traffic classes whose packets
/// the analysis tracks. A rule that matches none of them belongs to no
/// class's slice: no tracked packet can match it, so changing it neither
/// needs a wait nor adds an edge.
CommandSeq removeWaits(const Topology &Topo, const Config &Initial,
                       const std::vector<TrafficClass> &Classes,
                       CommandSeq Cmds);

} // namespace netupd

#endif // NETUPD_SYNTH_WAITREMOVAL_H
