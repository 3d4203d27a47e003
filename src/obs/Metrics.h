//===- obs/Metrics.h - Detail-tier switch ----------------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The detail tier: a process-wide switch that arms the per-shard phase
/// clock in the search (OrderUpdate.cpp), which fills
/// SynthStats::{Check,Mutate,Prune,Sat}Seconds. Off by default; when off
/// each shard pays one relaxed load at its start and no clock reads.
///
/// Same hard contract as tracing (obs/Trace.h): the detail tier never
/// changes a verdict or a command sequence.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_OBS_METRICS_H
#define NETUPD_OBS_METRICS_H

namespace netupd {
namespace obs {

/// Whether the detail tier is on; see file comment. One relaxed load.
bool detailEnabled();

/// Turns the detail tier on or off at runtime.
void setDetail(bool Enabled);

} // namespace obs
} // namespace netupd

#endif // NETUPD_OBS_METRICS_H
