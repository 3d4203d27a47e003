//===- obs/Metrics.cpp - Detail-tier switch -------------------------------===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <atomic>

namespace netupd {
namespace obs {

namespace {
std::atomic<bool> Detail{false};
} // namespace

// relaxed: an on/off instrumentation flag; a briefly stale read only
// delays when profiling starts or stops, never affects a verdict.
bool detailEnabled() { return Detail.load(std::memory_order_relaxed); }

void setDetail(bool Enabled) {
  Detail.store(Enabled, std::memory_order_relaxed); // relaxed: same flag
}

} // namespace obs
} // namespace netupd
