//===- obs/Trace.h - Lock-free span tracing --------------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime-switchable span tracing for the synthesis engine. Every layer
/// of the query path opens a TraceSpan (engine.job -> engine.member ->
/// synth.search -> synth.unit -> mc.bind / mc.recheck); when tracing is
/// off each site costs one relaxed atomic load and nothing else, so the
/// instrumentation can stay compiled into release builds.
///
/// Spans land in per-thread ring buffers. The writer side is lock-free:
/// the recording thread owns its buffer and publishes each slot with a
/// release store of the ring cursor; no mutex, no allocation after the
/// buffer exists. A concurrent exporter reads the slots through relaxed
/// atomics and discards any slot the cursor shows may have been
/// overwritten mid-copy, which keeps simultaneous export + record safe
/// (and clean under TSan) without ever stalling a recording thread.
/// Buffers are owned by a process-wide registry via shared_ptr, so spans
/// recorded by threads that have since exited (engine workers, DFS
/// shards) survive until exported; exited threads' buffers are pooled
/// and handed to new threads to keep the registry bounded.
///
/// Export produces Chrome-trace / Perfetto-compatible JSON ("X" complete
/// events, microsecond timestamps): write the file and open it at
/// https://ui.perfetto.dev (or chrome://tracing).
///
/// Span names must be string literals (or otherwise outlive the export):
/// the ring stores the pointer, not a copy.
///
/// Contract shared with budgets and shedding: tracing never changes a
/// verdict or a command sequence — spans observe the search, they carry
/// no control flow. tests/obs_test.cpp holds the invariance matrix.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_OBS_TRACE_H
#define NETUPD_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace netupd {
namespace obs {

/// Whether spans are being recorded. One relaxed load; off until
/// setTracing(true).
bool tracingEnabled();

/// Turns span recording on or off at runtime. Spans already buffered are
/// kept; disabling does not drop them.
void setTracing(bool Enabled);

/// One completed span as the exporter sees it. Times are nanoseconds on
/// the process-wide steady clock (epoch = first use of the trace layer).
struct SpanRecord {
  const char *Name;  ///< Static string; the site's label.
  uint64_t StartNs;  ///< Span open, ns since trace epoch.
  uint64_t DurNs;    ///< Close - open.
  uint32_t Tid;      ///< Stable per-thread index (not the OS tid).
  uint32_t Depth;    ///< Nesting depth within the thread, 0 = outermost.
};

/// RAII span: records [construction, destruction) on the calling thread.
/// When tracing is off the constructor is a relaxed load + branch and the
/// destructor a null check. \p Name must be a string literal.
class TraceSpan {
public:
  explicit TraceSpan(const char *SpanName) {
    if (tracingEnabled())
      begin(SpanName);
  }
  ~TraceSpan() {
    if (Name)
      end();
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  void begin(const char *SpanName); // Out of line; the cold path.
  void end();

  const char *Name = nullptr; ///< Null when tracing was off at open.
  uint64_t StartNs = 0;
};

/// Copies every span currently buffered, across all threads (live and
/// exited), oldest first per thread. Safe to call while other threads
/// record; slots overwritten during the copy are skipped.
std::vector<SpanRecord> snapshotSpans();

/// Chrome-trace JSON of snapshotSpans(); see file comment.
std::string exportChromeTrace();

/// Writes exportChromeTrace() to \p Path; false on I/O failure.
bool writeChromeTrace(const std::string &Path);

/// Drops all buffered spans (tests and repeated bench sections). Threads
/// keep their buffers; only the contents are discarded.
void clearSpans();

/// Total spans ever recorded minus those still snapshot-visible — i.e.
/// spans lost to ring wrap-around. For capacity diagnostics.
uint64_t droppedSpans();

/// Spans each thread's ring can hold before wrapping.
size_t traceBufferCapacity();

/// Nanoseconds since the trace epoch on the steady clock; the time base
/// used for spans, exposed so the phase clock and the engine's queue
/// timestamps share it.
uint64_t nowNs();

} // namespace obs
} // namespace netupd

#endif // NETUPD_OBS_TRACE_H
