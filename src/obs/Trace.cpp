//===- obs/Trace.cpp - Lock-free span tracing -----------------------------===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "support/ThreadAnnotations.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace netupd {
namespace obs {

namespace {

/// One ring slot. All fields are atomics so a concurrent exporter's reads
/// are data-race-free; only the owning thread writes, so every store can
/// be relaxed — ordering against the reader comes from the ring cursor
/// (release on publish, acquire on snapshot).
struct Slot {
  std::atomic<const char *> Name{nullptr};
  std::atomic<uint64_t> StartNs{0};
  std::atomic<uint64_t> DurNs{0};
  std::atomic<uint32_t> Depth{0};
};

constexpr size_t RingCapacity = 1u << 15; // ~32k spans/thread, ~1.5 MiB.

/// Per-thread span ring. Owned by the registry through shared_ptr so it
/// outlives its thread; single writer (the owning thread), any number of
/// concurrent snapshot readers.
struct ThreadBuffer {
  explicit ThreadBuffer(uint32_t Tid) : Tid(Tid), Slots(RingCapacity) {}

  void record(const char *Name, uint64_t StartNs, uint64_t DurNs,
              uint32_t Depth) {
    // relaxed: single-writer ring — only the owning thread stores; the
    // release on WriteIdx below is the sole publication edge readers need.
    uint64_t I = WriteIdx.load(std::memory_order_relaxed);
    Slot &S = Slots[I % RingCapacity];
    S.Name.store(Name, std::memory_order_relaxed);
    S.StartNs.store(StartNs, std::memory_order_relaxed);
    S.DurNs.store(DurNs, std::memory_order_relaxed);
    S.Depth.store(Depth, std::memory_order_relaxed);
    // Publish: a reader that acquires I+1 sees the fields above.
    WriteIdx.store(I + 1, std::memory_order_release);
  }

  /// Copies the buffered spans, oldest first, skipping indices below the
  /// clearSpans() watermark. Any slot the writer may have reused while we
  /// copied is discarded: slot for logical index I is being rewritten
  /// only while the cursor sits at I + Capacity, so after re-reading the
  /// cursor we keep exactly the indices it proves untouched.
  void snapshot(std::vector<SpanRecord> &Out) const {
    uint64_t End = WriteIdx.load(std::memory_order_acquire);
    uint64_t Begin = End > RingCapacity ? End - RingCapacity : 0;
    Begin = std::max(Begin, ClearedBelow.load(std::memory_order_acquire));
    if (Begin >= End)
      return;
    std::vector<SpanRecord> Local;
    Local.reserve(End - Begin);
    for (uint64_t I = Begin; I < End; ++I) {
      const Slot &S = Slots[I % RingCapacity];
      SpanRecord R;
      // relaxed: field reads are ordered by the acquire of WriteIdx above;
      // slots the writer reused meanwhile are discarded by the re-read
      // of the cursor after the copy loop.
      R.Name = S.Name.load(std::memory_order_relaxed);
      R.StartNs = S.StartNs.load(std::memory_order_relaxed);
      R.DurNs = S.DurNs.load(std::memory_order_relaxed);
      R.Depth = S.Depth.load(std::memory_order_relaxed);
      R.Tid = Tid;
      Local.push_back(R);
    }
    uint64_t End2 = WriteIdx.load(std::memory_order_acquire);
    // Index I is safe iff the writer never started its overwrite, i.e.
    // the cursor never reached I + Capacity while we read.
    uint64_t FirstSafe = End2 > RingCapacity ? End2 - RingCapacity + 1 : 0;
    for (uint64_t I = Begin; I < End; ++I)
      if (I >= FirstSafe && Local[I - Begin].Name != nullptr)
        Out.push_back(Local[I - Begin]);
  }

  uint32_t Tid;
  std::vector<Slot> Slots;
  /// Logical append cursor; slot I lives at I % Capacity. Monotone, so
  /// (cursor - snapshot-visible) counts wrap-dropped spans.
  std::atomic<uint64_t> WriteIdx{0};
  /// Cursor value when clearSpans() last ran; snapshot ignores older
  /// indices. Stores happen under the registry mutex, loads anywhere.
  std::atomic<uint64_t> ClearedBelow{0};
};

/// The process-wide buffer registry plus a pool of buffers whose owning
/// thread exited; new threads adopt pooled buffers so span storage stays
/// proportional to peak concurrency, not total threads ever created.
struct Registry {
  Mutex M;
  std::vector<std::shared_ptr<ThreadBuffer>> All NETUPD_GUARDED_BY(M);
  std::vector<std::shared_ptr<ThreadBuffer>> Free NETUPD_GUARDED_BY(M);
  uint32_t NextTid NETUPD_GUARDED_BY(M) = 0;

  std::shared_ptr<ThreadBuffer> acquire() {
    MutexLock Lock(M);
    if (!Free.empty()) {
      auto B = std::move(Free.back());
      Free.pop_back();
      return B;
    }
    auto B = std::make_shared<ThreadBuffer>(NextTid++);
    All.push_back(B);
    return B;
  }

  void release(std::shared_ptr<ThreadBuffer> B) {
    MutexLock Lock(M);
    Free.push_back(std::move(B));
  }
};

Registry &registry() {
  // lint: naked-new-ok — leaked deliberately: spans outlive exit order.
  static Registry *R = new Registry;
  return *R;
}

std::atomic<bool> Enabled{false};

/// Binds a buffer to the thread for its lifetime and returns it to the
/// pool on exit.
struct BufferHolder {
  std::shared_ptr<ThreadBuffer> Buf;
  ~BufferHolder() {
    if (Buf)
      registry().release(std::move(Buf));
  }
};

ThreadBuffer &threadBuffer() {
  thread_local BufferHolder H;
  if (!H.Buf)
    H.Buf = registry().acquire();
  return *H.Buf;
}

thread_local uint32_t SpanDepth = 0;

std::chrono::steady_clock::time_point traceEpoch() {
  static const std::chrono::steady_clock::time_point E =
      std::chrono::steady_clock::now();
  return E;
}

/// Escapes \p S into \p Out as a JSON string body (names are literals,
/// but stay robust to punctuation in them).
void appendJsonEscaped(std::string &Out, const char *S) {
  for (; *S; ++S) {
    char C = *S;
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Hex[8];
      std::snprintf(Hex, sizeof(Hex), "\\u%04x", C);
      Out += Hex;
    } else {
      Out += C;
    }
  }
}

} // namespace

// relaxed: an on/off instrumentation flag; a stale read only delays when
// tracing starts or stops, never affects a verdict.
bool tracingEnabled() { return Enabled.load(std::memory_order_relaxed); }

void setTracing(bool On) {
  (void)traceEpoch(); // Pin the epoch before the first span.
  Enabled.store(On, std::memory_order_relaxed); // relaxed: same flag
}

uint64_t nowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - traceEpoch())
                                   .count());
}

void TraceSpan::begin(const char *SpanName) {
  Name = SpanName;
  StartNs = nowNs();
  ++SpanDepth;
}

void TraceSpan::end() {
  uint32_t Depth = --SpanDepth;
  threadBuffer().record(Name, StartNs, nowNs() - StartNs, Depth);
}

std::vector<SpanRecord> snapshotSpans() {
  std::vector<std::shared_ptr<ThreadBuffer>> Bufs;
  {
    Registry &R = registry();
    MutexLock Lock(R.M);
    Bufs = R.All;
  }
  std::vector<SpanRecord> Out;
  for (auto &B : Bufs)
    B->snapshot(Out);
  return Out;
}

std::string exportChromeTrace() {
  std::vector<SpanRecord> Spans = snapshotSpans();
  std::stable_sort(Spans.begin(), Spans.end(),
                   [](const SpanRecord &A, const SpanRecord &B) {
                     if (A.Tid != B.Tid)
                       return A.Tid < B.Tid;
                     return A.StartNs < B.StartNs;
                   });
  std::string Out;
  Out.reserve(128 + Spans.size() * 96);
  Out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char Buf[160];
  bool FirstEvent = true;
  for (const SpanRecord &S : Spans) {
    if (!FirstEvent)
      Out += ',';
    FirstEvent = false;
    Out += "{\"name\":\"";
    appendJsonEscaped(Out, S.Name);
    Out += "\",";
    std::snprintf(Buf, sizeof(Buf),
                  "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"depth\":%u}}",
                  S.StartNs / 1000.0, S.DurNs / 1000.0, S.Tid, S.Depth);
    Out += Buf;
  }
  Out += "]}";
  return Out;
}

bool writeChromeTrace(const std::string &Path) {
  std::string Json = exportChromeTrace();
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
  bool Ok = Written == Json.size();
  return std::fclose(F) == 0 && Ok;
}

void clearSpans() {
  Registry &R = registry();
  MutexLock Lock(R.M);
  for (auto &B : R.All) {
    uint64_t End = B->WriteIdx.load(std::memory_order_acquire);
    B->ClearedBelow.store(End, std::memory_order_release);
  }
}

uint64_t droppedSpans() {
  Registry &R = registry();
  MutexLock Lock(R.M);
  uint64_t Dropped = 0;
  for (auto &B : R.All) {
    uint64_t End = B->WriteIdx.load(std::memory_order_acquire);
    uint64_t Cleared = B->ClearedBelow.load(std::memory_order_acquire);
    uint64_t Live = End - Cleared;
    if (Live > RingCapacity)
      Dropped += Live - RingCapacity;
  }
  return Dropped;
}

size_t traceBufferCapacity() { return RingCapacity; }

} // namespace obs
} // namespace netupd
