//===- obs/Metrics.cpp - Process-wide metrics registry --------------------===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace netupd {
namespace obs {

namespace {

std::atomic<bool> Detail{[] {
  const char *E = std::getenv("NETUPD_OBS_DETAIL");
  return E && *E && std::strcmp(E, "0") != 0;
}()};

void appendJsonKey(std::string &Out, const std::string &Name, bool &First) {
  if (!First)
    Out += ',';
  First = false;
  Out += '"';
  for (char C : Name) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  Out += "\":";
}

std::string formatMs(uint64_t Ns) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6f", Ns / 1e6);
  return Buf;
}

} // namespace

// relaxed: an on/off instrumentation flag; a briefly stale read only
// delays when profiling starts or stops, never affects a verdict.
bool detailEnabled() { return Detail.load(std::memory_order_relaxed); }

void setDetail(bool Enabled) {
  Detail.store(Enabled, std::memory_order_relaxed); // relaxed: same flag
}

struct MetricsRegistry::Impl {
  mutable Mutex M;
  // Name -> metric maps. The pointees are deliberately NOT guarded: a
  // returned Counter&/Gauge&/Histogram& is all-atomic internally and
  // stays valid for the process lifetime; M guards only the maps.
  std::map<std::string, std::unique_ptr<Counter>> Counters
      NETUPD_GUARDED_BY(M);
  std::map<std::string, std::unique_ptr<Gauge>> Gauges NETUPD_GUARDED_BY(M);
  std::map<std::string, std::unique_ptr<Histogram>> Histograms
      NETUPD_GUARDED_BY(M);
  struct Provider {
    uint64_t Token;
    std::function<CacheSample()> Sample;
  };
  std::map<std::string, Provider> Providers NETUPD_GUARDED_BY(M);
  uint64_t NextToken NETUPD_GUARDED_BY(M) = 1;
};

MetricsRegistry &MetricsRegistry::instance() {
  // lint: naked-new-ok — leaked deliberately: metrics outlive any static
  // destruction order at process exit.
  static MetricsRegistry *R = new MetricsRegistry;
  return *R;
}

MetricsRegistry::Impl &MetricsRegistry::impl() const {
  static Impl *I = new Impl; // lint: naked-new-ok — same deliberate leak
  return *I;
}

Counter &MetricsRegistry::counter(const std::string &Name) {
  Impl &I = impl();
  MutexLock Lock(I.M);
  auto &Slot = I.Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  Impl &I = impl();
  MutexLock Lock(I.M);
  auto &Slot = I.Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &MetricsRegistry::histogram(const std::string &Name) {
  Impl &I = impl();
  MutexLock Lock(I.M);
  auto &Slot = I.Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>();
  return *Slot;
}

uint64_t
MetricsRegistry::registerCacheStats(const std::string &Name,
                                    std::function<CacheSample()> Sample) {
  Impl &I = impl();
  MutexLock Lock(I.M);
  uint64_t Token = I.NextToken++;
  I.Providers[Name] = Impl::Provider{Token, std::move(Sample)};
  return Token;
}

void MetricsRegistry::unregisterCacheStats(uint64_t Token) {
  Impl &I = impl();
  MutexLock Lock(I.M);
  for (auto It = I.Providers.begin(); It != I.Providers.end(); ++It) {
    if (It->second.Token == Token) {
      I.Providers.erase(It);
      return;
    }
  }
}

std::string MetricsRegistry::snapshotJson() const {
  Impl &I = impl();
  // Sample the providers outside the registry lock: a provider callback
  // may itself take locks (cache shard mutexes) and must not nest under
  // ours.
  std::vector<std::pair<std::string, std::function<CacheSample()>>> Samplers;
  {
    MutexLock Lock(I.M);
    for (const auto &P : I.Providers)
      Samplers.emplace_back(P.first, P.second.Sample);
  }
  std::vector<std::pair<std::string, CacheSample>> Caches;
  for (auto &S : Samplers)
    Caches.emplace_back(S.first, S.second());

  MutexLock Lock(I.M);
  std::string Out = "{\"counters\":{";
  bool First = true;
  char Buf[64];
  for (const auto &C : I.Counters) {
    appendJsonKey(Out, C.first, First);
    std::snprintf(Buf, sizeof(Buf), "%llu",
                  static_cast<unsigned long long>(C.second->value()));
    Out += Buf;
  }
  Out += "},\"gauges\":{";
  First = true;
  for (const auto &G : I.Gauges) {
    appendJsonKey(Out, G.first, First);
    std::snprintf(Buf, sizeof(Buf), "%lld",
                  static_cast<long long>(G.second->value()));
    Out += Buf;
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &H : I.Histograms) {
    appendJsonKey(Out, H.first, First);
    Out += "{\"count\":";
    std::snprintf(Buf, sizeof(Buf), "%llu",
                  static_cast<unsigned long long>(H.second->count()));
    Out += Buf;
    // Latencies ("_ns" names) print in ms; any other histogram counts
    // something and prints its samples as they were recorded.
    const std::string &Name = H.first;
    bool Latency = Name.size() >= 3 &&
                   Name.compare(Name.size() - 3, 3, "_ns") == 0;
    auto Field = [&](const char *Key, uint64_t V) {
      Out += ",\"";
      Out += Key;
      if (Latency) {
        Out += "_ms\":" + formatMs(V);
        return;
      }
      std::snprintf(Buf, sizeof(Buf), "\":%llu",
                    static_cast<unsigned long long>(V));
      Out += Buf;
    };
    Field("sum", H.second->sumNs());
    Field("p50", H.second->percentileNs(0.50));
    Field("p95", H.second->percentileNs(0.95));
    Field("p99", H.second->percentileNs(0.99));
    Out += '}';
  }
  Out += "},\"caches\":{";
  First = true;
  for (const auto &C : Caches) {
    appendJsonKey(Out, C.first, First);
    std::snprintf(Buf, sizeof(Buf),
                  "{\"hits\":%llu,\"misses\":%llu,\"evictions\":%llu,"
                  "\"entries\":%llu}",
                  static_cast<unsigned long long>(C.second.Hits),
                  static_cast<unsigned long long>(C.second.Misses),
                  static_cast<unsigned long long>(C.second.Evictions),
                  static_cast<unsigned long long>(C.second.Entries));
    Out += Buf;
  }
  Out += "}}";
  return Out;
}

void MetricsRegistry::resetAll() {
  Impl &I = impl();
  MutexLock Lock(I.M);
  for (auto &C : I.Counters)
    C.second->reset();
  for (auto &G : I.Gauges)
    G.second->reset();
  for (auto &H : I.Histograms)
    H.second->reset();
}

} // namespace obs
} // namespace netupd
