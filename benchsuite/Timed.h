//===- benchsuite/Timed.h - Timing checker decorator -----------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's window into the checker layer: a CheckerBackend
/// decorator that times every bind() and recheckAfterUpdate() of the
/// backend it wraps into bench-side histograms, and forwards everything
/// else (rollbacks, counterexample support, memo counters) unchanged. Its
/// query counter mirrors the inner backend's, so SynthStats::BackendQueries
/// reads the same with or without it.
///
/// registerTimedBackends() installs "timed:<spec>" in the BackendFactory
/// for each spec; the traced run rewrites every portfolio member's backend
/// to its timed twin, so the engine, the shard factory and shedding treat
/// it like any registered backend. Budgets are charged once, by this
/// decorator's own entry point, never again by the inner backend's.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_BENCHSUITE_TIMED_H
#define NETUPD_BENCHSUITE_TIMED_H

#include "Stats.h"

#include "mc/BackendFactory.h"
#include "mc/CheckerBackend.h"
#include "obs/Trace.h"

#include <memory>
#include <string>
#include <vector>

namespace netupd {
namespace suite {

/// Per-call timings gathered by every TimedChecker of one run.
struct CheckClocks {
  LogHistogram BindNs;
  LogHistogram RecheckNs;
};

class TimedChecker final : public CheckerBackend {
public:
  TimedChecker(std::unique_ptr<CheckerBackend> Inner, CheckClocks &Clocks)
      : Inner(std::move(Inner)), Clocks(Clocks) {}

  void notifyRollback() override { Inner->notifyRollback(); }
  bool providesCounterexamples() const override {
    return Inner->providesCounterexamples();
  }
  const char *name() const override { return Inner->name(); }
  uint64_t cacheHits() const override { return Inner->cacheHits(); }
  uint64_t cacheMisses() const override { return Inner->cacheMisses(); }

protected:
  CheckResult bindImpl(KripkeStructure &K, Formula Phi) override {
    uint64_t T0 = obs::nowNs();
    CheckResult R = Inner->bind(K, Phi);
    Clocks.BindNs.record(obs::nowNs() - T0);
    syncQueries();
    return R;
  }
  CheckResult recheckImpl(const UpdateInfo &Update) override {
    uint64_t T0 = obs::nowNs();
    CheckResult R = Inner->recheckAfterUpdate(Update);
    Clocks.RecheckNs.record(obs::nowNs() - T0);
    syncQueries();
    return R;
  }

private:
  void syncQueries() {
    // relaxed: statistics counter, same discipline as the base class.
    Queries.store(Inner->numQueries(), std::memory_order_relaxed);
  }

  std::unique_ptr<CheckerBackend> Inner;
  CheckClocks &Clocks;
};

/// The factory name of \p Spec's timed twin.
inline std::string timedSpec(const std::string &Spec) {
  return "timed:" + Spec;
}

/// Registers timedSpec(S) for every S in \p Specs; \p Clocks must outlive
/// every backend the factory builds from these entries.
inline void registerTimedBackends(const std::vector<std::string> &Specs,
                                  CheckClocks &Clocks) {
  for (const std::string &Spec : Specs) {
    CheckClocks *C = &Clocks;
    BackendFactory::instance().registerBackend(
        timedSpec(Spec),
        [Spec, C](const Scenario &S) -> std::unique_ptr<CheckerBackend> {
          std::unique_ptr<CheckerBackend> Inner =
              BackendFactory::instance().create(Spec, S);
          if (!Inner)
            return nullptr;
          return std::make_unique<TimedChecker>(std::move(Inner), *C);
        });
  }
}

} // namespace suite
} // namespace netupd

#endif // NETUPD_BENCHSUITE_TIMED_H
