//===- benchsuite/Workloads.h - The four bench_suite workloads -*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Input generation for the four workloads (see README.md for why each
/// exists and which layer it isolates). Every input is a function of the
/// seed alone: instance i of a pool draws from its own forked stream, so
/// pools are identical however many threads generate them. Each job
/// carries the verdict its construction guarantees, for the known-answer
/// oracle (Oracle.h).
///
/// Pool sizes and engine shapes are frozen here; changing them changes
/// the benchmark, and a change that claims a speed-up must not do that.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_BENCHSUITE_WORKLOADS_H
#define NETUPD_BENCHSUITE_WORKLOADS_H

#include "Oracle.h"

#include "engine/Engine.h"
#include "support/Digest.h"
#include "topo/Generators.h"
#include "topo/Scenario.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace netupd {
namespace suite {

/// One submission of the closed loop: a scenario (shared between the
/// submissions that probe it), the portfolio to run it with, and the
/// verdict that must come back.
struct BenchJob {
  std::string Name;
  std::shared_ptr<const Scenario> S;
  std::vector<PortfolioMember> Portfolio;
  Expect Want = Expect::Success;
  /// Switches updating; orders the replay sample (smallest first).
  unsigned Diff = 0;

  SynthJob make() const {
    SynthJob J;
    J.Name = Name;
    J.S = *S;
    J.Portfolio = Portfolio;
    return J;
  }
};

/// A workload: how the engine is shaped, how the closed loop drives it,
/// and how its inputs are made.
struct Workload {
  const char *Name;
  /// Closed-loop client threads; K means min(hardware threads, 4).
  bool KClients;
  /// Engine workers (K when KWorkers) and intra-job shards (K when
  /// KShards, else the sequential search).
  bool KWorkers;
  bool KShards;
  bool CacheResults;
  bool SharedLearning;
  /// The loop starts over at the top of the pool when it runs out. An
  /// engine that keeps cross-job state (result cache, constraint store)
  /// would serve a second pass from what the first one left, so such
  /// workloads replace the engine, and clear the process-wide memo cache,
  /// at the start of every pass.
  bool FreshEnginePerPass;
  /// Jobs every run completes, whatever --seconds says; the verdict
  /// digest covers the first MinJobs pool entries.
  unsigned MinJobs;
  /// Success sequences fully replayed per run, smallest diff first; every
  /// Success still gets the final-configuration check.
  unsigned ReplayMax;
  /// How far the traced run's checker queries over the digest's pool
  /// entries may drift from the untraced run's, as a share; negative when
  /// portfolio races make the losers' counts timing-dependent.
  double MaxQueryDrift;
  std::vector<BenchJob> (*Generate)(uint64_t Seed, unsigned K);
  /// One small job from a stream the pool never draws from.
  BenchJob (*WarmUp)(uint64_t Seed);
};

/// An independent generator for (\p Seed, \p Stream).
inline Rng streamRng(uint64_t Seed, uint64_t Stream) {
  DigestBuilder B;
  B.addU64(Seed);
  B.addU64(Stream);
  return Rng(B.finish().Lo);
}

/// Runs Fn(I) for I in [0, Count) on \p Threads threads; rethrows the
/// first exception any call raised once every thread has joined.
template <typename FnT>
void parallelFor(size_t Count, unsigned Threads, const FnT &Fn) {
  std::atomic<size_t> Next{0};
  std::mutex FailureM;
  std::exception_ptr Failure;
  auto Body = [&] {
    // relaxed: a work-distribution ticket; the join below orders results.
    size_t I;
    while ((I = Next.fetch_add(1, std::memory_order_relaxed)) < Count) {
      try {
        Fn(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(FailureM);
        if (!Failure)
          Failure = std::current_exception();
      }
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < std::max(1u, Threads); ++T)
    Pool.emplace_back(Body);
  Body();
  for (std::thread &T : Pool)
    T.join();
  if (Failure)
    std::rethrow_exception(Failure);
}

inline PortfolioMember member(const std::string &Backend) {
  PortfolioMember M;
  M.Backend = Backend;
  return M;
}

inline std::shared_ptr<const Scenario> share(Scenario S) {
  return std::make_shared<const Scenario>(std::move(S));
}

[[noreturn]] inline void generationFailed(const std::string &What) {
  throw std::runtime_error("input generation failed: " + What);
}

/// The two branches of a diamond flow: switches only the initial path
/// visits, switches only the final path visits, and the joint where the
/// paths part.
struct Branches {
  std::vector<SwitchId> OldOnly, NewOnly;
  SwitchId Joint = 0;
};

inline Branches branchesOf(const FlowSpec &F) {
  const std::vector<SwitchId> &Old = F.InitialPath, &New = F.FinalPath;
  auto On = [](const std::vector<SwitchId> &P, SwitchId Sw) {
    return std::find(P.begin(), P.end(), Sw) != P.end();
  };
  Branches B;
  for (SwitchId Sw : Old)
    if (!On(New, Sw))
      B.OldOnly.push_back(Sw);
  for (SwitchId Sw : New)
    if (!On(Old, Sw))
      B.NewOnly.push_back(Sw);
  size_t I = 0;
  while (Old[I + 1] == New[I + 1])
    ++I;
  B.Joint = New[I];
  return B;
}

/// A long-path reachability diamond on a 96-switch small world whose
/// final configuration blackholes the destination: Impossible, provable
/// only by exhausting the safe sub-lattice. The diff is cut to the joint,
/// the destination, \p Free switches of the new branch and \p Blocked of
/// the old one. At least one new-branch switch stays out of the diff, so
/// the joint can never flip safely and neither can the old branch empty:
/// the safe lattice is exactly the 2^Free subsets of the kept new-branch
/// switches. Fixing its size, rather than only the diff size, keeps the
/// cost of one proof from varying a thousandfold between instances.
inline Scenario blackholedDiamond(Rng &R, unsigned Free, unsigned Blocked) {
  DiamondOptions DO;
  DO.LongPaths = true;
  for (unsigned Try = 0; Try != 256; ++Try) {
    Rng A = R.fork();
    std::optional<Scenario> S = makeDiamondScenario(
        buildSmallWorld(96, 4, 0.2, A), A, PropertyKind::Reachability, DO);
    if (!S)
      continue;
    Branches B = branchesOf(S->Flows[0]);
    if (B.NewOnly.size() <= Free || B.OldOnly.size() < Blocked)
      continue;
    A.shuffle(B.OldOnly);
    A.shuffle(B.NewOnly);
    std::vector<SwitchId> Keep = {B.Joint};
    Keep.insert(Keep.end(), B.NewOnly.begin(), B.NewOnly.begin() + Free);
    Keep.insert(Keep.end(), B.OldOnly.begin(), B.OldOnly.begin() + Blocked);
    Config Final = S->Initial;
    for (SwitchId Sw : Keep)
      Final.setTable(Sw, S->Final.table(Sw));
    Final.setTable(S->Flows[0].FinalPath.back(), Table());
    S->Final = std::move(Final);
    return std::move(*S);
  }
  generationFailed("blackholed diamond");
}

/// A feasible long-path diamond on \p Base with \p Flows flows, each
/// with a new branch of [MinNew, MaxNew] switches. Only \p KeepOld
/// switches of each old branch are cleared; the rest keep rules no
/// traffic reaches once the joint flips. Every old-branch switch the
/// search tries before the flip costs one failing recheck, so bounding
/// them bounds a cost that otherwise varies a hundredfold between
/// otherwise similar instances.
inline Scenario trimmedDiamond(const Topology &Base, Rng &R, PropertyKind Kind,
                               unsigned Flows, unsigned MinNew, unsigned MaxNew,
                               unsigned KeepOld) {
  DiamondOptions DO;
  DO.LongPaths = true;
  DO.NumFlows = Flows;
  for (unsigned Try = 0; Try != 256; ++Try) {
    Rng A = R.fork();
    std::optional<Scenario> S = makeDiamondScenario(Base, A, Kind, DO);
    if (!S)
      continue;
    std::vector<Branches> Bs;
    for (const FlowSpec &F : S->Flows)
      Bs.push_back(branchesOf(F));
    if (std::any_of(Bs.begin(), Bs.end(), [&](const Branches &B) {
          return B.NewOnly.size() < MinNew || B.NewOnly.size() > MaxNew;
        }))
      continue;
    for (Branches &B : Bs) {
      A.shuffle(B.OldOnly);
      for (size_t I = KeepOld; I < B.OldOnly.size(); ++I)
        S->Final.setTable(B.OldOnly[I], S->Initial.table(B.OldOnly[I]));
    }
    return std::move(*S);
  }
  generationFailed("trimmed diamond");
}

/// A shortest-path diamond on \p Base; throws when the fabric has none.
inline Scenario feasibleDiamond(const Topology &Base, Rng &R,
                                PropertyKind Kind) {
  std::optional<Scenario> S = makeDiamondScenarioRetrying(Base, R, Kind);
  if (!S)
    generationFailed("feasible diamond");
  return std::move(*S);
}

inline BenchJob singleJob(std::string Name, Scenario S,
                          const std::string &Backend, Expect Want) {
  BenchJob J;
  J.Name = std::move(Name);
  J.Diff = numUpdatingSwitches(S);
  J.S = share(std::move(S));
  J.Portfolio.push_back(member(Backend));
  J.Want = Want;
  return J;
}

// --- scale-update -----------------------------------------------------------
//
// Feasible long-path diamonds on five fabrics of 600-2500 switches, over
// all three property families: the paper's Fig. 8(g) regime, where one
// update touches hundreds to over a thousand switches. Fabrics and
// property kinds are interleaved round-robin so any prefix of the pool
// has the same mix.

constexpr unsigned ScaleUpdatePool = 150;
/// Old-branch switches cleared per flow (see trimmedDiamond).
constexpr unsigned ScaleUpdateKeepOld = 24;

inline std::vector<BenchJob> generateScaleUpdate(uint64_t Seed, unsigned K) {
  struct Fabric {
    std::string Name;
    Topology Topo;
    unsigned Flows, MinNew, MaxNew;
  };
  Rng R = streamRng(Seed, 1);
  std::vector<Fabric> Fabrics;
  for (auto [N, MinNew, MaxNew] :
       {std::array<unsigned, 3>{800, 150, 350}, {1500, 300, 700},
        {2500, 500, 1100}})
    Fabrics.push_back({"smallworld-" + std::to_string(N),
                       buildSmallWorld(N, 4, 0.2, R), 1, MinNew, MaxNew});
  Fabrics.push_back({"fattree-k24", buildFatTree(24), 1, 100, 300});
  WanParams WP;
  WP.Regions = 40;
  // WAN diamonds are short; two disjoint flows per update keep them from
  // being trivial.
  Fabrics.push_back({"wan-40x16", buildWan(WP, R), 2, 4, 16});

  std::vector<Rng> Streams;
  for (unsigned I = 0; I != ScaleUpdatePool; ++I)
    Streams.push_back(R.fork());
  std::vector<BenchJob> Pool(ScaleUpdatePool);
  parallelFor(ScaleUpdatePool, K, [&](size_t I) {
    const Fabric &F = Fabrics[I % Fabrics.size()];
    auto Kind = static_cast<PropertyKind>((I / Fabrics.size()) % 3);
    Pool[I] = singleJob(F.Name + "-" + std::to_string(I),
                        trimmedDiamond(F.Topo, Streams[I], Kind, F.Flows,
                                       F.MinNew, F.MaxNew, ScaleUpdateKeepOld),
                        "incremental", Expect::Success);
  });
  return Pool;
}

inline BenchJob warmUpScaleUpdate(uint64_t Seed) {
  Rng R = streamRng(Seed, 101);
  return singleJob("warm-up",
                   trimmedDiamond(buildSmallWorld(200, 4, 0.2, R), R,
                                  PropertyKind::Reachability, 1, 20, 60, 8),
                   "incremental", Expect::Success);
}

// --- deep-proof -------------------------------------------------------------
//
// Distinct blackholed diamonds with diff 22, proved Impossible by
// exhausting the safe lattice, which makes the search prune-bound. The SAT
// layer is off because it would skip the walk: on these instances its
// ordering constraints turn UNSAT after about twenty checks.

constexpr unsigned DeepProofPool = 250;
/// Diff 22: the joint, the destination, 14 free and 6 blocked switches.
constexpr unsigned DeepProofFree = 14;
constexpr unsigned DeepProofBlocked = 6;

inline BenchJob deepProofJob(std::string Name, Rng &R, unsigned Free,
                             unsigned Blocked) {
  BenchJob J = singleJob(std::move(Name), blackholedDiamond(R, Free, Blocked),
                         "incremental", Expect::Impossible);
  J.Portfolio[0].Opts.EarlyTermination = false;
  return J;
}

inline std::vector<BenchJob> generateDeepProof(uint64_t Seed, unsigned K) {
  Rng R = streamRng(Seed, 2);
  std::vector<Rng> Streams;
  for (unsigned I = 0; I != DeepProofPool; ++I)
    Streams.push_back(R.fork());
  std::vector<BenchJob> Pool(DeepProofPool);
  parallelFor(DeepProofPool, K, [&](size_t I) {
    Pool[I] = deepProofJob("deep-proof-" + std::to_string(I), Streams[I],
                           DeepProofFree, DeepProofBlocked);
  });
  return Pool;
}

inline BenchJob warmUpDeepProof(uint64_t Seed) {
  Rng R = streamRng(Seed, 102);
  return deepProofJob("warm-up", R, 6, 2);
}

// --- budget -----------------------------------------------------------------
//
// Deep proofs and feasible long-path diamonds under a deterministic check
// budget of 25-30 calls: every work unit builds its own SAT layer and
// probes a little, so the run is SAT-bound and every verdict is a pure
// function of (job, budget).

constexpr unsigned BudgetPool = 400;

inline std::vector<BenchJob> generateBudget(uint64_t Seed, unsigned K) {
  Rng R = streamRng(Seed, 3);
  std::vector<Rng> Streams;
  for (unsigned I = 0; I != BudgetPool; ++I)
    Streams.push_back(R.fork());
  std::vector<BenchJob> Pool(BudgetPool);
  parallelFor(BudgetPool, K, [&](size_t I) {
    Rng &S = Streams[I];
    std::string Name = "budget-" + std::to_string(I);
    BenchJob J;
    if (I % 2 == 0) {
      J = singleJob(Name, blackholedDiamond(S, DeepProofFree, DeepProofBlocked),
                    "incremental", Expect::ImpossibleOrAborted);
      J.Portfolio[0].Opts.MaxCheckCalls = 30;
    } else {
      auto Reach = PropertyKind::Reachability;
      Scenario Sc =
          (I / 2) % 2
              ? trimmedDiamond(buildFatTree(8), S, Reach, 1, 8, 24, 8)
              : trimmedDiamond(buildSmallWorld(200, 6, 0.3, S), S, Reach, 1,
                               30, 60, 8);
      J = singleJob(Name, std::move(Sc), "incremental",
                    Expect::SuccessOrAborted);
      J.Portfolio[0].Opts.MaxCheckCalls = 25;
    }
    Pool[I] = std::move(J);
  });
  return Pool;
}

inline BenchJob warmUpBudget(uint64_t Seed) {
  Rng R = streamRng(Seed, 103);
  BenchJob J = singleJob("warm-up", blackholedDiamond(R, 6, 2), "incremental",
                         Expect::ImpossibleOrAborted);
  J.Portfolio[0].Opts.MaxCheckCalls = 30;
  return J;
}

// --- probe-stream -----------------------------------------------------------
//
// One warm engine with the result cache and the constraint store on. Each
// scenario (a double diamond, a small feasible diamond, or a diff-14
// blackholed proof, in rotation) is submitted three ways: the default
// portfolio; two digest-distinct single-member probes that only the
// store links to it; and later an exact repeat that the result cache
// serves. The seed interleaves the submissions of neighbouring scenarios.
// A pass over the pool takes a few seconds; each pass gets a fresh
// engine, so every pass sees the same cold-to-warm history.

constexpr unsigned ProbeScenarios = 600;

inline std::vector<BenchJob> generateProbeStream(uint64_t Seed, unsigned K) {
  Rng R = streamRng(Seed, 4);
  std::vector<Rng> Streams;
  for (unsigned I = 0; I != ProbeScenarios; ++I)
    Streams.push_back(R.fork());

  // Four submissions per scenario, in scenario order for now.
  std::vector<BenchJob> Subs(4 * ProbeScenarios);
  parallelFor(ProbeScenarios, K, [&](size_t I) {
    Rng &S = Streams[I];
    Scenario Sc;
    Expect Portfolio = Expect::Success, Single = Expect::Success;
    switch (I % 3) {
    case 0: {
      std::optional<Scenario> D = makeDoubleDiamondScenarioRetrying(
          buildSmallWorld(40, 4, 0.2, S), S);
      if (!D)
        generationFailed("double diamond");
      Sc = std::move(*D);
      // Only rule granularity can order the crossed flows (Fig. 8(h)).
      Single = Expect::Impossible;
      break;
    }
    case 1:
      Sc = feasibleDiamond(buildSmallWorld(40, 4, 0.2, S), S,
                           static_cast<PropertyKind>((I / 3) % 3));
      break;
    default:
      Sc = blackholedDiamond(S, 8, 4); // Diff 14.
      Portfolio = Single = Expect::Impossible;
      break;
    }
    std::shared_ptr<const Scenario> Shared = share(std::move(Sc));
    unsigned Diff = numUpdatingSwitches(*Shared);
    std::string Base = "probe-" + std::to_string(I);
    auto Make = [&](const char *Tag, std::vector<PortfolioMember> P, Expect W) {
      BenchJob J;
      J.Name = Base + Tag;
      J.S = Shared;
      J.Portfolio = std::move(P);
      J.Want = W;
      J.Diff = Diff;
      return J;
    };
    PortfolioMember Memo = member("memo:incremental");
    Memo.Opts.EarlyTermination = false;
    Subs[4 * I] = Make("-portfolio", defaultPortfolio(), Portfolio);
    Subs[4 * I + 1] = Make("-batch", {member("batch")}, Single);
    Subs[4 * I + 2] = Make("-memo", {Memo}, Single);
    Subs[4 * I + 3] = Make("-repeat", defaultPortfolio(), Portfolio);
  });

  // Interleave: the probes of scenario i land within the next two
  // scenarios' portfolio submissions, the repeat within the next four to
  // eight; ties keep scenario order.
  std::vector<std::pair<uint64_t, size_t>> Order;
  for (size_t I = 0; I != ProbeScenarios; ++I) {
    uint64_t T = 64 * I;
    Order.push_back({T, 4 * I});
    Order.push_back({T + 1 + R.nextBelow(128), 4 * I + 1});
    Order.push_back({T + 1 + R.nextBelow(128), 4 * I + 2});
    Order.push_back({T + 256 + R.nextBelow(256), 4 * I + 3});
  }
  std::stable_sort(Order.begin(), Order.end(),
                   [](const auto &A, const auto &B) {
                     return A.first < B.first;
                   });
  std::vector<BenchJob> Pool;
  Pool.reserve(Subs.size());
  for (const auto &O : Order)
    Pool.push_back(std::move(Subs[O.second]));
  return Pool;
}

inline BenchJob warmUpProbeStream(uint64_t Seed) {
  Rng R = streamRng(Seed, 104);
  BenchJob J = singleJob("warm-up",
                         feasibleDiamond(buildSmallWorld(40, 4, 0.2, R), R,
                                         PropertyKind::Reachability),
                         "incremental", Expect::Success);
  J.Portfolio = defaultPortfolio();
  return J;
}

/// The workload table; names are final (other documents cite them).
inline const std::vector<Workload> &workloads() {
  // Columns: name; K clients, K workers, K shards; result cache, shared
  // learning, fresh engine per pass; MinJobs, ReplayMax, MaxQueryDrift;
  // generator, warm-up.
  static const std::vector<Workload> All = {
      {"scale-update", true, true, false, false, false, false, 40, 4, 0.01,
       generateScaleUpdate, warmUpScaleUpdate},
      {"deep-proof", false, false, true, false, false, false, 12, 0, 0.01,
       generateDeepProof, warmUpDeepProof},
      {"budget", false, false, true, false, false, false, 200, 64, 0.0,
       generateBudget, warmUpBudget},
      {"probe-stream", false, false, false, true, true, true, 400, 256, -1.0,
       generateProbeStream, warmUpProbeStream},
  };
  return All;
}

} // namespace suite
} // namespace netupd

#endif // NETUPD_BENCHSUITE_WORKLOADS_H
