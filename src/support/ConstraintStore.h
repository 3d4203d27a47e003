//===- support/ConstraintStore.h - Cross-job constraint reuse --*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-lifetime store of wrong-set constraints mined by synthesis
/// runs, keyed by (scenario digest, rule granularity). The search's W
/// set (synth/OrderUpdate.cpp) records partial assignments — (mask,
/// value) pairs over operation indices — each derived from a genuine
/// counterexample trace: every configuration agreeing with the pair
/// reproduces the violation. That makes an entry a fact about the
/// *problem instance*, not about the run that found it; any later run
/// of a digest-identical scenario at the same granularity (which builds
/// the identical operation universe, deterministically) may prune on it
/// and seed its SAT layer with it without issuing a single checker
/// query. Portfolio probes, autotuning sweeps, and repeated batches
/// re-derive exactly these refutations today; the store is what lets
/// the engine get faster the longer it runs.
///
/// Safety: only entries that passed the search's update-independence
/// guard reach the W set (an entry with an empty value part would match
/// configurations the verified initial state dominates and is dropped
/// at learn time; publish() re-checks defensively). Seeding therefore
/// never changes a verdict or a returned sequence — a seeded prune
/// skips a check that could only have failed, and an imported SAT
/// constraint is satisfied by every genuinely correct order (see
/// docs/ARCHITECTURE.md, "Cross-job learning", for the full argument).
/// Deterministic budget mode never imports: its contract makes the
/// outcome a pure function of (job, budget), which process history must
/// not influence.
///
/// Built on ShardedDigestCache: keys are digests, values are immutable
/// snapshots swapped atomically under the shard lock, so readers hold
/// no lock while scanning entries and TSan sees only the handoff.
/// Bounded in both dimensions (keys by the cache's second-chance
/// eviction, entries per key by a hard cap) — it is an accelerator, and
/// dropping learning is always sound.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SUPPORT_CONSTRAINTSTORE_H
#define NETUPD_SUPPORT_CONSTRAINTSTORE_H

#include "support/Bitset.h"
#include "support/Digest.h"
#include "support/ShardedCache.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

namespace netupd {

/// The cross-job constraint store; see file comment.
class ConstraintStore {
public:
  /// One wrong-set entry over the operation universe of a (scenario,
  /// granularity) pair: (mask, value) as learnCex derives them — any
  /// configuration C with C & mask == value violates the property.
  using Entry = std::pair<Bitset, Bitset>;

  /// \p MaxKeys bounds distinct (scenario, granularity) keys (evicted
  /// second-chance like every ShardedDigestCache); \p MaxEntriesPerKey
  /// hard-caps one key's entry list — beyond it, later constraints are
  /// dropped, which only weakens the (optional) pruning.
  explicit ConstraintStore(size_t MaxKeys = 1 << 16,
                           size_t MaxEntriesPerKey = 4096)
      : Map(MaxKeys), EntryCap(std::max<size_t>(1, MaxEntriesPerKey)) {}

  /// The canonical store key. Granularity is part of the key because it
  /// selects the operation universe the bitsets index: switch- and
  /// rule-granularity runs of the same scenario number their operations
  /// differently and must never share entries.
  static Digest keyFor(const Digest &ScenarioDigest, bool RuleGranularity) {
    DigestBuilder B;
    B.addDigest(ScenarioDigest);
    B.addBool(RuleGranularity);
    return B.finish();
  }

  /// True iff \p A refutes at least every configuration \p B refutes:
  /// A's mask is a subset of B's and B's value agrees with A's on A's
  /// mask. Then any C with C & B.mask == B.value also has
  /// C & A.mask == A.value, so B is redundant. A strict-subset entry
  /// learned by a later run evicts every fatter entry it subsumes.
  static bool subsumes(const Entry &A, const Entry &B) {
    return B.first.contains(A.first) && (B.second & A.first) == A.second;
  }

  /// Publishes the entries a retiring run learned, deduplicating against
  /// what the key already holds and applying bidirectional subsumption:
  /// an incoming entry dominated by a stored one (subset mask, agreeing
  /// value) is dropped, and a stored entry dominated by an incoming one
  /// is evicted — the store keeps only the frontier of strongest
  /// refutations. \p NumOps is the run's operation count and guards
  /// indexing: entries of a different universe (a digest collision, or a
  /// malformed caller) are rejected wholesale. Returns the number of
  /// entries newly admitted; \p SubsumedDropped (optional) accumulates
  /// entries discarded in either direction (SynthStats::SubsumedDropped).
  size_t publish(const Digest &Key, size_t NumOps,
                 const std::vector<Entry> &Learned,
                 size_t *SubsumedDropped = nullptr) {
    if (NumOps == 0)
      return 0;
    // Validate outside any lock. The defensive re-checks of the
    // learn-time invariants: correctly sized masks, value within mask,
    // and a non-empty value part (the soundness guard — an empty value
    // would match configurations the verified initial configuration
    // dominates). Bailing here also keeps a fully-rejected publish from
    // creating an empty key (which could evict a populated one).
    std::vector<const Entry *> Valid;
    Valid.reserve(Learned.size());
    for (const Entry &E : Learned)
      if (E.first.size() == NumOps && E.second.size() == NumOps &&
          !E.second.none() && E.first.contains(E.second))
        Valid.push_back(&E);
    if (Valid.empty())
      return 0;

    size_t Admitted = 0, Dropped = 0;
    Map.update(Key, [&](std::shared_ptr<const Snapshot> &Cur) {
      if (Cur && Cur->NumOps != NumOps)
        return; // Universe mismatch: keep the established one.
      std::vector<Entry> Kept =
          Cur ? Cur->Entries : std::vector<Entry>{};
      std::unordered_set<Entry, EntryHash> Seen(Kept.begin(), Kept.end());
      std::vector<Entry> Added;
      bool Evicted = false;
      for (const Entry *PE : Valid) {
        const Entry &E = *PE;
        if (!Seen.insert(E).second)
          continue; // Exact duplicate.
        bool Dominated = false;
        for (const Entry &K : Kept)
          if (subsumes(K, E)) {
            Dominated = true;
            break;
          }
        if (!Dominated)
          for (const Entry &A : Added)
            if (subsumes(A, E)) {
              Dominated = true;
              break;
            }
        if (Dominated) {
          ++Dropped;
          continue;
        }
        // Reverse direction: the incoming entry evicts everything it
        // dominates (this is what frees space at the cap).
        auto Evict = [&](std::vector<Entry> &L) {
          size_t W = 0;
          for (size_t I = 0; I != L.size(); ++I) {
            if (subsumes(E, L[I])) {
              ++Dropped;
              Evicted = true;
              continue;
            }
            if (W != I)
              L[W] = std::move(L[I]);
            ++W;
          }
          L.resize(W);
        };
        Evict(Kept);
        Evict(Added);
        if (Kept.size() + Added.size() >= EntryCap)
          continue; // Full even after eviction.
        Added.push_back(E);
      }
      if (Added.empty() && !Evicted)
        return;
      auto Next = std::make_shared<Snapshot>();
      Next->NumOps = NumOps;
      Next->Impossible = Cur && Cur->Impossible;
      Next->Entries = std::move(Kept);
      Next->Entries.reserve(Next->Entries.size() + Added.size());
      for (Entry &E : Added)
        Next->Entries.push_back(std::move(E));
      Admitted = Added.size();
      Cur = std::move(Next);
    });
    if (SubsumedDropped)
      *SubsumedDropped += Dropped;
    return Admitted;
  }

  /// Records an up-front UNSAT proof: the (scenario, granularity)
  /// instance behind \p Key was proven Impossible (by exhaustion or SAT
  /// proof in an unbudgeted, untimed run — a ground fact about the
  /// instance). The engine's portfolio sheds members whose key holds
  /// this flag instead of racing them (engine/Engine.cpp).
  void markImpossible(const Digest &Key, size_t NumOps) {
    if (NumOps == 0)
      return;
    Map.update(Key, [&](std::shared_ptr<const Snapshot> &Cur) {
      if (Cur && (Cur->NumOps != NumOps || Cur->Impossible))
        return;
      auto Next = std::make_shared<Snapshot>();
      Next->NumOps = NumOps;
      Next->Impossible = true;
      if (Cur)
        Next->Entries = Cur->Entries;
      Cur = std::move(Next);
    });
  }

  /// True iff markImpossible() has been recorded for \p Key.
  bool knownImpossible(const Digest &Key) {
    std::optional<std::shared_ptr<const Snapshot>> Hit = Map.lookup(Key);
    return Hit && *Hit && (*Hit)->Impossible;
  }

  /// A snapshot of the entries published for \p Key, or empty when the
  /// key is unknown or was recorded for a different operation universe.
  std::vector<Entry> fetch(const Digest &Key, size_t NumOps) {
    std::optional<std::shared_ptr<const Snapshot>> Hit = Map.lookup(Key);
    if (!Hit || !*Hit || (*Hit)->NumOps != NumOps)
      return {};
    return (*Hit)->Entries;
  }

  /// Underlying cache accounting (fetch hits/misses, key count).
  CacheStats stats() const { return Map.stats(); }

  void clear() { Map.clear(); }

private:
  /// One key's immutable entry list; publish() swaps whole snapshots so
  /// fetched copies never observe a mutation.
  struct Snapshot {
    size_t NumOps = 0;
    /// Up-front UNSAT proof for this key (see markImpossible()).
    bool Impossible = false;
    std::vector<Entry> Entries;
  };

  struct EntryHash {
    size_t operator()(const Entry &E) const {
      return E.first.hash() * 0x9e3779b97f4a7c15ULL ^ E.second.hash();
    }
  };

  ShardedDigestCache<std::shared_ptr<const Snapshot>> Map;
  const size_t EntryCap;
};

} // namespace netupd

#endif // NETUPD_SUPPORT_CONSTRAINTSTORE_H
