//===- support/Digest.h - Canonical content digests ------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A 128-bit content digest and a streaming builder, used to give every
/// query-path object (Rule, Config, Topology, Formula, KripkeStructure,
/// Scenario) a stable canonical identity for memoization. Two objects
/// with equal digests are treated as identical by the caches, so the
/// mixing must be strong enough that accidental collisions are
/// negligible at cache scale (128 bits of splitmix-style avalanche per
/// word; no cryptographic claim).
///
/// Digests support XOR composition, which the incremental maintenance in
/// KripkeStructure exploits Zobrist-style: a configuration's digest is
/// the XOR over switches of mix(switch, table digest), so replacing one
/// table whose slot digest is precomputed updates the digest in O(1) and
/// rolls back exactly — apply/undo pairs restore the digest bit-for-bit
/// without rehashing,
/// which is what lets every recheckAfterUpdate site read a current
/// structure digest for free.
///
/// Cache-key exclusions — the invariant every digestOf() overload obeys:
/// a digest covers exactly the content that determines a computation's
/// *result*, and nothing else. Display names, StopTokens, diagnostic
/// path fields (FlowSpec::InitialPath/FinalPath), and performance knobs
/// (SynthOptions::Shards, ShardCheckerFactory, the engine's worker
/// count) are all excluded; formulas digest structurally, so two
/// FormulaFactory instances interning the same formula agree; and an
/// empty portfolio digests as the default member it executes as
/// (engine/Engine.cpp normalizes both sides the same way). Violating
/// this in either direction is a real bug: digesting too little serves
/// wrong results to lookalike queries, digesting too much splits the
/// cache and silently erases the hit rate.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SUPPORT_DIGEST_H
#define NETUPD_SUPPORT_DIGEST_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace netupd {

/// A 128-bit content digest; value-equal objects have equal digests.
struct Digest {
  uint64_t Lo = 0;
  uint64_t Hi = 0;

  friend bool operator==(const Digest &A, const Digest &B) {
    return A.Lo == B.Lo && A.Hi == B.Hi;
  }
  friend bool operator!=(const Digest &A, const Digest &B) {
    return !(A == B);
  }

  /// XOR composition; order-independent, self-inverse (see file comment).
  friend Digest operator^(const Digest &A, const Digest &B) {
    return Digest{A.Lo ^ B.Lo, A.Hi ^ B.Hi};
  }
  Digest &operator^=(const Digest &B) {
    Lo ^= B.Lo;
    Hi ^= B.Hi;
    return *this;
  }

  /// Renders as 32 lowercase hex digits.
  std::string str() const {
    char Buf[33];
    std::snprintf(Buf, sizeof(Buf), "%016llx%016llx",
                  static_cast<unsigned long long>(Hi),
                  static_cast<unsigned long long>(Lo));
    return Buf;
  }
};

/// Hash functor so Digest can key unordered containers. The digest is
/// already uniformly mixed, so folding the halves suffices.
struct DigestHash {
  size_t operator()(const Digest &D) const {
    return static_cast<size_t>(D.Lo ^ (D.Hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// Accumulates words into a Digest. Deterministic across runs and
/// platforms; inputs of different lengths never collide by extension
/// because finish() folds the word count in.
class DigestBuilder {
public:
  void addU64(uint64_t V) {
    A = mix(A ^ V);
    B = mix(B + rotl(V, 32) + 0x94d049bb133111ebULL);
    ++Count;
  }

  void addU32(uint32_t V) { addU64(V); }
  void addBool(bool V) { addU64(V ? 1 : 0); }

  /// Doubles pass through their bit pattern, so -0.0 and 0.0 differ;
  /// digest consumers only ever compare configured values, never
  /// computed ones, so bit identity is the right notion.
  void addDouble(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V), "double is not 64-bit");
    __builtin_memcpy(&Bits, &V, sizeof(Bits));
    addU64(Bits);
  }

  /// Length-prefixed so "ab","c" and "a","bc" differ.
  void addString(const std::string &S) {
    addU64(S.size());
    uint64_t W = 0;
    unsigned N = 0;
    for (unsigned char C : S) {
      W = (W << 8) | C;
      if (++N == 8) {
        addU64(W);
        W = 0;
        N = 0;
      }
    }
    if (N)
      addU64(W);
  }

  void addDigest(const Digest &D) {
    addU64(D.Lo);
    addU64(D.Hi);
  }

  Digest finish() const {
    uint64_t Lo = mix(A ^ mix(Count));
    uint64_t Hi = mix(B + Lo);
    return Digest{Lo, Hi};
  }

private:
  static uint64_t rotl(uint64_t X, unsigned R) {
    return (X << R) | (X >> (64 - R));
  }

  /// The splitmix64 finalizer: full avalanche on 64 bits.
  static uint64_t mix(uint64_t X) {
    X += 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    return X ^ (X >> 31);
  }

  uint64_t A = 0x243f6a8885a308d3ULL; // pi fraction; arbitrary nonzero seeds
  uint64_t B = 0x13198a2e03707344ULL;
  uint64_t Count = 0;
};

} // namespace netupd

#endif // NETUPD_SUPPORT_DIGEST_H
