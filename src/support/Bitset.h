//===- support/Bitset.h - Dynamic fixed-capacity bitset --------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dynamically-sized bitset used for maximally-consistent formula
/// sets (Section 5 of the paper) and for configuration masks in the
/// synthesis search (Section 4). Unlike std::vector<bool> it supports
/// hashing, word-level boolean algebra, and subset queries, all of which the
/// labeling model checker needs on its hot path.
///
/// Storage is small-buffer-optimized: up to 128 bits (two words) live
/// inline with no heap allocation. That covers every synthesis-search
/// mask (one bit per update operation) and most label sets, so the DFS
/// hot loops — which copy, hash, and compare these sets per candidate —
/// stop exercising the allocator entirely; only oversized closures spill
/// to the heap. This is load-bearing for shard scaling: per-candidate
/// malloc/free was a measured contention source at 4 shards.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SUPPORT_BITSET_H
#define NETUPD_SUPPORT_BITSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

namespace netupd {

/// Dynamically-sized bitset with value semantics and word-level operations.
///
/// The size is fixed at construction (or via resize); all binary operations
/// require both operands to have the same size.
class Bitset {
public:
  Bitset() = default;

  explicit Bitset(size_t NumBits) : NumBits(NumBits) {
    NW = static_cast<uint32_t>(numWords(NumBits));
    if (NW > InlineWords) {
      Heap = new uint64_t[NW]; // lint: naked-new-ok — SBO buffer, RAII-owned
      HeapCap = NW;
    }
    std::memset(words(), 0, NW * sizeof(uint64_t));
  }

  Bitset(const Bitset &O) : NumBits(O.NumBits), NW(O.NW) {
    if (NW > InlineWords) {
      Heap = new uint64_t[NW]; // lint: naked-new-ok — SBO buffer, RAII-owned
      HeapCap = NW;
    }
    std::memcpy(words(), O.words(), NW * sizeof(uint64_t));
  }

  Bitset(Bitset &&O) noexcept : NumBits(O.NumBits), NW(O.NW) {
    if (O.HeapCap) {
      Heap = O.Heap;
      HeapCap = O.HeapCap;
      O.HeapCap = 0;
    } else {
      std::memcpy(Inline, O.Inline, sizeof(Inline));
    }
    O.NumBits = 0;
    O.NW = 0;
  }

  Bitset &operator=(const Bitset &O) {
    if (this == &O)
      return *this;
    // Reuse the existing buffer when it fits — assignment into a
    // recycled Bitset (DFS frames, pool entries) is then allocation-free.
    if (O.NW > capacityWords()) {
      // lint: naked-new-ok — SBO buffer swap, RAII-owned by this Bitset
      uint64_t *NewHeap = new uint64_t[O.NW];
      if (HeapCap)
        delete[] Heap;
      Heap = NewHeap;
      HeapCap = O.NW;
    }
    NumBits = O.NumBits;
    NW = O.NW;
    std::memcpy(words(), O.words(), NW * sizeof(uint64_t));
    return *this;
  }

  Bitset &operator=(Bitset &&O) noexcept {
    if (this == &O)
      return *this;
    if (HeapCap)
      delete[] Heap;
    NumBits = O.NumBits;
    NW = O.NW;
    if (O.HeapCap) {
      Heap = O.Heap;
      HeapCap = O.HeapCap;
      O.HeapCap = 0;
    } else {
      HeapCap = 0;
      std::memcpy(Inline, O.Inline, sizeof(Inline));
    }
    O.NumBits = 0;
    O.NW = 0;
    return *this;
  }

  ~Bitset() {
    if (HeapCap)
      delete[] Heap;
  }

  /// Returns the number of bits this set can hold.
  size_t size() const { return NumBits; }

  /// Resizes to \p NewNumBits, zero-filling any new bits.
  void resize(size_t NewNumBits) {
    uint32_t NewNW = static_cast<uint32_t>(numWords(NewNumBits));
    if (NewNW > capacityWords()) {
      // lint: naked-new-ok — SBO buffer swap, RAII-owned by this Bitset
      uint64_t *NewHeap = new uint64_t[NewNW];
      std::memcpy(NewHeap, words(), NW * sizeof(uint64_t));
      if (HeapCap)
        delete[] Heap;
      Heap = NewHeap;
      HeapCap = NewNW;
    }
    if (NewNW > NW)
      std::memset(words() + NW, 0, (NewNW - NW) * sizeof(uint64_t));
    NW = NewNW;
    NumBits = NewNumBits;
    clearUnusedBits();
  }

  bool test(size_t Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    return (words()[Idx / 64] >> (Idx % 64)) & 1;
  }

  void set(size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    words()[Idx / 64] |= (uint64_t(1) << (Idx % 64));
  }

  void reset(size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    words()[Idx / 64] &= ~(uint64_t(1) << (Idx % 64));
  }

  void assign(size_t Idx, bool Value) {
    if (Value)
      set(Idx);
    else
      reset(Idx);
  }

  /// Sets all bits to zero, keeping the size.
  void clear() { std::memset(words(), 0, NW * sizeof(uint64_t)); }

  /// Returns true if no bit is set.
  bool none() const {
    const uint64_t *W = words();
    for (uint32_t I = 0; I != NW; ++I)
      if (W[I] != 0)
        return false;
    return true;
  }

  bool any() const { return !none(); }

  /// Returns the number of set bits.
  size_t count() const {
    size_t N = 0;
    const uint64_t *W = words();
    for (uint32_t I = 0; I != NW; ++I)
      N += static_cast<size_t>(__builtin_popcountll(W[I]));
    return N;
  }

  /// Returns true if every bit set in \p Other is also set in *this.
  bool contains(const Bitset &Other) const {
    assert(NumBits == Other.NumBits && "size mismatch");
    const uint64_t *A = words(), *B = Other.words();
    for (uint32_t I = 0; I != NW; ++I)
      if ((B[I] & ~A[I]) != 0)
        return false;
    return true;
  }

  /// Returns true if *this and \p Other share at least one set bit.
  bool intersects(const Bitset &Other) const {
    assert(NumBits == Other.NumBits && "size mismatch");
    const uint64_t *A = words(), *B = Other.words();
    for (uint32_t I = 0; I != NW; ++I)
      if ((A[I] & B[I]) != 0)
        return true;
    return false;
  }

  Bitset &operator|=(const Bitset &Other) {
    assert(NumBits == Other.NumBits && "size mismatch");
    uint64_t *A = words();
    const uint64_t *B = Other.words();
    for (uint32_t I = 0; I != NW; ++I)
      A[I] |= B[I];
    return *this;
  }

  Bitset &operator&=(const Bitset &Other) {
    assert(NumBits == Other.NumBits && "size mismatch");
    uint64_t *A = words();
    const uint64_t *B = Other.words();
    for (uint32_t I = 0; I != NW; ++I)
      A[I] &= B[I];
    return *this;
  }

  Bitset &operator^=(const Bitset &Other) {
    assert(NumBits == Other.NumBits && "size mismatch");
    uint64_t *A = words();
    const uint64_t *B = Other.words();
    for (uint32_t I = 0; I != NW; ++I)
      A[I] ^= B[I];
    return *this;
  }

  friend Bitset operator|(Bitset A, const Bitset &B) { return A |= B; }
  friend Bitset operator&(Bitset A, const Bitset &B) { return A &= B; }
  friend Bitset operator^(Bitset A, const Bitset &B) { return A ^= B; }

  friend bool operator==(const Bitset &A, const Bitset &B) {
    if (A.NumBits != B.NumBits)
      return false;
    return std::memcmp(A.words(), B.words(), A.NW * sizeof(uint64_t)) == 0;
  }
  friend bool operator!=(const Bitset &A, const Bitset &B) {
    return !(A == B);
  }

  /// Lexicographic order on the word representation; used to keep label
  /// sets sorted and deduplicated.
  friend bool operator<(const Bitset &A, const Bitset &B) {
    assert(A.NumBits == B.NumBits && "size mismatch");
    const uint64_t *WA = A.words(), *WB = B.words();
    for (uint32_t I = 0; I != A.NW; ++I)
      if (WA[I] != WB[I])
        return WA[I] < WB[I];
    return false;
  }

  /// Hashes the bit contents: FNV-1a over the words, then the splitmix64
  /// finalizer. Plain FNV-1a's low k bits depend only on the low k bits
  /// of each word, so configurations differing only in high ops would
  /// share every low hash bit; the finalizer spreads each input bit over
  /// the whole result, so both the top bits (ConcurrentSet's stripe) and
  /// the low bits (its slot) are usable.
  size_t hash() const {
    uint64_t H = 1469598103934665603ull;
    const uint64_t *W = words();
    for (uint32_t I = 0; I != NW; ++I) {
      H ^= W[I];
      H *= 1099511628211ull;
    }
    H ^= H >> 30;
    H *= 0xbf58476d1ce4e5b9ull;
    H ^= H >> 27;
    H *= 0x94d049bb133111ebull;
    H ^= H >> 31;
    return static_cast<size_t>(H);
  }

  /// Number of 64-bit words backing this set.
  size_t numWords() const { return NW; }
  /// The \p I-th backing word (bit 64*I is its LSB). The wrong-set's
  /// watch-list probe iterates set bits through this.
  uint64_t word(size_t I) const {
    assert(I < NW);
    return words()[I];
  }

  /// The backing words, for word-level kernels (ltl/Closure.cpp) that
  /// would otherwise re-resolve the inline/heap storage on every bit
  /// access. Bits at or above size() must stay zero.
  uint64_t *data() { return words(); }
  const uint64_t *data() const { return words(); }

  /// Index of the lowest set bit, or size() when none is set. Indexes
  /// the wrong-set watch lists (support/ConcurrentSet.h).
  size_t firstSetBit() const {
    const uint64_t *W = words();
    for (uint32_t I = 0; I != NW; ++I)
      if (W[I] != 0)
        return I * 64 +
               static_cast<size_t>(__builtin_ctzll(W[I]));
    return NumBits;
  }

  /// Renders as a 0/1 string with bit 0 leftmost; handy in test failures.
  std::string str() const {
    std::string S;
    S.reserve(NumBits);
    for (size_t I = 0; I != NumBits; ++I)
      S.push_back(test(I) ? '1' : '0');
    return S;
  }

private:
  static constexpr uint32_t InlineWords = 2;

  static size_t numWords(size_t Bits) { return (Bits + 63) / 64; }

  uint64_t *words() { return HeapCap ? Heap : Inline; }
  const uint64_t *words() const { return HeapCap ? Heap : Inline; }
  uint32_t capacityWords() const { return HeapCap ? HeapCap : InlineWords; }

  void clearUnusedBits() {
    if (NumBits % 64 == 0 || NW == 0)
      return;
    words()[NW - 1] &= (uint64_t(1) << (NumBits % 64)) - 1;
  }

  size_t NumBits = 0;
  /// Active word count; bits [NumBits, 64*NW) of the last word are kept
  /// zero so memcmp/hash over whole words are content-exact.
  uint32_t NW = 0;
  /// Heap capacity in words; 0 = inline storage is active.
  uint32_t HeapCap = 0;
  union {
    uint64_t Inline[InlineWords] = {0, 0};
    uint64_t *Heap;
  };
};

/// Hash functor so Bitset can key unordered containers.
struct BitsetHash {
  size_t operator()(const Bitset &B) const { return B.hash(); }
};

} // namespace netupd

#endif // NETUPD_SUPPORT_BITSET_H
