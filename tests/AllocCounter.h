//===- tests/AllocCounter.h - Counting global allocation -------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replaces the global operator new/delete with versions that count every
/// allocation, so a test can assert that a hot path allocates nothing.
/// The replacements are ordinary (non-inline) definitions: include this
/// header from exactly one translation unit of a test binary.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_TESTS_ALLOCCOUNTER_H
#define NETUPD_TESTS_ALLOCCOUNTER_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace netupd {
namespace testutil {

/// Every allocation made through the global operator new in this binary.
inline std::atomic<uint64_t> NumAllocs{0};

} // namespace testutil
} // namespace netupd

// Counting replacements for the global allocation functions; the array
// forms forward here by default. Kept out of line so the compiler does
// not see malloc paired with a delete-expression and warn about it.
__attribute__((noinline)) void *operator new(std::size_t Size) {
  // relaxed: a tally read by the same thread that allocates.
  netupd::testutil::NumAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void *P) noexcept {
  std::free(P);
}
__attribute__((noinline)) void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

#endif // NETUPD_TESTS_ALLOCCOUNTER_H
