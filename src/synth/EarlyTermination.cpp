//===- synth/EarlyTermination.cpp - SAT-based search cutoff ----*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "synth/EarlyTermination.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>

using namespace netupd;

sat::Lit EarlyTermination::before(unsigned A, unsigned B) {
  assert(A != B && "no ordering variable for an operation with itself");
  // One variable per unordered pair; the literal's sign encodes direction
  // (positive: min-id op first), giving antisymmetry and totality for
  // free.
  bool Swapped = A > B;
  if (Swapped)
    std::swap(A, B);
  auto [It, Inserted] = PairVars.try_emplace({A, B}, 0);
  if (Inserted)
    It->second = Solver.newVar();
  return sat::Lit(It->second, /*Negated=*/Swapped);
}

void EarlyTermination::mention(unsigned Op) {
  if (std::find(Mentioned.begin(), Mentioned.end(), Op) != Mentioned.end())
    return;
  // Encode transitivity against already-mentioned operations while small:
  // before(a,b) & before(b,c) -> before(a,c) for every ordered triple
  // containing Op.
  if (Mentioned.size() < TransitivityCap) {
    for (size_t I = 0; I != Mentioned.size(); ++I) {
      for (size_t J = 0; J != Mentioned.size(); ++J) {
        if (I == J)
          continue;
        unsigned A = Mentioned[I], B = Mentioned[J];
        // Triples (A,B,Op), (A,Op,B), (Op,A,B).
        Solver.addClause({~before(A, B), ~before(B, Op), before(A, Op)});
        Solver.addClause({~before(A, Op), ~before(Op, B), before(A, B)});
        Solver.addClause({~before(Op, A), ~before(A, B), before(Op, B)});
        Clauses += 3;
      }
    }
  }
  Mentioned.push_back(Op);
}

namespace {
/// Wait-time histogram for the EarlyTermination mutex — held across SAT
/// solves, so it is the prime suspect for shard stalls under learning.
netupd::obs::Histogram &satLockWait() {
  static netupd::obs::Histogram &H =
      netupd::obs::MetricsRegistry::instance().histogram(
          "synth.sat_lock_ns");
  return H;
}

/// Luby restarts performed inside SAT solves, summed over every
/// EarlyTermination instance in the process.
netupd::obs::Counter &satRestarts() {
  static netupd::obs::Counter &C =
      netupd::obs::MetricsRegistry::instance().counter("synth.sat_restarts");
  return C;
}
} // namespace

void EarlyTermination::addCexConstraint(
    const std::vector<unsigned> &Updated,
    const std::vector<unsigned> &NotUpdated) {
  obs::timedLock(M, satLockWait());
  MutexLock Lock(M, std::adopt_lock);
  if (KnownImpossible)
    return;
  // A cancelled search learns nothing: skip the (cubic) transitivity
  // encoding and leave the clause set as-is — soundness is unaffected
  // because constraints only ever shrink the set of admitted orders.
  if (Stop.stopRequested())
    return;
  if (NotUpdated.empty()) {
    // The all-updated combination is bad: the final configuration itself
    // violates the property, so no order whatsoever can work.
    KnownImpossible = true;
    return;
  }
  assert(!Updated.empty() &&
         "a counterexample with no updated switch would already hold in "
         "the initial configuration");

  // Oversized constraints are dropped (sound relaxation; see header).
  if (Updated.size() * NotUpdated.size() > MaxClauseLits)
    return;

  for (unsigned Op : Updated)
    mention(Op);
  for (unsigned Op : NotUpdated)
    mention(Op);

  std::vector<sat::Lit> Clause;
  Clause.reserve(Updated.size() * NotUpdated.size());
  for (unsigned D : NotUpdated)
    for (unsigned U : Updated)
      Clause.push_back(before(D, U));
  Solver.addClause(std::move(Clause));
  ++Clauses;
  Dirty = true;
}

void EarlyTermination::addMaskValueConstraint(const Bitset &Mask,
                                              const Bitset &Value) {
  std::vector<unsigned> Updated, NotUpdated;
  for (size_t I = 0, E = Mask.size(); I != E; ++I) {
    if (!Mask.test(I))
      continue;
    (Value.test(I) ? Updated : NotUpdated).push_back(
        static_cast<unsigned>(I));
  }
  addCexConstraint(Updated, NotUpdated);
}

void EarlyTermination::reset() {
  MutexLock Lock(M);
  Solver = sat::Solver();
  PairVars.clear();
  Mentioned.clear();
  Clauses = 0;
  KnownImpossible = false;
  Dirty = false;
  LastSat = true;
}

bool EarlyTermination::impossible() {
  obs::timedLock(M, satLockWait());
  MutexLock Lock(M, std::adopt_lock);
  if (KnownImpossible)
    return true;
  if (!Dirty)
    return !LastSat;
  if (Stop.stopRequested())
    return !LastSat; // Stay Dirty: a resumed caller re-solves.
  Dirty = false;
  uint64_t RestartsBefore = Solver.numRestarts();
  LastSat = Solver.solve();
  if (uint64_t Delta = Solver.numRestarts() - RestartsBefore)
    satRestarts().add(Delta);
  return !LastSat;
}
