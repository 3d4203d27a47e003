//===- synth/EarlyTermination.cpp - SAT-based search cutoff ----*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "synth/EarlyTermination.h"

#include <algorithm>
#include <cassert>

using namespace netupd;

namespace {
/// Home slot of a pair key in a table of \p Mask + 1 slots (Fibonacci
/// hashing; the high product bits are folded down so both halves of the
/// key reach the slot index).
size_t homeSlot(uint64_t Key, size_t Mask) {
  uint64_t H = Key * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(H ^ (H >> 32)) & Mask;
}

enum : uint8_t { White, Grey, Black }; // DFS colors.
} // namespace

sat::Lit EarlyTermination::before(unsigned A, unsigned B) {
  assert(A != B && "no ordering variable for an operation with itself");
  // One variable per unordered pair; the literal's sign encodes direction
  // (positive: min-id op first), giving antisymmetry and totality for
  // free.
  bool Swapped = A > B;
  if (Swapped)
    std::swap(A, B);
  uint64_t Key = uint64_t(A) << 32 | B;
  if (2 * (Pairs.size() + 1) > Table.size())
    growTable();
  size_t Mask = Table.size() - 1;
  for (size_t I = homeSlot(Key, Mask);; I = (I + 1) & Mask) {
    if (uint32_t Slot = Table[I]) {
      if (Pairs[Slot - 1].Key == Key)
        return sat::Lit(static_cast<sat::Var>(Slot - 1), Swapped);
      continue;
    }
    sat::Var V = Solver.newVar();
    assert(static_cast<size_t>(V) == Pairs.size() &&
           "every solver variable is a pair variable");
    Pairs.push_back({Key, node(A), node(B)});
    Table[I] = static_cast<uint32_t>(V) + 1;
    return sat::Lit(V, Swapped);
  }
}

uint32_t EarlyTermination::node(unsigned Op) {
  if (Op >= NodeOf.size())
    NodeOf.resize(size_t(Op) + 1, 0);
  if (!NodeOf[Op]) {
    NodeOps.push_back(Op);
    NodeOf[Op] = static_cast<uint32_t>(NodeOps.size());
  }
  return NodeOf[Op] - 1;
}

void EarlyTermination::growTable() {
  Table.assign(std::max<size_t>(64, 2 * Table.size()), 0);
  size_t Mask = Table.size() - 1;
  for (size_t V = 0; V != Pairs.size(); ++V) {
    size_t I = homeSlot(Pairs[V].Key, Mask);
    while (Table[I])
      I = (I + 1) & Mask;
    Table[I] = static_cast<uint32_t>(V) + 1;
  }
}

bool EarlyTermination::refuteCycle() {
  // The model's orientation of every pair variable, as compressed
  // adjacency lists filled in pair-creation order.
  const size_t N = NodeOps.size();
  AdjStart.assign(N + 1, 0);
  for (size_t V = 0; V != Pairs.size(); ++V) {
    const Pair &P = Pairs[V];
    ++AdjStart[(Solver.modelValue(static_cast<sat::Var>(V)) ? P.A : P.B) +
               1];
  }
  for (size_t I = 0; I != N; ++I)
    AdjStart[I + 1] += AdjStart[I];
  Adj.resize(Pairs.size());
  NextEdge.assign(AdjStart.begin(), AdjStart.end() - 1);
  for (size_t V = 0; V != Pairs.size(); ++V) {
    const Pair &P = Pairs[V];
    bool LoFirst = Solver.modelValue(static_cast<sat::Var>(V));
    Adj[NextEdge[LoFirst ? P.A : P.B]++] = {LoFirst ? P.B : P.A,
                                            static_cast<sat::Var>(V)};
  }

  // Iterative DFS; an edge into a grey node closes a cycle made of that
  // edge and the tree edges entering the stack above its target.
  NextEdge.assign(AdjStart.begin(), AdjStart.end() - 1);
  Color.assign(N, White);
  EnteredBy.resize(N);
  // The literal of edge V that the model makes false: "not this edge".
  const sat::Solver &Model = Solver;
  auto NotEdge = [&Model](sat::Var V) {
    return sat::Lit(V, /*Negated=*/Model.modelValue(V));
  };
  for (uint32_t Root = 0; Root != N; ++Root) {
    if (Color[Root] != White)
      continue;
    Color[Root] = Grey;
    Stack.assign(1, Root);
    while (!Stack.empty()) {
      uint32_t U = Stack.back();
      if (NextEdge[U] == AdjStart[U + 1]) {
        Color[U] = Black;
        Stack.pop_back();
        continue;
      }
      Edge E = Adj[NextEdge[U]++];
      if (Color[E.To] == White) {
        Color[E.To] = Grey;
        EnteredBy[E.To] = E.V;
        Stack.push_back(E.To);
      } else if (Color[E.To] == Grey) {
        std::vector<sat::Lit> Clause{NotEdge(E.V)};
        for (size_t I = Stack.size() - 1; Stack[I] != E.To; --I)
          Clause.push_back(NotEdge(EnteredBy[Stack[I]]));
        Solver.addClause(std::move(Clause));
        ++Clauses;
        return true;
      }
    }
  }
  return false;
}

void EarlyTermination::addCexConstraint(
    const std::vector<unsigned> &Updated,
    const std::vector<unsigned> &NotUpdated) {
  MutexLock Lock(M);
  if (KnownImpossible)
    return;
  // A cancelled search learns nothing: leave the clause set as-is —
  // soundness is unaffected because constraints only ever shrink the set
  // of admitted orders.
  if (Stop.stopRequested())
    return;
  // No updated operation: the violation would hold in the initial
  // configuration too, so the constraint is unsound (see header). Its
  // clause would be empty, i.e. a wrong Impossible.
  if (Updated.empty())
    return;
  if (NotUpdated.empty()) {
    // The all-updated combination is bad: the final configuration itself
    // violates the property, so no order whatsoever can work.
    KnownImpossible = true;
    return;
  }

  // Oversized constraints are dropped (sound relaxation; see header).
  if (Updated.size() * NotUpdated.size() > MaxClauseLits)
    return;

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
  // Empty only the slots and nodes this run touched. The scan for a
  // pair's slot looks for its own variable and steps over slots emptied
  // before it, so clearing in any order finds every one.
  size_t Mask = Table.size() - 1;
  for (size_t V = 0; V != Pairs.size(); ++V) {
    size_t I = homeSlot(Pairs[V].Key, Mask);
    while (Table[I] != V + 1)
      I = (I + 1) & Mask;
    Table[I] = 0;
  }
  Pairs.clear();
  for (unsigned Op : NodeOps)
    NodeOf[Op] = 0;
  NodeOps.clear();
  Clauses = 0;
  KnownImpossible = false;
  Dirty = false;
  LastSat = true;
}

bool EarlyTermination::impossible() {
  MutexLock Lock(M);
  if (KnownImpossible)
    return true;
  if (!Dirty)
    return !LastSat;
  bool Done = false;
  while (!Done && !Stop.stopRequested()) {
    bool Sat = Solver.solve();
    Done = !Sat || !refuteCycle();
    if (Done)
      LastSat = Sat;
  }
  if (!Done)
    return !LastSat; // Stopped: stay Dirty, so a resumed caller finishes.
  Dirty = false;
  return !LastSat;
}
