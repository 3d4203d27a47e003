//===- ltl/Closure.cpp - Extended closure and consistent sets --*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "ltl/Closure.h"

#include <algorithm>
#include <cassert>

using namespace netupd;

namespace {

bool bit(const uint64_t *W, unsigned I) { return (W[I / 64] >> (I % 64)) & 1; }

void put(uint64_t *W, unsigned I, bool V) {
  uint64_t Mask = uint64_t(1) << (I % 64);
  W[I / 64] = (W[I / 64] & ~Mask) | (uint64_t(V) << (I % 64));
}

} // namespace

Closure::Closure(Formula Root) {
  assert(Root && "null root formula");

  // Collect the subformula DAG. Factory ids increase from children to
  // parents (a node is interned only after its children exist), so every
  // subformula's id is at most the root's and a flat array marks them.
  std::vector<bool> Seen(Root->id() + 1);
  std::vector<Formula> Stack = {Root};
  while (!Stack.empty()) {
    Formula F = Stack.back();
    Stack.pop_back();
    if (Seen[F->id()])
      continue;
    Seen[F->id()] = true;
    Items.push_back(F);
    if (F->lhs())
      Stack.push_back(F->lhs());
    if (F->rhs())
      Stack.push_back(F->rhs());
  }

  // Sorting by id yields a topological order with children first.
  std::sort(Items.begin(), Items.end(),
            [](Formula A, Formula B) { return A->id() < B->id(); });

  Nodes.reserve(size());
  for (Formula F : Items)
    Nodes.push_back(Node{F->kind(), F->lhs() ? indexOf(F->lhs()) : 0,
                         F->rhs() ? indexOf(F->rhs()) : 0});
  RootIdx = indexOf(Root);
}

unsigned Closure::indexOf(Formula F) const {
  auto It = std::lower_bound(
      Items.begin(), Items.end(), F,
      [](Formula A, Formula B) { return A->id() < B->id(); });
  assert(It != Items.end() && *It == F && "formula not in closure");
  return static_cast<unsigned>(It - Items.begin());
}

Bitset Closure::atomBits(const StateInfo &S) const {
  Bitset Bits(size());
  for (unsigned I = 0, E = size(); I != E; ++I) {
    Formula F = Items[I];
    switch (F->kind()) {
    case FKind::True:
      Bits.set(I);
      break;
    case FKind::Atom:
      Bits.assign(I, evalProp(F->prop(), S));
      break;
    case FKind::NotAtom:
      Bits.assign(I, !evalProp(F->prop(), S));
      break;
    default:
      break;
    }
  }
  return Bits;
}

Bitset Closure::sinkLabel(const Bitset &AtomBits) const {
  assert(AtomBits.size() == size() && "atom bits from a different closure");
  Bitset Out = AtomBits;
  uint64_t *M = Out.data();
  // Children precede parents, so a single forward pass settles every bit.
  // On the constant trace of a sink: X a = a, a U b = b, a R b = b.
  for (unsigned I = 0, E = size(); I != E; ++I) {
    const Node &N = Nodes[I];
    switch (N.Kind) {
    case FKind::And:
      put(M, I, bit(M, N.Lhs) && bit(M, N.Rhs));
      break;
    case FKind::Or:
      put(M, I, bit(M, N.Lhs) || bit(M, N.Rhs));
      break;
    case FKind::Next:
      put(M, I, bit(M, N.Lhs));
      break;
    case FKind::Until:
    case FKind::Release:
      put(M, I, bit(M, N.Rhs));
      break;
    default:
      break; // Constants and atoms came from AtomBits.
    }
  }
  return Out;
}

void Closure::extend(const Bitset &SuccM, const Bitset &AtomBits,
                     Bitset &Out) const {
  assert(SuccM.size() == size() && AtomBits.size() == size() &&
         "sets from a different closure");
  assert(&Out != &SuccM && "extend output aliases the successor set");
  Out = AtomBits;
  uint64_t *M = Out.data();
  const uint64_t *Succ = SuccM.data();
  for (unsigned I = 0, E = size(); I != E; ++I) {
    const Node &N = Nodes[I];
    switch (N.Kind) {
    case FKind::And:
      put(M, I, bit(M, N.Lhs) && bit(M, N.Rhs));
      break;
    case FKind::Or:
      put(M, I, bit(M, N.Lhs) || bit(M, N.Rhs));
      break;
    case FKind::Next:
      put(M, I, bit(Succ, N.Lhs));
      break;
    case FKind::Until:
      // a U b = b | (a & X(a U b)).
      put(M, I, bit(M, N.Rhs) || (bit(M, N.Lhs) && bit(Succ, I)));
      break;
    case FKind::Release:
      // a R b = b & (a | X(a R b)).
      put(M, I, bit(M, N.Rhs) && (bit(M, N.Lhs) || bit(Succ, I)));
      break;
    default:
      break;
    }
  }
}

bool Closure::follows(const Bitset &M1, const Bitset &M2) const {
  assert(M1.size() == size() && M2.size() == size() &&
         "sets from a different closure");
  for (unsigned I = 0, E = size(); I != E; ++I) {
    const Node &N = Nodes[I];
    bool Expected;
    switch (N.Kind) {
    case FKind::Next:
      Expected = M2.test(N.Lhs);
      break;
    case FKind::Until:
      Expected = M1.test(N.Rhs) || (M1.test(N.Lhs) && M2.test(I));
      break;
    case FKind::Release:
      Expected = M1.test(N.Rhs) && (M1.test(N.Lhs) || M2.test(I));
      break;
    default:
      continue;
    }
    if (M1.test(I) != Expected)
      return false;
  }
  return true;
}

bool Closure::consistentAt(const Bitset &M, const Bitset &AtomBits) const {
  assert(M.size() == size() && AtomBits.size() == size() &&
         "sets from a different closure");
  for (unsigned I = 0, E = size(); I != E; ++I) {
    const Node &N = Nodes[I];
    switch (N.Kind) {
    case FKind::True:
      if (!M.test(I))
        return false;
      break;
    case FKind::False:
      if (M.test(I))
        return false;
      break;
    case FKind::Atom:
    case FKind::NotAtom:
      if (M.test(I) != AtomBits.test(I))
        return false;
      break;
    case FKind::And:
      if (M.test(I) != (M.test(N.Lhs) && M.test(N.Rhs)))
        return false;
      break;
    case FKind::Or:
      if (M.test(I) != (M.test(N.Lhs) || M.test(N.Rhs)))
        return false;
      break;
    default:
      break; // Temporal bits are unconstrained locally.
    }
  }
  return true;
}
