//===- sat/Solver.cpp - Incremental CDCL SAT solver ------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include <algorithm>
#include <cassert>

using namespace netupd;
using namespace netupd::sat;

Var Solver::newVar() {
  Var V = numVars();
  Assigns.push_back(LBool::Undef);
  Level.push_back(0);
  Reason.push_back(NoReason);
  Activity.push_back(0.0);
  Polarity.push_back(1); // Default to negative phase, like MiniSat.
  Seen.push_back(0);
  Watches.emplace_back();
  Watches.emplace_back();
  return V;
}

bool Solver::addClause(std::vector<Lit> Lits) {
  assert(decisionLevel() == 0 && "clauses must be added at the root level");
  if (!OkAtLevel0)
    return false;

  // Simplify: drop duplicate/false literals, detect tautologies and
  // already-satisfied clauses.
  std::sort(Lits.begin(), Lits.end(),
            [](Lit A, Lit B) { return A.Code < B.Code; });
  std::vector<Lit> Out;
  Lit Prev;
  for (Lit L : Lits) {
    if (value(L) == LBool::True || (Out.size() && L == ~Prev))
      return true; // Satisfied or tautological.
    if (value(L) == LBool::False || (Out.size() && L == Prev))
      continue;
    Out.push_back(L);
    Prev = L;
  }

  if (Out.empty()) {
    OkAtLevel0 = false;
    return false;
  }
  if (Out.size() == 1) {
    enqueue(Out[0], NoReason);
    OkAtLevel0 = (propagate() == NoReason);
    return OkAtLevel0;
  }

  Clauses.push_back(std::move(Out));
  attachClause(static_cast<ClauseRef>(Clauses.size()) - 1);
  return true;
}

void Solver::attachClause(ClauseRef C) {
  const std::vector<Lit> &Cl = Clauses[static_cast<size_t>(C)];
  assert(Cl.size() >= 2 && "watched clauses need two literals");
  Watches[static_cast<size_t>((~Cl[0]).Code)].push_back({C, Cl[1]});
  Watches[static_cast<size_t>((~Cl[1]).Code)].push_back({C, Cl[0]});
}

void Solver::enqueue(Lit L, ClauseRef Why) {
  assert(value(L) == LBool::Undef && "enqueue of an assigned literal");
  Assigns[static_cast<size_t>(L.var())] =
      L.sign() ? LBool::False : LBool::True;
  Level[static_cast<size_t>(L.var())] = decisionLevel();
  Reason[static_cast<size_t>(L.var())] = Why;
  Trail.push_back(L);
}

Solver::ClauseRef Solver::propagate() {
  while (PropHead < Trail.size()) {
    Lit P = Trail[PropHead++];
    std::vector<Watcher> &Ws = Watches[static_cast<size_t>(P.Code)];
    size_t Keep = 0;
    for (size_t I = 0; I != Ws.size(); ++I) {
      Watcher W = Ws[I];
      // Blocker literal already true: clause satisfied, keep watch.
      if (value(W.Blocker) == LBool::True) {
        Ws[Keep++] = W;
        continue;
      }
      std::vector<Lit> &Cl = Clauses[static_cast<size_t>(W.Cl)];
      // Normalize so the false literal (~P) is at slot 1.
      Lit NotP = ~P;
      if (Cl[0] == NotP)
        std::swap(Cl[0], Cl[1]);
      assert(Cl[1] == NotP && "watch list out of sync");
      if (value(Cl[0]) == LBool::True) {
        Ws[Keep++] = {W.Cl, Cl[0]};
        continue;
      }
      // Look for a replacement watch.
      bool Moved = false;
      for (size_t J = 2; J != Cl.size(); ++J) {
        if (value(Cl[J]) == LBool::False)
          continue;
        std::swap(Cl[1], Cl[J]);
        Watches[static_cast<size_t>((~Cl[1]).Code)].push_back({W.Cl, Cl[0]});
        Moved = true;
        break;
      }
      if (Moved)
        continue;
      // Unit or conflicting.
      Ws[Keep++] = W;
      if (value(Cl[0]) == LBool::False) {
        // Conflict: restore untouched watchers and bail out.
        for (size_t J = I + 1; J != Ws.size(); ++J)
          Ws[Keep++] = Ws[J];
        Ws.resize(Keep);
        PropHead = Trail.size();
        return W.Cl;
      }
      enqueue(Cl[0], W.Cl);
    }
    Ws.resize(Keep);
  }
  return NoReason;
}

void Solver::bumpVar(Var V) {
  Activity[static_cast<size_t>(V)] += VarInc;
  if (Activity[static_cast<size_t>(V)] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
}

void Solver::analyze(ClauseRef Confl, std::vector<Lit> &Learnt,
                     int &BtLevel) {
  // First-UIP conflict analysis (MiniSat's analyze).
  Learnt.clear();
  Learnt.push_back(Lit()); // Slot for the asserting literal.
  int Counter = 0;
  Lit P;
  bool HaveP = false;
  size_t TrailIdx = Trail.size();

  for (;;) {
    assert(Confl != NoReason && "no reason while resolving conflict");
    const std::vector<Lit> &Cl = Clauses[static_cast<size_t>(Confl)];
    for (size_t I = HaveP ? 1 : 0; I != Cl.size(); ++I) {
      Lit Q = Cl[I];
      if (Q == P && HaveP)
        continue;
      Var V = Q.var();
      if (Seen[static_cast<size_t>(V)] ||
          Level[static_cast<size_t>(V)] == 0)
        continue;
      Seen[static_cast<size_t>(V)] = 1;
      bumpVar(V);
      if (Level[static_cast<size_t>(V)] == decisionLevel())
        ++Counter;
      else
        Learnt.push_back(Q);
    }
    // Select next literal to resolve on: last seen literal on the trail.
    do {
      assert(TrailIdx > 0 && "ran off the trail during analyze");
      P = Trail[--TrailIdx];
    } while (!Seen[static_cast<size_t>(P.var())]);
    HaveP = true;
    Seen[static_cast<size_t>(P.var())] = 0;
    --Counter;
    if (Counter == 0)
      break;
    Confl = Reason[static_cast<size_t>(P.var())];
  }
  Learnt[0] = ~P;

  // Find the backtrack level: the highest level among the other literals.
  BtLevel = 0;
  size_t MaxIdx = 1;
  for (size_t I = 1; I != Learnt.size(); ++I) {
    int L = Level[static_cast<size_t>(Learnt[I].var())];
    if (L > BtLevel) {
      BtLevel = L;
      MaxIdx = I;
    }
  }
  if (Learnt.size() > 1)
    std::swap(Learnt[1], Learnt[MaxIdx]);

  for (Lit L : Learnt)
    Seen[static_cast<size_t>(L.var())] = 0;
}

void Solver::cancelUntil(int TargetLevel) {
  if (decisionLevel() <= TargetLevel)
    return;
  int Bound = TrailLim[static_cast<size_t>(TargetLevel)];
  for (int I = static_cast<int>(Trail.size()) - 1; I >= Bound; --I) {
    Var V = Trail[static_cast<size_t>(I)].var();
    Polarity[static_cast<size_t>(V)] =
        Trail[static_cast<size_t>(I)].sign() ? 1 : 0;
    Assigns[static_cast<size_t>(V)] = LBool::Undef;
    Reason[static_cast<size_t>(V)] = NoReason;
  }
  Trail.resize(static_cast<size_t>(Bound));
  TrailLim.resize(static_cast<size_t>(TargetLevel));
  PropHead = Trail.size();
  BranchCursor = 0; // Unassignments may have opened earlier variables.
}

Var Solver::pickBranchVar() {
  // Cursor scan in static order with phase saving; see BranchCursor.
  // Activities still accumulate (analyze() bumps them) and steer learned
  // clauses, but selection stays O(1) amortized per decision.
  while (BranchCursor < numVars() &&
         Assigns[static_cast<size_t>(BranchCursor)] != LBool::Undef)
    ++BranchCursor;
  return BranchCursor < numVars() ? BranchCursor : -1;
}

bool Solver::solve(const std::vector<Lit> &Assumptions) {
  cancelUntil(0);
  if (!OkAtLevel0)
    return false;
  if (propagate() != NoReason) {
    OkAtLevel0 = false;
    return false;
  }

  std::vector<Lit> Learnt;
  for (;;) {
    ClauseRef Confl = propagate();
    if (Confl != NoReason) {
      ++Conflicts;
      if (decisionLevel() == 0) {
        OkAtLevel0 = false;
        cancelUntil(0);
        return false;
      }
      int BtLevel;
      analyze(Confl, Learnt, BtLevel);
      cancelUntil(BtLevel);
      if (Learnt.size() == 1) {
        if (value(Learnt[0]) == LBool::Undef)
          enqueue(Learnt[0], NoReason);
        else if (value(Learnt[0]) == LBool::False) {
          OkAtLevel0 = false;
          cancelUntil(0);
          return false;
        }
      } else {
        Clauses.push_back(Learnt);
        ClauseRef C = static_cast<ClauseRef>(Clauses.size()) - 1;
        attachClause(C);
        enqueue(Learnt[0], C);
      }
      VarInc *= (1.0 / 0.95); // Activity decay.
      continue;
    }

    // No conflict: take the next assumption or branch.
    if (decisionLevel() < static_cast<int>(Assumptions.size())) {
      Lit A = Assumptions[static_cast<size_t>(decisionLevel())];
      if (value(A) == LBool::True) {
        newDecisionLevel(); // Dummy level so indices line up.
        continue;
      }
      if (value(A) == LBool::False) {
        cancelUntil(0);
        return false; // Assumptions conflict with learned facts.
      }
      newDecisionLevel();
      enqueue(A, NoReason);
      continue;
    }

    Var V = pickBranchVar();
    if (V == -1) {
      // Full model.
      Model.assign(static_cast<size_t>(numVars()), false);
      for (Var U = 0; U != numVars(); ++U)
        Model[static_cast<size_t>(U)] =
            Assigns[static_cast<size_t>(U)] == LBool::True;
      cancelUntil(0);
      return true;
    }
    newDecisionLevel();
    enqueue(Lit(V, Polarity[static_cast<size_t>(V)] != 0), NoReason);
  }
}
