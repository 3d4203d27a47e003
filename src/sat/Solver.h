//===- sat/Solver.h - Incremental CDCL SAT solver --------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small conflict-driven clause-learning SAT solver in the MiniSat
/// style: two-literal watches, first-UIP learning, VSIDS-like activities,
/// and solving under assumptions. The paper's early-search-termination
/// optimization (§4.2 B) feeds ordering constraints mined from
/// counterexamples into "an (incremental) SAT solver" and aborts the DFS
/// when they become contradictory; this is that solver.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SAT_SOLVER_H
#define NETUPD_SAT_SOLVER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace netupd {
namespace sat {

/// A 0-based propositional variable.
using Var = int;

/// A literal: variable with sign, encoded as 2*var+sign for dense indexing.
struct Lit {
  int Code = -2;

  Lit() = default;
  Lit(Var V, bool Negated) : Code(V * 2 + (Negated ? 1 : 0)) {}

  Var var() const { return Code >> 1; }
  bool sign() const { return Code & 1; } // True for a negated literal.
  Lit operator~() const {
    Lit L;
    L.Code = Code ^ 1;
    return L;
  }
  friend bool operator==(Lit A, Lit B) { return A.Code == B.Code; }
  friend bool operator!=(Lit A, Lit B) { return A.Code != B.Code; }
};

/// Positive literal of \p V.
inline Lit mkLit(Var V) { return Lit(V, false); }

/// The Luby restart sequence 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,... (0-based
/// index); the universal restart schedule of Luby/Sinclair/Zuckerman,
/// which drives the solver's own restart scheduling below.
uint64_t luby(uint64_t X);

/// Ternary assignment value.
enum class LBool : uint8_t { True, False, Undef };

/// The solver. Usage: newVar() for each variable, addClause() for each
/// clause, then solve() — repeatedly, with more clauses and/or different
/// assumptions between calls (incremental use keeps learned clauses).
class Solver {
public:
  /// Allocates a fresh variable.
  Var newVar();

  int numVars() const { return static_cast<int>(Assigns.size()); }

  /// Adds a clause (a disjunction of literals). Returns false if the
  /// clause makes the formula trivially unsatisfiable (empty after
  /// simplification at level 0).
  bool addClause(std::vector<Lit> Lits);

  /// Solves under \p Assumptions. Returns true iff satisfiable; a model is
  /// then available via modelValue().
  bool solve(const std::vector<Lit> &Assumptions = {});

  /// The value of \p V in the last model; meaningful only after a
  /// satisfiable solve().
  bool modelValue(Var V) const { return Model[static_cast<size_t>(V)]; }

  /// Statistics: conflicts seen over the solver's lifetime.
  uint64_t numConflicts() const { return Conflicts; }

  /// Statistics: Luby restarts performed over the solver's lifetime.
  /// Each solve() call restarts (backtracks to the root, keeping every
  /// learned clause) after luby(k) * 32 conflicts within the call;
  /// learned clauses are never deleted, so every restart resumes
  /// strictly stronger and completeness is unaffected.
  uint64_t numRestarts() const { return Restarts; }

private:
  using ClauseRef = int;
  static constexpr ClauseRef NoReason = -1;

  struct Watcher {
    ClauseRef Cl;
    Lit Blocker;
  };

  LBool value(Lit L) const {
    LBool V = Assigns[static_cast<size_t>(L.var())];
    if (V == LBool::Undef)
      return LBool::Undef;
    bool IsTrue = (V == LBool::True) != L.sign();
    return IsTrue ? LBool::True : LBool::False;
  }

  void newDecisionLevel() { TrailLim.push_back(static_cast<int>(Trail.size())); }
  int decisionLevel() const { return static_cast<int>(TrailLim.size()); }

  void enqueue(Lit L, ClauseRef Reason);
  ClauseRef propagate();
  void analyze(ClauseRef Confl, std::vector<Lit> &Learnt, int &BtLevel);
  void cancelUntil(int Level);
  Var pickBranchVar();
  void bumpVar(Var V);
  void attachClause(ClauseRef C);

  std::vector<std::vector<Lit>> Clauses;
  std::vector<std::vector<Watcher>> Watches; // Indexed by literal code.
  std::vector<LBool> Assigns;
  std::vector<int> Level;
  std::vector<ClauseRef> Reason;
  std::vector<double> Activity;
  std::vector<uint8_t> Polarity; // Phase saving.
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;
  size_t PropHead = 0;
  /// First possibly-unassigned variable in branching order; makes a
  /// conflict-light solve O(V) instead of O(V^2) (the early-termination
  /// workload creates hundreds of thousands of ordering variables and is
  /// satisfiable almost every call).
  int BranchCursor = 0;
  double VarInc = 1.0;
  uint64_t Conflicts = 0;
  uint64_t Restarts = 0;
  bool OkAtLevel0 = true;
  std::vector<bool> Model;
  std::vector<uint8_t> Seen; // Scratch for analyze().
};

} // namespace sat
} // namespace netupd

#endif // NETUPD_SAT_SOLVER_H
