//===- sat/Solver.h - Incremental CDCL SAT solver --------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small conflict-driven clause-learning SAT solver in the MiniSat
/// style: two-literal watches, first-UIP learning and phase saving,
/// branching in static variable order. The paper's
/// early-search-termination optimization (§4.2 B) feeds ordering
/// constraints mined from counterexamples into "an (incremental) SAT
/// solver" and aborts the DFS when they become contradictory; this is
/// that solver, sized to that one caller: it never restarts (no
/// benchmark solve reaches the 32 conflicts at which a Luby schedule
/// would first restart; docs/ARCHITECTURE.md) and keeps no variable
/// activities, since its branching never reads them.
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

/// Ternary assignment value.
enum class LBool : uint8_t { True, False, Undef };

/// The solver. Usage: newVar() for each variable, addClause() for each
/// clause, then solve() — repeatedly, with more clauses between calls
/// (incremental use keeps learned clauses).
class Solver {
public:
  /// Allocates a fresh variable.
  Var newVar();

  int numVars() const { return static_cast<int>(Assigns.size()); }

  /// Adds a clause (a disjunction of literals). Returns false if the
  /// clause makes the formula trivially unsatisfiable (empty after
  /// simplification at level 0).
  bool addClause(std::vector<Lit> Lits);

  /// Solves the clauses added so far. Returns true iff satisfiable; a
  /// model is then available via modelValue().
  bool solve();

  /// The value of \p V in the last model; meaningful only after a
  /// satisfiable solve().
  bool modelValue(Var V) const { return Model[static_cast<size_t>(V)]; }

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
  void attachClause(ClauseRef C);

  std::vector<std::vector<Lit>> Clauses;
  std::vector<std::vector<Watcher>> Watches; // Indexed by literal code.
  std::vector<LBool> Assigns;
  std::vector<int> Level;
  std::vector<ClauseRef> Reason;
  std::vector<uint8_t> Polarity; // Phase saving.
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;
  size_t PropHead = 0;
  /// First possibly-unassigned variable in branching order; makes a
  /// conflict-light solve O(V) instead of O(V^2). The early-termination
  /// layer, satisfiable almost every call, solves over one variable per
  /// mentioned operation pair: measured on the benchmark (bench_suite,
  /// seed 21, 4 hardware threads), 113 at the median and 300 at most per
  /// solve on scale-update, 18 and 89 on probe-stream.
  int BranchCursor = 0;
  bool OkAtLevel0 = true;
  std::vector<bool> Model;
  std::vector<uint8_t> Seen; // Scratch for analyze().
};

} // namespace sat
} // namespace netupd

#endif // NETUPD_SAT_SOLVER_H
