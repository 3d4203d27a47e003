//===- tests/sat_test.cpp - CDCL SAT solver tests --------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace netupd;
using namespace netupd::sat;

namespace {

/// Brute-force SAT over <= 16 variables.
bool bruteForceSat(int NumVars,
                   const std::vector<std::vector<Lit>> &Clauses) {
  for (uint32_t Assign = 0; Assign != (1u << NumVars); ++Assign) {
    bool AllSat = true;
    for (const auto &Cl : Clauses) {
      bool Sat = false;
      for (Lit L : Cl) {
        bool V = (Assign >> L.var()) & 1;
        if (V != L.sign()) {
          Sat = true;
          break;
        }
      }
      if (!Sat) {
        AllSat = false;
        break;
      }
    }
    if (AllSat)
      return true;
  }
  return false;
}

} // namespace

TEST(SatTest, TrivialSat) {
  Solver S;
  Var A = S.newVar();
  Var B = S.newVar();
  S.addClause({mkLit(A), mkLit(B)});
  EXPECT_TRUE(S.solve());
  EXPECT_TRUE(S.modelValue(A) || S.modelValue(B));
}

TEST(SatTest, TrivialUnsat) {
  Solver S;
  Var A = S.newVar();
  S.addClause({mkLit(A)});
  S.addClause({~mkLit(A)});
  EXPECT_FALSE(S.solve());
}

TEST(SatTest, UnitPropagationChain) {
  Solver S;
  std::vector<Var> Vs;
  for (int I = 0; I != 10; ++I)
    Vs.push_back(S.newVar());
  S.addClause({mkLit(Vs[0])});
  for (int I = 0; I + 1 != 10; ++I)
    S.addClause({~mkLit(Vs[I]), mkLit(Vs[I + 1])});
  ASSERT_TRUE(S.solve());
  for (int I = 0; I != 10; ++I)
    EXPECT_TRUE(S.modelValue(Vs[I]));
}

TEST(SatTest, PigeonHole3Into2) {
  // 3 pigeons, 2 holes: classic small UNSAT instance.
  Solver S;
  Var P[3][2];
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (int I = 0; I != 3; ++I)
    S.addClause({mkLit(P[I][0]), mkLit(P[I][1])});
  for (int H = 0; H != 2; ++H)
    for (int I = 0; I != 3; ++I)
      for (int J = I + 1; J != 3; ++J)
        S.addClause({~mkLit(P[I][H]), ~mkLit(P[J][H])});
  EXPECT_FALSE(S.solve());
}

TEST(SatTest, IncrementalClauseAddition) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause({mkLit(A), mkLit(B)});
  EXPECT_TRUE(S.solve());
  S.addClause({~mkLit(A)});
  EXPECT_TRUE(S.solve());
  EXPECT_TRUE(S.modelValue(B));
  S.addClause({~mkLit(B), mkLit(C)});
  S.addClause({~mkLit(C)});
  EXPECT_FALSE(S.solve());
  // Once root-level UNSAT, it stays UNSAT.
  EXPECT_FALSE(S.solve());
}

TEST(SatTest, TautologyAndDuplicates) {
  Solver S;
  Var A = S.newVar();
  Var B = S.newVar();
  // Tautological clause is dropped, duplicate literals collapse.
  S.addClause({mkLit(A), ~mkLit(A)});
  S.addClause({mkLit(B), mkLit(B)});
  ASSERT_TRUE(S.solve());
  EXPECT_TRUE(S.modelValue(B));
}

struct RandomCnfParam {
  uint64_t Seed;
  int NumVars;
  int NumClauses;
};

class SatRandomTest : public ::testing::TestWithParam<RandomCnfParam> {};

TEST_P(SatRandomTest, MatchesBruteForce) {
  RandomCnfParam P = GetParam();
  Rng R(P.Seed);
  Solver S;
  for (int I = 0; I != P.NumVars; ++I)
    S.newVar();

  std::vector<std::vector<Lit>> Clauses;
  for (int C = 0; C != P.NumClauses; ++C) {
    std::vector<Lit> Cl;
    int Len = 1 + static_cast<int>(R.nextBelow(3));
    for (int L = 0; L != Len; ++L)
      Cl.push_back(Lit(static_cast<Var>(R.nextBelow(P.NumVars)),
                       R.nextBool()));
    Clauses.push_back(Cl);
  }

  bool Expected = bruteForceSat(P.NumVars, Clauses);
  for (const auto &Cl : Clauses)
    S.addClause(Cl);
  bool Got = S.solve();
  EXPECT_EQ(Got, Expected);

  if (Got) {
    // The model must satisfy every clause.
    for (const auto &Cl : Clauses) {
      bool Sat = false;
      for (Lit L : Cl)
        Sat |= S.modelValue(L.var()) != L.sign();
      EXPECT_TRUE(Sat);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomCnf, SatRandomTest, ::testing::Values(
        RandomCnfParam{1, 6, 15}, RandomCnfParam{2, 8, 25},
        RandomCnfParam{3, 8, 35}, RandomCnfParam{4, 10, 42},
        RandomCnfParam{5, 10, 30}, RandomCnfParam{6, 12, 50},
        RandomCnfParam{7, 12, 60}, RandomCnfParam{8, 5, 40},
        RandomCnfParam{9, 14, 56}, RandomCnfParam{10, 14, 70},
        RandomCnfParam{11, 7, 21}, RandomCnfParam{12, 9, 36},
        RandomCnfParam{13, 11, 44}, RandomCnfParam{14, 13, 52},
        RandomCnfParam{15, 15, 60}, RandomCnfParam{16, 15, 75}));

// The early-termination layer's usage pattern: clauses arrive in batches
// with a solve after each, so every later solve runs over the clauses
// learned by the earlier ones.
TEST(SatTest, RandomIncrementalMatchesBruteForce) {
  Rng R(99);
  for (int Round = 0; Round != 20; ++Round) {
    Solver S;
    int NumVars = 8;
    for (int I = 0; I != NumVars; ++I)
      S.newVar();
    std::vector<std::vector<Lit>> Clauses;
    for (int C = 0; C != 30; ++C) {
      std::vector<Lit> Cl;
      int Len = 1 + static_cast<int>(R.nextBelow(3));
      for (int L = 0; L != Len; ++L)
        Cl.push_back(Lit(static_cast<Var>(R.nextBelow(NumVars)),
                         R.nextBool()));
      Clauses.push_back(Cl);
      S.addClause(Cl);
      if (C % 5 == 4) {
        EXPECT_EQ(S.solve(), bruteForceSat(NumVars, Clauses))
            << "round " << Round << " after " << C + 1 << " clauses";
      }
    }
  }
}
