//===- tests/ltl_test.cpp - LTL library tests ------------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "ltl/Closure.h"
#include "ltl/Parser.h"
#include "ltl/Properties.h"
#include "ltl/TraceEval.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace netupd;
using namespace netupd::testutil;

TEST(FormulaTest, HashConsing) {
  FormulaFactory FF;
  Formula A = FF.atom(Prop::onPort(1));
  Formula B = FF.atom(Prop::onPort(1));
  EXPECT_EQ(A, B);
  EXPECT_NE(A, FF.atom(Prop::onPort(2)));
  EXPECT_EQ(FF.until(A, B), FF.until(A, B));
}

TEST(FormulaTest, ConstantFolding) {
  FormulaFactory FF;
  Formula A = FF.atom(Prop::onPort(1));
  EXPECT_EQ(FF.conj(FF.top(), A), A);
  EXPECT_EQ(FF.conj(A, FF.bottom()), FF.bottom());
  EXPECT_EQ(FF.disj(FF.bottom(), A), A);
  EXPECT_EQ(FF.disj(A, FF.top()), FF.top());
  EXPECT_EQ(FF.conj(A, A), A);
}

TEST(FormulaTest, NegationIsInvolutive) {
  FormulaFactory FF;
  Rng R(11);
  for (int I = 0; I != 50; ++I) {
    Formula F = randomFormula(FF, R, 4);
    EXPECT_EQ(FF.negate(FF.negate(F)), F) << printFormula(F);
  }
}

TEST(FormulaTest, NegationFlipsSemantics) {
  FormulaFactory FF;
  Rng R(12);
  for (int I = 0; I != 200; ++I) {
    Formula F = randomFormula(FF, R, 3);
    Formula NotF = FF.negate(F);
    Trace T = randomTrace(R, 1 + R.nextBelow(6));
    EXPECT_NE(evalOnTrace(F, T), evalOnTrace(NotF, T))
        << printFormula(F) << " on a " << T.size() << "-state trace";
  }
}

TEST(ParserTest, Atoms) {
  FormulaFactory FF;
  ParseResult P = parseLtl(FF, "port=3");
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.F, FF.atom(Prop::onPort(3)));

  P = parseLtl(FF, "sw != 2");
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.F, FF.notAtom(Prop::onSwitch(2)));

  P = parseLtl(FF, "dst=4");
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.F, FF.atom(Prop::onField(Field::Dst, 4)));
}

TEST(ParserTest, PrecedenceAndSugar) {
  FormulaFactory FF;
  Formula A = FF.atom(Prop::onPort(1));
  Formula B = FF.atom(Prop::onPort(2));
  Formula C = FF.atom(Prop::onPort(3));

  ParseResult P = parseLtl(FF, "port=1 | port=2 & port=3");
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.F, FF.disj(A, FF.conj(B, C)));

  P = parseLtl(FF, "port=1 -> F port=2");
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.F, FF.implies(A, FF.finally_(B)));

  P = parseLtl(FF, "G (port=1 U port=2)");
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.F, FF.globally(FF.until(A, B)));

  P = parseLtl(FF, "!(port=1 & port=2)");
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.F, FF.disj(FF.notAtom(Prop::onPort(1)),
                         FF.notAtom(Prop::onPort(2))));
}

TEST(ParserTest, Errors) {
  FormulaFactory FF;
  EXPECT_FALSE(parseLtl(FF, "").ok());
  EXPECT_FALSE(parseLtl(FF, "port=").ok());
  EXPECT_FALSE(parseLtl(FF, "bogus=1").ok());
  EXPECT_FALSE(parseLtl(FF, "(port=1").ok());
  EXPECT_FALSE(parseLtl(FF, "port=1 port=2").ok());
  EXPECT_FALSE(parseLtl(FF, "port ^ 1").ok());
}

TEST(ParserTest, PrinterRoundTrip) {
  FormulaFactory FF;
  Rng R(13);
  for (int I = 0; I != 100; ++I) {
    Formula F = randomFormula(FF, R, 4);
    ParseResult P = parseLtl(FF, printFormula(F));
    ASSERT_TRUE(P.ok()) << printFormula(F) << " :: " << P.Error;
    EXPECT_EQ(P.F, F) << printFormula(F);
  }
}

TEST(ClosureTest, ItemsAreChildrenFirst) {
  FormulaFactory FF;
  Formula F = FF.until(FF.atom(Prop::onPort(1)),
                       FF.conj(FF.atom(Prop::onPort(2)),
                               FF.next(FF.atom(Prop::onPort(3)))));
  Closure Cl(F);
  for (unsigned I = 0; I != Cl.size(); ++I) {
    Formula Item = Cl.item(I);
    if (Item->lhs()) {
      EXPECT_LT(Cl.indexOf(Item->lhs()), I);
    }
    if (Item->rhs()) {
      EXPECT_LT(Cl.indexOf(Item->rhs()), I);
    }
  }
  EXPECT_EQ(Cl.item(Cl.rootIndex()), F);
}

/// The key §5 invariant: walking extend() backwards along a trace computes
/// exactly the formulas the trace satisfies (Lemma 3).
TEST(ClosureTest, ExtendMatchesTraceSemantics) {
  FormulaFactory FF;
  Rng R(14);
  for (int Round = 0; Round != 300; ++Round) {
    Formula F = randomFormula(FF, R, 3);
    Closure Cl(F);
    Trace T = randomTrace(R, 1 + R.nextBelow(5));

    // Label the trace back to front.
    Bitset M = Cl.sinkLabel(Cl.atomBits(T.back()));
    Bitset Prev;
    for (size_t I = T.size() - 1; I-- > 0;) {
      std::swap(M, Prev);
      Cl.extend(Prev, Cl.atomBits(T[I]), M);
    }

    for (unsigned I = 0; I != Cl.size(); ++I)
      EXPECT_EQ(M.test(I), evalOnTrace(Cl.item(I), T))
          << "subformula " << printFormula(Cl.item(I)) << " of "
          << printFormula(F);
  }
}

TEST(ClosureTest, FollowsAcceptsExtend) {
  FormulaFactory FF;
  Rng R(15);
  for (int Round = 0; Round != 100; ++Round) {
    Formula F = randomFormula(FF, R, 3);
    Closure Cl(F);
    StateInfo A = randomTrace(R, 1)[0];
    StateInfo B = randomTrace(R, 1)[0];
    Bitset MB = Cl.sinkLabel(Cl.atomBits(B));
    Bitset MA;
    Cl.extend(MB, Cl.atomBits(A), MA);
    EXPECT_TRUE(Cl.follows(MA, MB));
    EXPECT_TRUE(Cl.consistentAt(MA, Cl.atomBits(A)));
    EXPECT_TRUE(Cl.consistentAt(MB, Cl.atomBits(B)));
  }
}

TEST(ClosureTest, SinkLabelIsSelfFollowing) {
  FormulaFactory FF;
  Rng R(16);
  for (int Round = 0; Round != 100; ++Round) {
    Formula F = randomFormula(FF, R, 3);
    Closure Cl(F);
    StateInfo S = randomTrace(R, 1)[0];
    Bitset M = Cl.sinkLabel(Cl.atomBits(S));
    EXPECT_TRUE(Cl.follows(M, M)) << printFormula(F);
  }
}

TEST(PropertiesTest, ReachabilityShape) {
  FormulaFactory FF;
  Formula F = reachabilityProperty(FF, 3, 7);
  // (port=3) -> F (port=7)  ==  !port=3 | F port=7.
  EXPECT_EQ(F, FF.disj(FF.notAtom(Prop::onPort(3)),
                       FF.finally_(FF.atom(Prop::onPort(7)))));
}

TEST(PropertiesTest, ReachabilityOnTraces) {
  FormulaFactory FF;
  Formula F = reachabilityProperty(FF, 3, 7);

  StateInfo AtSrc{0, 3, makeHeader(1, 2)};
  StateInfo Mid{1, 5, makeHeader(1, 2)};
  StateInfo AtDst{2, 7, makeHeader(1, 2)};

  EXPECT_TRUE(evalOnTrace(F, {AtSrc, Mid, AtDst}));
  EXPECT_FALSE(evalOnTrace(F, {AtSrc, Mid}));
  // Vacuous when not starting at the source.
  EXPECT_TRUE(evalOnTrace(F, {Mid, Mid}));
}

TEST(PropertiesTest, WaypointOnTraces) {
  FormulaFactory FF;
  Formula F = waypointProperty(FF, 3, Prop::onSwitch(9), 7);

  StateInfo AtSrc{0, 3, makeHeader(1, 2)};
  StateInfo Way{9, 5, makeHeader(1, 2)};
  StateInfo Other{1, 6, makeHeader(1, 2)};
  StateInfo AtDst{2, 7, makeHeader(1, 2)};

  EXPECT_TRUE(evalOnTrace(F, {AtSrc, Way, AtDst}));
  EXPECT_TRUE(evalOnTrace(F, {AtSrc, Other, Way, Other, AtDst}));
  // Skipping the waypoint violates the property.
  EXPECT_FALSE(evalOnTrace(F, {AtSrc, Other, AtDst}));
  // Never reaching the destination violates it too.
  EXPECT_FALSE(evalOnTrace(F, {AtSrc, Way, Other}));
}

TEST(PropertiesTest, ServiceChainOrder) {
  FormulaFactory FF;
  std::vector<Prop> Chain = {Prop::onSwitch(10), Prop::onSwitch(11)};
  Formula F = serviceChainProperty(FF, 3, Chain, 7);

  StateInfo AtSrc{0, 3, makeHeader(1, 2)};
  StateInfo W1{10, 5, makeHeader(1, 2)};
  StateInfo W2{11, 6, makeHeader(1, 2)};
  StateInfo AtDst{2, 7, makeHeader(1, 2)};

  EXPECT_TRUE(evalOnTrace(F, {AtSrc, W1, W2, AtDst}));
  // Out of order: W2 before W1 is a violation.
  EXPECT_FALSE(evalOnTrace(F, {AtSrc, W2, W1, AtDst}));
  // Skipping W2 is a violation.
  EXPECT_FALSE(evalOnTrace(F, {AtSrc, W1, AtDst}));
}

TEST(PropertiesTest, ClassGuardScopes) {
  FormulaFactory FF;
  TrafficClass C{makeHeader(1, 2), "c"};
  Formula F = reachabilityProperty(FF, 3, 7, classGuard(FF, C));

  // A different class entering at the source port is not constrained.
  StateInfo OtherClassAtSrc{0, 3, makeHeader(5, 6)};
  EXPECT_TRUE(evalOnTrace(F, {OtherClassAtSrc, OtherClassAtSrc}));

  StateInfo AtSrc{0, 3, makeHeader(1, 2)};
  EXPECT_FALSE(evalOnTrace(F, {AtSrc, AtSrc}));
}
