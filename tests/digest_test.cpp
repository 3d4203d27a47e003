//===- tests/digest_test.cpp - canonical digest tests ----------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the canonical digest layer: builder determinism, per-type
/// digests (Rule/Table/Config/Topology/Formula/Scenario), and — the
/// property the memoization stack rests on — incremental digest
/// maintenance in KripkeStructure staying exact under arbitrary
/// mutate/rollback round-trips.
///
//===----------------------------------------------------------------------===//

#include "engine/Job.h"
#include "kripke/Kripke.h"
#include "ltl/Parser.h"
#include "topo/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace netupd;
using namespace netupd::testutil;

namespace {

Scenario diamond(uint64_t Seed,
                 PropertyKind Kind = PropertyKind::Reachability) {
  Rng R(Seed);
  Topology Base = buildSmallWorld(16, 4, 0.2, R);
  std::optional<Scenario> S = makeDiamondScenario(Base, R, Kind);
  EXPECT_TRUE(S.has_value()) << "seed " << Seed << " grew no diamond";
  return std::move(*S);
}

} // namespace

TEST(DigestTest, BuilderDeterministicAndSensitive) {
  DigestBuilder A, B;
  A.addU64(1);
  A.addString("abc");
  B.addU64(1);
  B.addString("abc");
  EXPECT_EQ(A.finish(), B.finish());
  EXPECT_EQ(A.finish().str().size(), 32u);

  DigestBuilder C;
  C.addU64(1);
  C.addString("abd");
  EXPECT_NE(A.finish(), C.finish());

  // Length prefixing: ("ab","c") and ("a","bc") must differ.
  DigestBuilder D, E;
  D.addString("ab");
  D.addString("c");
  E.addString("a");
  E.addString("bc");
  EXPECT_NE(D.finish(), E.finish());

  EXPECT_EQ(Digest(), Digest());
  EXPECT_NE(A.finish(), Digest());
}

TEST(DigestTest, TableDigestIsOrderSensitive) {
  Rule R1;
  R1.Priority = 10;
  R1.Pat = Pattern::onField(Field::Dst, 1);
  R1.Actions.push_back(Action::forward(3));
  Rule R2 = R1;
  R2.Pat = Pattern::onField(Field::Dst, 2);

  Table T1({R1, R2});
  Table T2({R1, R2});
  Table Reordered({R2, R1});
  EXPECT_EQ(digestOf(T1), digestOf(T2));
  // Rule order is semantic (equal-priority ties break by index), so the
  // digest must distinguish it.
  EXPECT_NE(digestOf(T1), digestOf(Reordered));
  EXPECT_NE(digestOf(T1), digestOf(Table()));
}

TEST(DigestTest, ConfigDigestTracksTables) {
  Scenario S = diamond(1);
  EXPECT_EQ(digestOf(S.Initial), digestOf(S.Initial));
  EXPECT_NE(digestOf(S.Initial), digestOf(S.Final));

  Config Copy = S.Initial;
  EXPECT_EQ(digestOf(Copy), digestOf(S.Initial));
  for (SwitchId Sw : diffSwitches(S.Initial, S.Final)) {
    Copy.setTable(Sw, S.Final.table(Sw));
    break;
  }
  EXPECT_NE(digestOf(Copy), digestOf(S.Initial));
}

TEST(DigestTest, TopologyDigestIgnoresNamesOnly) {
  Rng R1(7), R2(7), R3(8);
  Topology A = buildSmallWorld(20, 4, 0.2, R1);
  Topology B = buildSmallWorld(20, 4, 0.2, R2);
  Topology C = buildSmallWorld(20, 4, 0.2, R3);
  EXPECT_EQ(digestOf(A), digestOf(B));
  EXPECT_NE(digestOf(A), digestOf(C));
}

TEST(DigestTest, FormulaDigestIsStructuralAcrossFactories) {
  FormulaFactory F1, F2;
  Formula A = parseLtl(F1, "G (port=1 -> F port=2)").F;
  Formula B = parseLtl(F2, "G (port=1 -> F port=2)").F;
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_NE(A, B) << "distinct factories intern distinct nodes";
  EXPECT_EQ(digestOf(A), digestOf(B))
      << "structural digest must not depend on the factory";

  Formula C = parseLtl(F2, "G (port=1 -> F port=3)").F;
  EXPECT_NE(digestOf(B), digestOf(C));
  EXPECT_NE(digestOf(F1.top()), digestOf(F1.bottom()));

  // Random formulas: digest equality tracks pointer equality within one
  // factory (hash-consing makes structural and pointer equality
  // coincide there).
  Rng R(11);
  for (unsigned I = 0; I != 50; ++I) {
    Formula X = randomFormula(F1, R, 4);
    Formula Y = randomFormula(F1, R, 4);
    EXPECT_EQ(X == Y, digestOf(X) == digestOf(Y));
  }
}

TEST(DigestTest, ScenarioAndJobDigests) {
  Scenario A = diamond(3);
  Scenario Copy = A;
  EXPECT_EQ(digestOf(A), digestOf(Copy));
  EXPECT_NE(digestOf(A), digestOf(diamond(4)));
  EXPECT_NE(digestOf(diamond(5, PropertyKind::Reachability)),
            digestOf(diamond(5, PropertyKind::Waypoint)));

  // Job digests: name is presentation, options and portfolio are not.
  SynthJob J1, J2;
  J1.S = A;
  J1.Name = "left";
  J2.S = A;
  J2.Name = "right";
  EXPECT_EQ(digestOf(J1), digestOf(J2));

  // An empty portfolio means one default member; spelling that member
  // out must produce the same digest.
  SynthJob J3 = J1;
  J3.Portfolio.emplace_back();
  EXPECT_EQ(digestOf(J1), digestOf(J3));

  SynthJob J4 = J1;
  J4.Portfolio = defaultPortfolio();
  EXPECT_NE(digestOf(J1), digestOf(J4));

  SynthJob J5 = J3;
  J5.Portfolio[0].Opts.RuleGranularity = true;
  EXPECT_NE(digestOf(J3), digestOf(J5));

  SynthJob J6 = J3;
  J6.Portfolio[0].Backend = "Incremental"; // Factory is case-insensitive.
  EXPECT_EQ(digestOf(J3), digestOf(J6));
}

// The tentpole invariant: the digest a KripkeStructure maintains
// incrementally under apply/undo always equals the digest of a structure
// built fresh from the current configuration, and rollback restores the
// original digest exactly.
TEST(DigestTest, KripkeDigestSurvivesMutateRollbackRoundTrips) {
  Scenario S = diamond(6);
  KripkeStructure K(S.Topo, S.Initial, S.classes());
  const Digest Original = K.digest();

  KripkeStructure SameContent(S.Topo, S.Initial, S.classes());
  EXPECT_EQ(Original, SameContent.digest());

  std::vector<SwitchId> Diff = diffSwitches(S.Initial, S.Final);
  ASSERT_FALSE(Diff.empty());

  // Walk a random mutate/rollback sequence; at every step the
  // incremental digest must match a from-scratch construction.
  Rng R(99);
  std::vector<KripkeStructure::UndoRecord> Undos;
  std::vector<Digest> DigestStack{Original};
  for (unsigned Step = 0; Step != 40; ++Step) {
    bool Push = Undos.empty() || (R.next() % 2 == 0);
    if (Push) {
      SwitchId Sw = Diff[R.next() % Diff.size()];
      // Alternate between the final and initial table for the switch so
      // pushes are not always no-ops on repeat visits.
      const Table &NewT = (R.next() % 2 == 0) ? S.Final.table(Sw)
                                              : S.Initial.table(Sw);
      std::vector<StateId> Changed;
      Undos.push_back(K.applySwitchUpdate(Sw, NewT, Changed));
      DigestStack.push_back(K.digest());
    } else {
      K.undo(Undos.back());
      Undos.pop_back();
      DigestStack.pop_back();
      EXPECT_EQ(K.digest(), DigestStack.back())
          << "rollback failed to restore the digest at step " << Step;
    }
    KripkeStructure Fresh(S.Topo, K.config(), S.classes());
    ASSERT_EQ(K.digest(), Fresh.digest())
        << "incremental digest diverged at step " << Step;
  }
  while (!Undos.empty()) {
    K.undo(Undos.back());
    Undos.pop_back();
  }
  EXPECT_EQ(K.digest(), Original);

  // The digest is computed on first use, not at construction: a
  // structure first asked after several applies must still agree with a
  // fresh build, and keep agreeing through the rollbacks that follow.
  KripkeStructure Late(S.Topo, S.Initial, S.classes());
  for (SwitchId Sw : Diff) {
    std::vector<StateId> Changed;
    Undos.push_back(Late.applySwitchUpdate(Sw, S.Final.table(Sw), Changed));
  }
  KripkeStructure FreshFinal(S.Topo, Late.config(), S.classes());
  EXPECT_EQ(Late.digest(), FreshFinal.digest());
  while (!Undos.empty()) {
    Late.undo(Undos.back());
    Undos.pop_back();
  }
  EXPECT_EQ(Late.digest(), Original);
}

// Structures over different configurations get different digests (no
// trivial XOR cancellation across switches).
TEST(DigestTest, KripkeDigestDistinguishesConfigurations) {
  Scenario S = diamond(8);
  KripkeStructure Initial(S.Topo, S.Initial, S.classes());
  KripkeStructure Final(S.Topo, S.Final, S.classes());
  EXPECT_NE(Initial.digest(), Final.digest());

  // Swapping two switches' (distinct) tables must change the digest:
  // slot digests bind the switch id.
  std::vector<SwitchId> Diff = diffSwitches(S.Initial, S.Final);
  if (Diff.size() >= 2) {
    Config Swapped = S.Initial;
    Swapped.setTable(Diff[0], S.Initial.table(Diff[1]));
    Swapped.setTable(Diff[1], S.Initial.table(Diff[0]));
    if (S.Initial.table(Diff[0]) != S.Initial.table(Diff[1])) {
      EXPECT_NE(digestOf(Swapped), digestOf(S.Initial));
    }
  }
}
