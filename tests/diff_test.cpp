//===- tests/diff_test.cpp - Differential fuzzing harness tests -*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The differential harness tested against itself: the checked-in corpus
// of minimized repro instances replays clean through the real backend
// matrix, the repro text format round-trips exactly, a deliberately
// lying backend is caught and minimized, and a short in-process fuzz run
// (instances and churn streams) finds no disagreements. The corpus files
// under tests/corpus/ came from earlier fuzz/self-test runs; every new
// minimized disagreement the fuzzer produces is a candidate addition.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"
#include "fuzz/Minimize.h"
#include "fuzz/Repro.h"
#include "mc/BackendFactory.h"
#include "mc/LabelingChecker.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace netupd {
namespace {

using fuzz::BudgetSpec;
using fuzz::Disagreement;
using fuzz::Repro;

std::string corpusDir() {
  return std::string(NETUPD_SOURCE_DIR) + "/tests/corpus";
}

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Out;
  for (const auto &E : std::filesystem::directory_iterator(corpusDir()))
    if (E.path().extension() == ".repro")
      Out.push_back(E.path().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// The fast half of the registry plus the shallow symbolic checker —
/// the same split netupd_fuzz uses by default.
const std::vector<std::string> kBackends = {"incremental", "batch", "hsa",
                                            "naive", "symbolic"};
const std::vector<std::string> kShallow = {"symbolic"};

/// Every corpus instance parses and replays through the full matrix with
/// no disagreement — these are exactly the instances that once exposed a
/// (deliberate or hypothetical) bug, so they stay pinned forever.
TEST(DiffCorpusTest, ReplaysClean) {
  std::vector<std::string> Files = corpusFiles();
  ASSERT_GE(Files.size(), 5u) << "corpus went missing from " << corpusDir();
  BudgetSpec Budget; // Shared-total budget of 40 charged calls.
  for (const std::string &Path : Files) {
    std::optional<Repro> R = fuzz::loadReproFile(Path);
    ASSERT_TRUE(R.has_value()) << Path;
    EXPECT_FALSE(R->Title.empty()) << Path;
    std::optional<Disagreement> D =
        fuzz::checkScenario(R->S, kBackends, Budget, nullptr, kShallow);
    EXPECT_FALSE(D.has_value())
        << Path << ": " << (D ? D->str() : std::string());
  }
}

/// The corpus also agrees under a per-unit budget, the contract's other
/// budget mode.
TEST(DiffCorpusTest, ReplaysCleanPerUnitBudget) {
  BudgetSpec Budget;
  Budget.PerUnit = true;
  Budget.Amount = 3;
  for (const std::string &Path : corpusFiles()) {
    std::optional<Repro> R = fuzz::loadReproFile(Path);
    ASSERT_TRUE(R.has_value()) << Path;
    std::optional<Disagreement> D =
        fuzz::checkScenario(R->S, kBackends, Budget, nullptr, kShallow);
    EXPECT_FALSE(D.has_value())
        << Path << ": " << (D ? D->str() : std::string());
  }
}

/// serialize(parse(text)) is a fixpoint: parsing a repro and
/// re-serializing it reproduces the identical scenario (by digest) and
/// identical bytes on the second round trip.
TEST(DiffCorpusTest, ReproFormatRoundTrips) {
  for (const std::string &Path : corpusFiles()) {
    std::optional<Repro> R = fuzz::loadReproFile(Path);
    ASSERT_TRUE(R.has_value()) << Path;
    std::string Text = fuzz::serializeRepro(*R);
    std::optional<Repro> R2 = fuzz::parseRepro(Text);
    ASSERT_TRUE(R2.has_value()) << Path;
    EXPECT_TRUE(digestOf(R->S) == digestOf(R2->S)) << Path;
    EXPECT_EQ(R2->Title, R->Title) << Path;
    EXPECT_EQ(R2->Seed, R->Seed) << Path;
    EXPECT_EQ(Text, fuzz::serializeRepro(*R2)) << Path;
  }
}

/// Numerals in a repro are plain decimal digits. A sign used to be
/// accepted and wrapped: "seed -1" read as 2^64-1, and a table header
/// for switch -18446744073709551615 silently named switch 1. Both
/// corruptions must now fail, naming the offending line.
TEST(DiffCorpusTest, SignedNumeralsAreRejected) {
  const std::string Path = corpusDir() + "/double-diamond.repro";
  std::ifstream In(Path);
  ASSERT_TRUE(In) << Path;
  std::vector<std::string> Lines;
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  auto FirstLine = [&](const std::string &Prefix) {
    for (size_t I = 0; I != Lines.size(); ++I)
      if (Lines[I].rfind(Prefix, 0) == 0)
        return I;
    ADD_FAILURE() << "no '" << Prefix << "' line in " << Path;
    return size_t(0);
  };
  auto Join = [](const std::vector<std::string> &Ls) {
    std::string Text;
    for (const std::string &L : Ls)
      Text += L + "\n";
    return Text;
  };
  ASSERT_TRUE(fuzz::parseRepro(Join(Lines)).has_value());

  const size_t Seed = FirstLine("seed ");
  const size_t Table = FirstLine("table ");
  struct Corruption {
    size_t Line;
    std::string Text;
  };
  for (const Corruption &C :
       {Corruption{Seed, "seed -1"}, Corruption{Seed, "seed +7"},
        Corruption{Table, "table -18446744073709551615 " +
                              Lines[Table].substr(Lines[Table].rfind(' ') +
                                                  1)}}) {
    std::vector<std::string> Bad = Lines;
    Bad[C.Line] = C.Text;
    std::string Err;
    EXPECT_FALSE(fuzz::parseRepro(Join(Bad), &Err).has_value()) << C.Text;
    EXPECT_EQ(Err.rfind("line " + std::to_string(C.Line + 1) + ": ", 0), 0u)
        << C.Text << " -> " << Err;
  }
}

/// An unsound checker that approves every recheck; the honest bind keeps
/// InitialViolation verdicts truthful, so the lie only shows up in the
/// search — which is exactly where the differential oracle looks.
class LiarChecker : public CheckerBackend {
public:
  void notifyRollback() override {}
  const char *name() const override { return "diff-liar"; }

protected:
  CheckResult bindImpl(KripkeStructure &K, Formula Phi) override {
    ++Queries;
    return Honest.bind(K, Phi);
  }
  CheckResult recheckImpl(const UpdateInfo &) override {
    ++Queries;
    CheckResult R;
    R.Holds = true;
    return R;
  }

private:
  LabelingChecker Honest{LabelingChecker::Mode::Batch};
};

void registerLiar() {
  BackendFactory::instance().registerBackend(
      "diff-liar", [](const Scenario &) -> std::unique_ptr<CheckerBackend> {
        return std::make_unique<LiarChecker>();
      });
}

/// The oracle catches the liar on a corpus instance whose verdict is
/// Impossible (the liar turns exhaustion proofs into fake Successes).
TEST(DiffLiarTest, CaughtOnBlackholedCorpus) {
  registerLiar();
  std::optional<Repro> R =
      fuzz::loadReproFile(corpusDir() + "/fattree-blackhole.repro");
  ASSERT_TRUE(R.has_value());
  std::optional<Disagreement> D = fuzz::checkScenario(
      R->S, {"incremental", "diff-liar"}, BudgetSpec{});
  ASSERT_TRUE(D.has_value());
  EXPECT_NE(D->CellB.find("diff-liar"), std::string::npos) << D->str();
}

/// Minimization keeps the disagreement alive while shrinking the
/// instance; on the 20-switch blackholed fat-tree it must get to a
/// handful of switches.
TEST(DiffLiarTest, MinimizerShrinksWhileStillDisagreeing) {
  registerLiar();
  std::optional<Repro> R =
      fuzz::loadReproFile(corpusDir() + "/fattree-blackhole.repro");
  ASSERT_TRUE(R.has_value());
  fuzz::Oracle StillBad = [](const Scenario &Cand) {
    return fuzz::checkScenario(Cand, {"incremental", "diff-liar"},
                               BudgetSpec{})
        .has_value();
  };
  ASSERT_TRUE(StillBad(R->S));
  Scenario Min = fuzz::minimizeScenario(R->S, StillBad);
  EXPECT_TRUE(StillBad(Min));
  EXPECT_LE(Min.Topo.numSwitches(), 10u);
  EXPECT_LT(Min.Topo.numSwitches(), R->S.Topo.numSwitches());
  EXPECT_EQ(Min.Flows.size(), 1u);
}

/// A short in-process fuzz run over the fast backends stays clean. This
/// drives generation, the whole cell matrix (sharded and stolen cells
/// included), churn streams, one large sequential
/// instance, and the engine — under TSan in CI it doubles as a race
/// hunt over the entire stack.
TEST(DiffFuzzTest, ShortRunIsClean) {
  fuzz::FuzzOptions O;
  O.Seed = 99;
  O.Iters = 10;
  O.ChurnEvery = 5;
  O.Backends = {"incremental", "batch", "hsa", "naive"};
  std::ostringstream Log;
  fuzz::FuzzReport Rep = fuzz::runFuzz(O, Log);
  EXPECT_TRUE(Rep.clean()) << Log.str();
  EXPECT_EQ(Rep.Instances + Rep.ChurnStreams + Rep.LargeInstances, 10u);
  EXPECT_GT(Rep.CellRuns, 100u);
  EXPECT_EQ(Rep.ChurnStreams, 2u);
  EXPECT_EQ(Rep.LargeInstances, 1u); // Iteration 8: (8 + 16/2) % 16 == 0.
}

/// Instance generation is a pure function of the seed: same seed, same
/// scenario digest; different seeds diverge somewhere in the first few
/// draws.
TEST(DiffFuzzTest, GenerationIsSeedDeterministic) {
  Rng A(1234), B(1234);
  Scenario SA = fuzz::generateInstance(A);
  Scenario SB = fuzz::generateInstance(B);
  EXPECT_TRUE(digestOf(SA) == digestOf(SB));

  bool Differs = false;
  Rng C(1234), D(4321);
  for (int I = 0; I != 4 && !Differs; ++I)
    Differs = !(digestOf(fuzz::generateInstance(C)) ==
                digestOf(fuzz::generateInstance(D)));
  EXPECT_TRUE(Differs);
}

} // namespace
} // namespace netupd
