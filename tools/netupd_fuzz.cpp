//===- tools/netupd_fuzz.cpp - Differential fuzzer CLI ---------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// Drives fuzz::runFuzz from the command line:
//
//   netupd_fuzz --seed 1 --iters 200 --out fuzz-out
//
// Exit status is 0 when every iteration agreed, 1 when a disagreement was
// found (minimized repros land in --out), 2 on usage errors.
//
// --self-test validates the harness end to end: it registers a "liar"
// backend whose recheck always claims the property holds, fuzzes the
// registry cross-checked against it, and requires that the lie is caught,
// that the minimizer shrinks the offending instance to at most 10
// switches, and that the written repro file parses back to the identical
// scenario. A fuzzer that cannot catch a deliberately broken checker is
// not testing anything; this mode is wired into CI.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"
#include "fuzz/Minimize.h"
#include "mc/BackendFactory.h"
#include "mc/LabelingChecker.h"
#include "support/Strings.h"

#include <filesystem>
#include <iostream>
#include <sstream>

using namespace netupd;

namespace {

/// A deliberately unsound checker: the initial bind is honest (so
/// InitialViolation verdicts stay truthful), but every recheck claims the
/// property holds. The synthesizer then accepts the first candidate order
/// it tries — wrong sequences, and Success on infeasible instances.
class LiarChecker : public CheckerBackend {
public:
  void notifyRollback() override {}
  const char *name() const override { return "liar"; }

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

int usage(const char *Argv0) {
  std::cerr
      << "usage: " << Argv0 << " [options]\n"
      << "  --seed N         master seed (default 1)\n"
      << "  --iters N        iterations (default 100)\n"
      << "  --out DIR        directory for minimized repro files\n"
      << "  --churn-every N  engine churn check every N iters (default 8,\n"
      << "                   0 disables)\n"
      << "  --backends A,B   comma-separated backends (default: registry)\n"
      << "  --verbose        log every iteration\n"
      << "  --self-test      verify the harness catches a lying backend\n";
  return 2;
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::stringstream SS(S);
  std::string Item;
  while (std::getline(SS, Item, ','))
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

/// The injected-bug end-to-end check; see the file comment.
int selfTest(uint64_t Seed, std::string OutDir) {
  BackendFactory::instance().registerBackend(
      "liar", [](const Scenario &) -> std::unique_ptr<CheckerBackend> {
        return std::make_unique<LiarChecker>();
      });

  if (OutDir.empty())
    OutDir = (std::filesystem::temp_directory_path() / "netupd-selftest")
                 .string();

  fuzz::FuzzOptions O;
  O.Seed = Seed;
  O.Iters = 40;
  O.ChurnEvery = 0; // Churn streams don't exercise the liar.
  O.Backends = {"incremental", "liar"};
  O.OutDir = OutDir;
  fuzz::FuzzReport R = fuzz::runFuzz(O, std::cout);

  if (R.Repros.empty()) {
    std::cerr << "self-test FAILED: the lying backend was never caught\n";
    return 1;
  }
  unsigned BestSwitches = ~0u;
  for (const fuzz::Repro &Rp : R.Repros)
    BestSwitches = std::min(
        BestSwitches, static_cast<unsigned>(Rp.S.Topo.numSwitches()));
  if (BestSwitches > 10) {
    std::cerr << "self-test FAILED: smallest minimized repro has "
              << BestSwitches << " switches (want <= 10)\n";
    return 1;
  }
  if (R.ReproPaths.empty()) {
    std::cerr << "self-test FAILED: no repro file was written\n";
    return 1;
  }
  std::optional<fuzz::Repro> Back = fuzz::loadReproFile(R.ReproPaths[0]);
  if (!Back) {
    std::cerr << "self-test FAILED: written repro did not parse back\n";
    return 1;
  }
  if (!(digestOf(Back->S) == digestOf(R.Repros[0].S))) {
    std::cerr << "self-test FAILED: repro round-trip changed the scenario\n";
    return 1;
  }
  std::cout << "self-test ok: " << R.Repros.size()
            << " disagreement(s) caught, smallest repro " << BestSwitches
            << " switches, round-trip exact\n";
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  fuzz::FuzzOptions O;
  bool SelfTest = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (A == "--seed") {
      const char *V = Next();
      if (!V || !parseU64(V, O.Seed))
        return usage(argv[0]);
    } else if (A == "--iters") {
      const char *V = Next();
      if (!V || !parseU32(V, O.Iters))
        return usage(argv[0]);
    } else if (A == "--out") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      O.OutDir = V;
    } else if (A == "--churn-every") {
      const char *V = Next();
      if (!V || !parseU32(V, O.ChurnEvery))
        return usage(argv[0]);
    } else if (A == "--backends") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      O.Backends = splitList(V);
    } else if (A == "--verbose") {
      O.Verbose = true;
    } else if (A == "--self-test") {
      SelfTest = true;
    } else {
      return usage(argv[0]);
    }
  }

  if (SelfTest)
    return selfTest(O.Seed, O.OutDir);

  fuzz::FuzzReport R = fuzz::runFuzz(O, std::cout);
  return R.clean() ? 0 : 1;
}
