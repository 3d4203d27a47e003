//===- bench/BenchUtil.h - Shared benchmark harness helpers ----*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the figure-reproduction binaries: a scale knob
/// (NETUPD_BENCH_SCALE environment variable or --scale=N / --scale N
/// argument, default 1, parsed strictly) that grows/shrinks problem
/// sizes, simple aligned table printing, and geometric-mean aggregation
/// for the speedup summaries the paper reports.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_BENCH_BENCHUTIL_H
#define NETUPD_BENCH_BENCHUTIL_H

#include "support/Strings.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace netupd {
namespace benchutil {

/// Parses a scale factor: a plain positive decimal ("0.25", "2", ".5"),
/// nothing before or after it. False on anything else.
inline bool parseScaleValue(const std::string &Text, double &Out) {
  if (Text.empty() ||
      !(std::isdigit(static_cast<unsigned char>(Text[0])) || Text[0] == '.'))
    return false;
  char *End = nullptr;
  errno = 0;
  double V = std::strtod(Text.c_str(), &End);
  if (End != Text.c_str() + Text.size() || errno != 0 || !std::isfinite(V) ||
      V <= 0)
    return false;
  Out = V;
  return true;
}

/// Parses the scale factor (1 = default sizes) from NETUPD_BENCH_SCALE,
/// then from the command line, which wins: --scale=N or --scale N. A
/// malformed or non-positive value, or any other argument, is a usage
/// error: the program exits 2.
inline double parseScale(int Argc, char **Argv) {
  double Scale = 1.0;
  auto Fail = [&](const std::string &What) {
    std::fprintf(stderr,
                 "%s: bad %s\nusage: %s [--scale=N | --scale N] (N > 0; "
                 "NETUPD_BENCH_SCALE=N also works)\n",
                 Argv[0], What.c_str(), Argv[0]);
    std::exit(2);
  };
  if (const char *Env = std::getenv("NETUPD_BENCH_SCALE"))
    if (!parseScaleValue(Env, Scale))
      Fail("NETUPD_BENCH_SCALE value '" + std::string(Env) + "'");
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    std::string Value;
    if (Arg.rfind("--scale=", 0) == 0)
      Value = Arg.substr(8);
    else if (Arg == "--scale" && I + 1 < Argc)
      Value = Argv[++I];
    else
      Fail("argument '" + Arg + "'");
    if (!parseScaleValue(Value, Scale))
      Fail("scale '" + Value + "'");
  }
  return Scale;
}

/// Prints a header banner naming the reproduced figure.
inline void banner(const std::string &Title) {
  std::printf("==== %s ====\n", Title.c_str());
}

/// Prints one row of space-aligned cells.
inline void row(const std::vector<std::string> &Cells,
                const std::vector<int> &Widths) {
  std::string Line;
  for (size_t I = 0; I != Cells.size(); ++I) {
    int W = I < Widths.size() ? Widths[I] : 12;
    Line += format("%-*s", W, Cells[I].c_str());
  }
  std::printf("%s\n", Line.c_str());
}

/// Geometric mean of positive values; 0 for an empty list.
inline double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

} // namespace benchutil
} // namespace netupd

#endif // NETUPD_BENCH_BENCHUTIL_H
