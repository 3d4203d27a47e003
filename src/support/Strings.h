//===- support/Strings.h - String helpers ----------------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers: building strings for the pretty printers (the
/// LTL printer, the command-sequence printer, the benchmark table
/// writers), and the one strict decimal parser every number read from
/// text goes through (LTL atoms, repro files, tool options).
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SUPPORT_STRINGS_H
#define NETUPD_SUPPORT_STRINGS_H

#include <cstdint>
#include <string>
#include <vector>

namespace netupd {

/// Joins the elements of \p Parts with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Splits \p Text at every occurrence of \p Sep; keeps empty pieces.
std::vector<std::string> split(const std::string &Text, char Sep);

/// Strips ASCII whitespace from both ends.
std::string trim(const std::string &Text);

/// Parses \p Text as an unsigned decimal into \p Out. Decimal digits
/// only: no sign, no whitespace, no trailing text, and a value that does
/// not fit fails instead of wrapping.
bool parseU64(const std::string &Text, uint64_t &Out);
bool parseU32(const std::string &Text, uint32_t &Out);

/// printf-style formatting into a std::string.
std::string format(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace netupd

#endif // NETUPD_SUPPORT_STRINGS_H
