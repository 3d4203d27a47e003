//===- ltl/Parser.h - Concrete LTL syntax ----------------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A parser for the concrete LTL syntax used by examples and tests:
///
///   phi ::= phi1 '->' phi            (right associative, lowest)
///         | phi1 '|' phi1
///         | phi2 '&' phi2
///         | phi3 'U' phi3 | phi3 'R' phi3   (right associative)
///         | '!' phi4 | 'X' phi4 | 'F' phi4 | 'G' phi4
///         | 'true' | 'false' | atom | '(' phi ')'
///   atom ::= ('sw' | 'port' | 'src' | 'dst' | 'typ') ('=' | '!=') number
///
/// Negation is pushed to atoms during parsing, so the result is in NNF.
/// Nesting is bounded: each '!', 'X', 'F', 'G', '(' and each link of a
/// right-associative '->', 'U' or 'R' chain is one level, and input
/// deeper than MaxLtlNesting levels is rejected with an error.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_LTL_PARSER_H
#define NETUPD_LTL_PARSER_H

#include "ltl/Formula.h"

#include <optional>
#include <string>

namespace netupd {

/// The deepest nesting parseLtl accepts (see the file comment); it keeps
/// the recursive descent far inside a default thread stack.
constexpr unsigned MaxLtlNesting = 2000;

/// Result of parsing: the formula on success, or a diagnostic message.
struct ParseResult {
  Formula F = nullptr;
  std::string Error;

  bool ok() const { return F != nullptr; }
};

/// Parses \p Text into an NNF formula built in \p Factory.
ParseResult parseLtl(FormulaFactory &Factory, const std::string &Text);

} // namespace netupd

#endif // NETUPD_LTL_PARSER_H
