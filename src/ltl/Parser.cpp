//===- ltl/Parser.cpp - Concrete LTL syntax --------------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "ltl/Parser.h"

#include "support/Strings.h"

#include <cctype>
#include <string>

using namespace netupd;

namespace {

enum class TokKind {
  End,
  Ident,  // true, false, X, F, G, U, R, sw, port, src, dst, typ
  Number,
  LParen,
  RParen,
  Bang,
  Amp,
  Pipe,
  Arrow,
  Eq,
  Neq,
  Error
};

struct Token {
  TokKind K = TokKind::End;
  std::string Text;
};

/// A recursive-descent parser over a simple hand-rolled lexer. Errors are
/// reported with a message; the grammar is small enough that positions are
/// easy to reconstruct from the message text.
class Parser {
public:
  Parser(FormulaFactory &Factory, const std::string &Text)
      : Factory(Factory), Text(Text) {
    advance();
  }

  ParseResult run() {
    Formula F = parseImplies();
    if (!F)
      return {nullptr, Err};
    if (Cur.K != TokKind::End)
      return {nullptr, "trailing input after formula: '" + Cur.Text + "'"};
    return {F, ""};
  }

private:
  void advance() {
    while (Pos < Text.size() &&
           isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    Cur = Token();
    if (Pos >= Text.size()) {
      Cur.K = TokKind::End;
      return;
    }
    char C = Text[Pos];
    if (isalpha(static_cast<unsigned char>(C))) {
      size_t Begin = Pos;
      while (Pos < Text.size() &&
             isalnum(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
      Cur.K = TokKind::Ident;
      Cur.Text = Text.substr(Begin, Pos - Begin);
      return;
    }
    if (isdigit(static_cast<unsigned char>(C))) {
      size_t Begin = Pos;
      while (Pos < Text.size() &&
             isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
      Cur.K = TokKind::Number;
      Cur.Text = Text.substr(Begin, Pos - Begin);
      return;
    }
    switch (C) {
    case '(':
      Cur.K = TokKind::LParen;
      break;
    case ')':
      Cur.K = TokKind::RParen;
      break;
    case '&':
      Cur.K = TokKind::Amp;
      break;
    case '|':
      Cur.K = TokKind::Pipe;
      break;
    case '=':
      Cur.K = TokKind::Eq;
      break;
    case '!':
      if (Pos + 1 < Text.size() && Text[Pos + 1] == '=') {
        Cur.K = TokKind::Neq;
        ++Pos;
      } else {
        Cur.K = TokKind::Bang;
      }
      break;
    case '-':
      if (Pos + 1 < Text.size() && Text[Pos + 1] == '>') {
        Cur.K = TokKind::Arrow;
        ++Pos;
      } else {
        Cur.K = TokKind::Error;
      }
      break;
    default:
      Cur.K = TokKind::Error;
      break;
    }
    Cur.Text = std::string(1, C);
    ++Pos;
  }

  Formula fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
    return nullptr;
  }

  /// Runs \p Rule one nesting level deeper. Every recursive step of the
  /// grammar goes through here, so input nested past MaxLtlNesting fails
  /// with an error instead of overflowing the native stack.
  Formula nested(Formula (Parser::*Rule)()) {
    if (Depth == MaxLtlNesting)
      return fail("formula nested deeper than " +
                  std::to_string(MaxLtlNesting) + " levels");
    ++Depth;
    Formula F = (this->*Rule)();
    --Depth;
    return F;
  }

  Formula parseImplies() {
    Formula L = parseOr();
    if (!L)
      return nullptr;
    if (Cur.K != TokKind::Arrow)
      return L;
    advance();
    Formula R = nested(&Parser::parseImplies); // Right associative.
    if (!R)
      return nullptr;
    return Factory.implies(L, R);
  }

  Formula parseOr() {
    Formula L = parseAnd();
    if (!L)
      return nullptr;
    while (Cur.K == TokKind::Pipe) {
      advance();
      Formula R = parseAnd();
      if (!R)
        return nullptr;
      L = Factory.disj(L, R);
    }
    return L;
  }

  Formula parseAnd() {
    Formula L = parseTemporal();
    if (!L)
      return nullptr;
    while (Cur.K == TokKind::Amp) {
      advance();
      Formula R = parseTemporal();
      if (!R)
        return nullptr;
      L = Factory.conj(L, R);
    }
    return L;
  }

  Formula parseTemporal() {
    Formula L = parseUnary();
    if (!L)
      return nullptr;
    if (Cur.K == TokKind::Ident && (Cur.Text == "U" || Cur.Text == "R")) {
      bool IsUntil = Cur.Text == "U";
      advance();
      Formula R = nested(&Parser::parseTemporal); // Right associative.
      if (!R)
        return nullptr;
      return IsUntil ? Factory.until(L, R) : Factory.release(L, R);
    }
    return L;
  }

  Formula parseUnary() {
    if (Cur.K == TokKind::Bang) {
      advance();
      Formula Inner = nested(&Parser::parseUnary);
      if (!Inner)
        return nullptr;
      return Factory.negate(Inner);
    }
    if (Cur.K == TokKind::Ident &&
        (Cur.Text == "X" || Cur.Text == "F" || Cur.Text == "G")) {
      std::string Op = Cur.Text;
      advance();
      Formula Inner = nested(&Parser::parseUnary);
      if (!Inner)
        return nullptr;
      if (Op == "X")
        return Factory.next(Inner);
      if (Op == "F")
        return Factory.finally_(Inner);
      return Factory.globally(Inner);
    }
    return parsePrimary();
  }

  Formula parsePrimary() {
    if (Cur.K == TokKind::LParen) {
      advance();
      Formula Inner = nested(&Parser::parseImplies);
      if (!Inner)
        return nullptr;
      if (Cur.K != TokKind::RParen)
        return fail("expected ')'");
      advance();
      return Inner;
    }
    if (Cur.K != TokKind::Ident)
      return fail("expected formula, got '" + Cur.Text + "'");

    if (Cur.Text == "true") {
      advance();
      return Factory.top();
    }
    if (Cur.Text == "false") {
      advance();
      return Factory.bottom();
    }
    return parseAtom();
  }

  Formula parseAtom() {
    std::string Name = Cur.Text;
    advance();
    bool Negated;
    if (Cur.K == TokKind::Eq)
      Negated = false;
    else if (Cur.K == TokKind::Neq)
      Negated = true;
    else
      return fail("expected '=' or '!=' after '" + Name + "'");
    advance();
    if (Cur.K != TokKind::Number)
      return fail("expected a number in atom '" + Name + "'");
    uint32_t Value = 0;
    if (!parseU32(Cur.Text, Value))
      return fail("number " + Cur.Text + " in atom '" + Name +
                  "' does not fit in 32 bits");
    advance();

    Prop P;
    if (Name == "sw")
      P = Prop::onSwitch(Value);
    else if (Name == "port")
      P = Prop::onPort(Value);
    else if (std::optional<Field> F = fieldFromName(Name))
      P = Prop::onField(*F, Value);
    else
      return fail("unknown atom '" + Name + "'");
    return Negated ? Factory.notAtom(P) : Factory.atom(P);
  }

  FormulaFactory &Factory;
  const std::string &Text;
  size_t Pos = 0;
  Token Cur;
  std::string Err;
  unsigned Depth = 0; // Active nested() levels.
};

} // namespace

ParseResult netupd::parseLtl(FormulaFactory &Factory,
                             const std::string &Text) {
  return Parser(Factory, Text).run();
}
