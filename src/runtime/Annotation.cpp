//===- runtime/Annotation.cpp ---------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Annotation.h"

#include "support/Error.h"

#include <cctype>

using namespace alter;

const char *alter::reduceOpName(ReduceOp Op) {
  switch (Op) {
  case ReduceOp::Plus:
    return "+";
  case ReduceOp::Mul:
    return "*";
  case ReduceOp::Max:
    return "max";
  case ReduceOp::Min:
    return "min";
  case ReduceOp::And:
    return "&";
  case ReduceOp::Or:
    return "|";
  }
  ALTER_UNREACHABLE("covered switch");
}

std::optional<ReduceOp> alter::parseReduceOp(const std::string &Text) {
  if (Text == "+")
    return ReduceOp::Plus;
  if (Text == "*" || Text == "x" || Text == "×")
    return ReduceOp::Mul;
  if (Text == "max")
    return ReduceOp::Max;
  if (Text == "min")
    return ReduceOp::Min;
  if (Text == "&" || Text == "and")
    return ReduceOp::And;
  if (Text == "|" || Text == "or")
    return ReduceOp::Or;
  return std::nullopt;
}

const char *alter::parallelPolicyName(ParallelPolicy Policy) {
  switch (Policy) {
  case ParallelPolicy::OutOfOrder:
    return "OutOfOrder";
  case ParallelPolicy::StaleReads:
    return "StaleReads";
  }
  ALTER_UNREACHABLE("covered switch");
}

std::string Annotation::str() const {
  std::string Out = "[";
  Out += parallelPolicyName(Policy);
  for (size_t I = 0; I != Reductions.size(); ++I) {
    Out += I == 0 ? " + " : "; ";
    Out += "Reduction(";
    Out += Reductions[I].Var;
    Out += ", ";
    Out += reduceOpName(Reductions[I].Op);
    Out += ")";
  }
  Out += "]";
  return Out;
}

namespace {

/// Minimal recursive-descent parser for the bracketed annotation syntax.
class AnnotationParser {
public:
  explicit AnnotationParser(const std::string &Text) : Text(Text) {}

  std::optional<Annotation> parse(std::string *ErrorMessage) {
    std::optional<Annotation> Result = parseTop();
    if (!Result && ErrorMessage)
      *ErrorMessage = Error;
    return Result;
  }

private:
  std::optional<Annotation> parseTop() {
    skipSpace();
    if (!consume('['))
      return fail("expected '['");
    Annotation A;
    const std::string Policy = parseWord();
    if (Policy == "OutOfOrder")
      A.Policy = ParallelPolicy::OutOfOrder;
    else if (Policy == "StaleReads")
      A.Policy = ParallelPolicy::StaleReads;
    else
      return fail("unknown policy '" + Policy + "'");
    skipSpace();
    if (consume('+')) {
      do {
        skipSpace();
        std::optional<ReductionClause> Clause = parseReduction();
        if (!Clause)
          return std::nullopt;
        A.Reductions.push_back(*Clause);
        skipSpace();
      } while (consume(';'));
    }
    skipSpace();
    if (!consume(']'))
      return fail("expected ']'");
    skipSpace();
    if (Pos != Text.size())
      return fail("trailing characters after ']'");
    return A;
  }

  std::optional<ReductionClause> parseReduction() {
    const std::string Keyword = parseWord();
    if (Keyword != "Reduction") {
      fail("expected 'Reduction', got '" + Keyword + "'");
      return std::nullopt;
    }
    skipSpace();
    if (!consume('(')) {
      fail("expected '(' after 'Reduction'");
      return std::nullopt;
    }
    skipSpace();
    const std::string Var = parseWord();
    if (Var.empty()) {
      fail("expected a variable name");
      return std::nullopt;
    }
    skipSpace();
    if (!consume(',')) {
      fail("expected ',' after variable name");
      return std::nullopt;
    }
    skipSpace();
    std::string OpText;
    while (Pos != Text.size() && Text[Pos] != ')' &&
           !std::isspace(static_cast<unsigned char>(Text[Pos])))
      OpText += Text[Pos++];
    const std::optional<ReduceOp> Op = parseReduceOp(OpText);
    if (!Op) {
      fail("unknown reduction operator '" + OpText + "'");
      return std::nullopt;
    }
    skipSpace();
    if (!consume(')')) {
      fail("expected ')'");
      return std::nullopt;
    }
    return ReductionClause{Var, *Op};
  }

  std::string parseWord() {
    skipSpace();
    std::string Word;
    while (Pos != Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_'))
      Word += Text[Pos++];
    return Word;
  }

  void skipSpace() {
    while (Pos != Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos != Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  std::optional<Annotation> fail(const std::string &Message) {
    if (Error.empty())
      Error = Message;
    return std::nullopt;
  }

  const std::string &Text;
  size_t Pos = 0;
  std::string Error;
};

} // namespace

std::optional<Annotation>
alter::parseAnnotation(const std::string &Text, std::string *ErrorMessage) {
  return AnnotationParser(Text).parse(ErrorMessage);
}
