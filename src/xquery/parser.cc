#include "xquery/parser.h"

#include <cctype>
#include <cstdlib>
#include <string>

#include "xquery/lexer.h"

namespace legodb::xq {
namespace {

// Case-insensitive comparison with an upper-case keyword.
bool EqualsKeyword(std::string_view text, std::string_view kw) {
  if (text.size() != kw.size()) return false;
  for (size_t i = 0; i < text.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(text[i])) != kw[i]) {
      return false;
    }
  }
  return true;
}

class Parser {
 public:
  explicit Parser(std::string_view input) : lex_(input) {}

  StatusOr<Query> Parse() {
    auto q = ParseFlwr();
    if (!q.ok()) return q.status();
    if (lex_.current().kind != Token::Kind::kEnd) {
      return Error("trailing input after query");
    }
    return q;
  }

 private:
  bool IsKeyword(std::string_view kw) const {
    return lex_.current().kind == Token::Kind::kIdent &&
           EqualsKeyword(lex_.current().text, kw);
  }
  bool ConsumeKeyword(std::string_view kw) {
    if (!IsKeyword(kw)) return false;
    lex_.Advance();
    return true;
  }
  bool IsPunct(std::string_view p) const {
    return lex_.current().kind == Token::Kind::kPunct &&
           lex_.current().text == p;
  }
  bool ConsumePunct(std::string_view p) {
    if (!IsPunct(p)) return false;
    lex_.Advance();
    return true;
  }
  Status Error(const std::string& msg) const {
    return Status::ParseError("query line " +
                              std::to_string(lex_.current().line) + ": " +
                              msg);
  }

  StatusOr<Query> ParseFlwr() {
    Query q;
    if (!IsKeyword("FOR")) return Error("expected FOR");
    while (ConsumeKeyword("FOR")) {
      do {
        auto binding = ParseBinding();
        if (!binding.ok()) return binding.status();
        q.fors.push_back(std::move(binding).value());
      } while (ConsumePunct(","));
    }
    if (ConsumeKeyword("WHERE")) {
      do {
        auto pred = ParsePredicate();
        if (!pred.ok()) return pred.status();
        q.where.push_back(std::move(pred).value());
      } while (ConsumeKeyword("AND"));
    }
    if (!ConsumeKeyword("RETURN")) return Error("expected RETURN");
    auto items = ParseReturnItems();
    if (!items.ok()) return items.status();
    q.ret = std::move(items).value();
    if (q.ret.empty()) return Error("empty RETURN clause");
    return q;
  }

  StatusOr<ForBinding> ParseBinding() {
    ForBinding b;
    if (lex_.current().kind != Token::Kind::kVar) {
      return Error("expected variable after FOR");
    }
    b.var = lex_.current().text;
    lex_.Advance();
    // Paper queries write both `$v IN expr` and `$v/played $p` style; we
    // also accept `$outer/path $inner` as `FOR $inner IN $outer/path`.
    if (ConsumeKeyword("IN")) {
      if (ConsumeKeyword("DOCUMENT") || IsKeyword("document")) {
        b.from_document = true;
        if (!ConsumePunct("(")) return Error("expected '(' after document");
        if (lex_.current().kind != Token::Kind::kString) {
          return Error("expected document name string");
        }
        lex_.Advance();
        if (!ConsumePunct(")")) return Error("expected ')'");
      } else if (lex_.current().kind == Token::Kind::kVar) {
        b.source_var = lex_.current().text;
        lex_.Advance();
      } else {
        return Error("expected document(...) or variable in FOR source");
      }
      auto steps = ParseSteps();
      if (!steps.ok()) return steps.status();
      b.steps = std::move(steps).value();
      return b;
    }
    // `FOR $v/episode $e` form: source path hangs off the first variable.
    auto steps = ParseSteps();
    if (!steps.ok()) return steps.status();
    if (lex_.current().kind != Token::Kind::kVar) {
      return Error("expected IN or a bound variable in FOR clause");
    }
    ForBinding inner;
    inner.var = lex_.current().text;
    lex_.Advance();
    inner.source_var = b.var;
    inner.steps = std::move(steps).value();
    return inner;
  }

  StatusOr<std::vector<std::string>> ParseSteps() {
    std::vector<std::string> steps;
    while (ConsumePunct("/")) {
      if (ConsumePunct("@")) {
        if (lex_.current().kind != Token::Kind::kIdent) {
          return Error("expected attribute name after '@'");
        }
        steps.push_back("@" + std::string(lex_.current().text));
        lex_.Advance();
        continue;
      }
      if (lex_.current().kind != Token::Kind::kIdent) {
        return Error("expected step name after '/'");
      }
      steps.emplace_back(lex_.current().text);
      lex_.Advance();
    }
    return steps;
  }

  StatusOr<PathExpr> ParsePathExpr() {
    if (lex_.current().kind != Token::Kind::kVar) {
      return Error("expected variable in path expression");
    }
    PathExpr p;
    p.var = lex_.current().text;
    lex_.Advance();
    auto steps = ParseSteps();
    if (!steps.ok()) return steps.status();
    p.steps = std::move(steps).value();
    return p;
  }

  StatusOr<CompareOp> ParseCompareOp() {
    if (ConsumePunct("=")) return CompareOp::kEq;
    if (ConsumePunct("!")) {
      if (!ConsumePunct("=")) return Error("expected '!='");
      return CompareOp::kNe;
    }
    if (ConsumePunct("<")) {
      return ConsumePunct("=") ? CompareOp::kLe : CompareOp::kLt;
    }
    if (ConsumePunct(">")) {
      return ConsumePunct("=") ? CompareOp::kGe : CompareOp::kGt;
    }
    return Error("expected comparison operator in predicate");
  }

  StatusOr<Predicate> ParsePredicate() {
    Predicate pred;
    auto lhs = ParsePathExpr();
    if (!lhs.ok()) return lhs.status();
    pred.lhs = std::move(lhs).value();
    auto op = ParseCompareOp();
    if (!op.ok()) return op.status();
    pred.op = op.value();
    const Token& t = lex_.current();
    switch (t.kind) {
      case Token::Kind::kVar: {
        auto rhs = ParsePathExpr();
        if (!rhs.ok()) return rhs.status();
        pred.rhs_is_path = true;
        pred.rhs_path = std::move(rhs).value();
        return pred;
      }
      case Token::Kind::kNumber:
        pred.rhs_const = Constant::Int(
            std::strtoll(std::string(t.text).c_str(), nullptr, 10));
        lex_.Advance();
        return pred;
      case Token::Kind::kString:
        pred.rhs_const = Constant::Str(std::string(t.text));
        lex_.Advance();
        return pred;
      case Token::Kind::kIdent:
        pred.rhs_const = Constant::Symbol(std::string(t.text));
        lex_.Advance();
        return pred;
      default:
        return Error("expected constant or path after '='");
    }
  }

  bool AtItemStart() const {
    return lex_.current().kind == Token::Kind::kVar || IsKeyword("FOR") ||
           (IsPunct("<"));
  }

  StatusOr<std::vector<ReturnItem>> ParseReturnItems() {
    std::vector<ReturnItem> items;
    while (true) {
      if (!AtItemStart()) break;
      auto item = ParseReturnItem();
      if (!item.ok()) return item.status();
      items.push_back(std::move(item).value());
      ConsumePunct(",");  // optional separator
    }
    return items;
  }

  StatusOr<ReturnItem> ParseReturnItem() {
    ReturnItem item;
    if (lex_.current().kind == Token::Kind::kVar) {
      auto path = ParsePathExpr();
      if (!path.ok()) return path.status();
      item.kind = ReturnItem::Kind::kPath;
      item.path = std::move(path).value();
      return item;
    }
    if (IsKeyword("FOR")) {
      auto sub = ParseFlwr();
      if (!sub.ok()) return sub.status();
      item.kind = ReturnItem::Kind::kSubquery;
      item.subquery = std::make_shared<Query>(std::move(sub).value());
      return item;
    }
    if (ConsumePunct("<")) {
      if (lex_.current().kind != Token::Kind::kIdent) {
        return Error("expected element name after '<'");
      }
      item.kind = ReturnItem::Kind::kElement;
      item.element_name = lex_.current().text;
      lex_.Advance();
      if (!ConsumePunct(">")) return Error("expected '>'");
      auto children = ParseReturnItems();
      if (!children.ok()) return children.status();
      item.children = std::move(children).value();
      if (!ConsumePunct("</")) return Error("expected '</'");
      if (lex_.current().kind != Token::Kind::kIdent ||
          lex_.current().text != item.element_name) {
        return Error("mismatched constructor close tag");
      }
      lex_.Advance();
      if (!ConsumePunct(">")) return Error("expected '>'");
      return item;
    }
    return Error("expected return item");
  }

  Lexer lex_;
};

}  // namespace

StatusOr<Query> ParseQuery(std::string_view input) {
  return Parser(input).Parse();
}

}  // namespace legodb::xq
