#include "xschema/schema_parser.h"

#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

namespace legodb::xs {
namespace {

struct Token {
  enum class Kind {
    kIdent,
    kNumber,
    kPunct,  // single characters: @ [ ] ( ) , | * + ? { } < > # = ! ~ -
    kEnd,
  };
  Kind kind = Kind::kEnd;
  std::string text;
  int line = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) { Advance(); }

  const Token& current() const { return current_; }

  void Advance() {
    SkipSpaceAndComments();
    current_.line = line_;
    if (pos_ >= input_.size()) {
      current_.kind = Token::Kind::kEnd;
      current_.text.clear();
      return;
    }
    char c = input_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_')) {
        ++pos_;
      }
      current_.kind = Token::Kind::kIdent;
      current_.text = std::string(input_.substr(start, pos_ - start));
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      while (pos_ < input_.size() &&
             std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      }
      current_.kind = Token::Kind::kNumber;
      current_.text = std::string(input_.substr(start, pos_ - start));
      return;
    }
    current_.kind = Token::Kind::kPunct;
    current_.text = std::string(1, c);
    ++pos_;
  }

 private:
  void SkipSpaceAndComments() {
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < input_.size() &&
                 input_[pos_ + 1] == '/') {
        while (pos_ < input_.size() && input_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
  int line_ = 1;
  Token current_;
};

class Parser {
 public:
  explicit Parser(std::string_view input) : lex_(input) {}

  StatusOr<Schema> ParseSchemaDecls() {
    Schema schema;
    while (!AtEnd()) {
      if (!IsIdent("type")) return Error("expected 'type' declaration");
      lex_.Advance();
      if (lex_.current().kind != Token::Kind::kIdent) {
        return Error("expected type name");
      }
      std::string name = lex_.current().text;
      lex_.Advance();
      if (!ConsumePunct("=")) return Error("expected '=' after type name");
      LEGODB_ASSIGN_OR_RETURN(TypePtr type, ParseTypeExpr());
      if (schema.Has(name)) {
        return Error("duplicate definition of type '" + name + "'");
      }
      schema.Define(name, std::move(type));
    }
    if (schema.size() == 0) return Error("empty schema");
    return schema;
  }

  StatusOr<TypePtr> ParseSingleType() {
    LEGODB_ASSIGN_OR_RETURN(TypePtr type, ParseTypeExpr());
    if (!AtEnd()) return Error("trailing input after type expression");
    return type;
  }

 private:
  bool AtEnd() const { return lex_.current().kind == Token::Kind::kEnd; }
  bool IsIdent(std::string_view text) const {
    return lex_.current().kind == Token::Kind::kIdent &&
           lex_.current().text == text;
  }
  bool IsPunct(std::string_view text) const {
    return lex_.current().kind == Token::Kind::kPunct &&
           lex_.current().text == text;
  }
  bool ConsumePunct(std::string_view text) {
    if (!IsPunct(text)) return false;
    lex_.Advance();
    return true;
  }
  Status Error(const std::string& msg) const {
    return Status::ParseError("schema line " +
                              std::to_string(lex_.current().line) + ": " +
                              msg);
  }

  // type := seq ('|' seq)*
  StatusOr<TypePtr> ParseTypeExpr() {
    std::vector<TypePtr> alts;
    do {
      LEGODB_ASSIGN_OR_RETURN(alts.emplace_back(), ParseSeq());
    } while (ConsumePunct("|"));
    return Type::Union(std::move(alts));
  }

  // seq := item (',' item)*
  StatusOr<TypePtr> ParseSeq() {
    std::vector<TypePtr> items;
    do {
      LEGODB_ASSIGN_OR_RETURN(items.emplace_back(), ParseItem());
    } while (ConsumePunct(","));
    return Type::Sequence(std::move(items));
  }

  // item := primary occurs*
  StatusOr<TypePtr> ParseItem() {
    LEGODB_ASSIGN_OR_RETURN(TypePtr t, ParsePrimary());
    while (IsPunct("*") || IsPunct("+") || IsPunct("?") || IsPunct("{")) {
      LEGODB_ASSIGN_OR_RETURN(t, ParseOccurs(std::move(t)));
    }
    return t;
  }

  StatusOr<TypePtr> ParseOccurs(TypePtr inner) {
    uint32_t min = 0, max = kUnbounded;  // '*'
    if (ConsumePunct("+")) {
      min = 1;
    } else if (ConsumePunct("?")) {
      max = 1;
    } else if (ConsumePunct("{")) {
      LEGODB_ASSIGN_OR_RETURN(int64_t lo, ParseNumber());
      min = static_cast<uint32_t>(lo);
      if (!ConsumePunct(",")) return Error("expected ',' in {m,n}");
      if (ConsumePunct("*")) {
        max = kUnbounded;
      } else {
        LEGODB_ASSIGN_OR_RETURN(int64_t hi, ParseNumber());
        max = static_cast<uint32_t>(hi);
        if (max < min) return Error("repetition bounds out of order");
      }
      if (!ConsumePunct("}")) return Error("expected '}'");
    } else if (!ConsumePunct("*")) {
      return Error("expected occurrence indicator");
    }
    double avg_count = 0;
    if (IsPunct("<")) {
      LEGODB_ASSIGN_OR_RETURN(std::vector<int64_t> stats, ParseStatNumbers());
      if (stats.size() != 1) {
        return Error("occurrence statistics take a single <#count>");
      }
      avg_count = static_cast<double>(stats[0]);
    }
    return Type::Repetition(std::move(inner), min, max, avg_count);
  }

  StatusOr<int64_t> ParseNumber() {
    bool negative = ConsumePunct("-");
    if (lex_.current().kind != Token::Kind::kNumber) {
      return Error("expected number");
    }
    int64_t value = std::strtoll(lex_.current().text.c_str(), nullptr, 10);
    lex_.Advance();
    return negative ? -value : value;
  }

  // stats := '<' '#'NUM (',' '#'NUM)* '>'
  StatusOr<std::vector<int64_t>> ParseStatNumbers() {
    if (!ConsumePunct("<")) return Error("expected '<'");
    std::vector<int64_t> numbers;
    do {
      if (!ConsumePunct("#")) return Error("expected '#' in statistics");
      LEGODB_ASSIGN_OR_RETURN(numbers.emplace_back(), ParseNumber());
    } while (ConsumePunct(","));
    if (!ConsumePunct(">")) return Error("expected '>'");
    return numbers;
  }

  StatusOr<TypePtr> ParseScalar(ScalarKind kind) {
    ScalarStats stats;
    if (IsPunct("<")) {
      LEGODB_ASSIGN_OR_RETURN(const std::vector<int64_t> ns,
                              ParseStatNumbers());
      if (kind == ScalarKind::kString) {
        // String<#size> or String<#size,#distincts>
        if (ns.size() > 2) return Error("too many String statistics");
        if (!ns.empty()) stats.size = static_cast<double>(ns[0]);
        if (ns.size() > 1) stats.distincts = ns[1];
      } else {
        // Integer<#size>, Integer<#size,#min,#max>,
        // or Integer<#size,#min,#max,#distincts>
        if (ns.size() > 4) return Error("too many Integer statistics");
        if (!ns.empty()) stats.size = static_cast<double>(ns[0]);
        if (ns.size() >= 3) {
          stats.min = ns[1];
          stats.max = ns[2];
        }
        if (ns.size() == 4) stats.distincts = ns[3];
      }
    }
    return Type::Scalar(kind, stats);
  }

  // Element content: '[' type? ']'.
  StatusOr<TypePtr> ParseBracketContent() {
    if (!ConsumePunct("[")) return Error("expected '['");
    if (ConsumePunct("]")) return Type::Empty();
    LEGODB_ASSIGN_OR_RETURN(TypePtr content, ParseTypeExpr());
    if (!ConsumePunct("]")) return Error("expected ']'");
    return content;
  }

  StatusOr<TypePtr> ParsePrimary() {
    // Parenthesized group or empty content.
    if (ConsumePunct("(")) {
      if (ConsumePunct(")")) return Type::Empty();
      LEGODB_ASSIGN_OR_RETURN(TypePtr inner, ParseTypeExpr());
      if (!ConsumePunct(")")) return Error("expected ')'");
      return inner;
    }
    // Attribute.
    if (ConsumePunct("@")) {
      if (lex_.current().kind != Token::Kind::kIdent) {
        return Error("expected attribute name after '@'");
      }
      std::string name = lex_.current().text;
      lex_.Advance();
      LEGODB_ASSIGN_OR_RETURN(TypePtr content, ParseBracketContent());
      return Type::Attribute(std::move(name), std::move(content));
    }
    // Wildcard element: ~[t] or ~!a[t].
    if (ConsumePunct("~")) {
      return ParseWildcardElement();
    }
    if (lex_.current().kind == Token::Kind::kIdent) {
      std::string ident = lex_.current().text;
      lex_.Advance();
      if (ident == "String") return ParseScalar(ScalarKind::kString);
      if (ident == "Integer") return ParseScalar(ScalarKind::kInteger);
      // Appendix-B spelling of '~'.
      if (ident == "TILDE") return ParseWildcardElement();
      // Identifier followed by '[' is an element; otherwise a type ref.
      if (IsPunct("[")) {
        LEGODB_ASSIGN_OR_RETURN(TypePtr content, ParseBracketContent());
        return Type::Element(ident, std::move(content));
      }
      return Type::Ref(std::move(ident));
    }
    return Error("unexpected token '" + lex_.current().text + "'");
  }

  // Called after consuming '~' / 'TILDE'.
  StatusOr<TypePtr> ParseWildcardElement() {
    NameClass nc = NameClass::Any();
    if (ConsumePunct("!")) {
      if (lex_.current().kind != Token::Kind::kIdent) {
        return Error("expected name after '~!'");
      }
      nc = NameClass::AnyExcept(lex_.current().text);
      lex_.Advance();
    }
    LEGODB_ASSIGN_OR_RETURN(TypePtr content, ParseBracketContent());
    return Type::Element(nc, std::move(content));
  }

  Lexer lex_;
};

}  // namespace

StatusOr<Schema> ParseSchema(std::string_view input) {
  return Parser(input).ParseSchemaDecls();
}

StatusOr<TypePtr> ParseType(std::string_view input) {
  return Parser(input).ParseSingleType();
}

}  // namespace legodb::xs
