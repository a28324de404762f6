#include "serving/canonicalize.h"

#include <cstdlib>

#include "common/hash.h"
#include "xquery/evaluator.h"
#include "xquery/lexer.h"

namespace legodb::serving {

namespace {

using xq::Token;

// A literal is in comparison position iff the previous token ends a
// comparison operator. The grammar's operators are =, !=, <, <=, >, >= —
// lexed as single-character punct tokens, every one of which ends in '=',
// '<' or '>'. `document("...")` follows '(' and never matches.
bool ComparisonPosition(const Token& prev) {
  return prev.kind == Token::Kind::kPunct &&
         (prev.text == "=" || prev.text == "<" || prev.text == ">");
}

void AppendQuoted(std::string_view body, std::string* out) {
  // The lexer has no escapes, so a body never contains both quote kinds;
  // pick whichever delimiter the body doesn't use.
  char quote = body.find('"') == std::string_view::npos ? '"' : '\'';
  out->push_back(quote);
  out->append(body);
  out->push_back(quote);
}

}  // namespace

CanonicalQuery Canonicalize(std::string_view query_text) {
  CanonicalQuery out;
  Token prev;  // starts as kEnd — never comparison position
  for (xq::Lexer lex(query_text); lex.current().kind != Token::Kind::kEnd;
       lex.Advance()) {
    const Token& tok = lex.current();
    if (!out.text.empty()) out.text.push_back(' ');
    bool parameterize = (tok.kind == Token::Kind::kNumber ||
                         tok.kind == Token::Kind::kString) &&
                        ComparisonPosition(prev);
    if (parameterize) {
      std::string name = "__p" + std::to_string(out.bindings.size());
      out.text.append(name);
      // Exactly ResolveConstant's literal conversions, so a bound
      // execution is bit-identical to planning the literal text.
      if (tok.kind == Token::Kind::kNumber) {
        out.bindings.emplace(
            std::move(name),
            Value::Int(std::strtoll(std::string(tok.text).c_str(), nullptr,
                                    10)));
      } else {
        out.bindings.emplace(std::move(name),
                             xq::CanonicalValue(std::string(tok.text)));
      }
    } else {
      switch (tok.kind) {
        case Token::Kind::kVar:
          out.text.push_back('$');
          out.text.append(tok.text);
          break;
        case Token::Kind::kString:
          AppendQuoted(tok.text, &out.text);
          break;
        default:
          out.text.append(tok.text);
          break;
      }
    }
    prev = tok;
  }
  out.fingerprint = common::HashString(out.text);
  return out;
}

}  // namespace legodb::serving
