#ifndef LEGODB_XQUERY_LEXER_H_
#define LEGODB_XQUERY_LEXER_H_

// The XQuery-subset lexer. The parser reads its tokens, and
// serving::Canonicalize re-serializes them, so the two always agree on
// where one token ends and the next begins.
//
// Tokens: identifiers ([A-Za-z_][A-Za-z0-9_]*), variables ('$' plus an
// identifier), unsigned decimal numbers, quoted strings ('...' or "...",
// no escapes; an unterminated string runs to the end of input), the
// two-character "</" (element constructor close), and every other
// character as one-character punctuation. Whitespace separates tokens.

#include <cctype>
#include <cstddef>
#include <string_view>

namespace legodb::xq {

struct Token {
  enum class Kind { kIdent, kVar, kNumber, kString, kPunct, kEnd };
  Kind kind = Kind::kEnd;
  // A view into the lexed input: the identifier, variable name (no '$'),
  // digits, string body (no quotes), or punctuation; empty at the end.
  std::string_view text;
  int line = 1;  // 1-based line the token starts on
};

class Lexer {
 public:
  // `input` must outlive the lexer and every token it returns.
  explicit Lexer(std::string_view input) : input_(input) { Advance(); }

  const Token& current() const { return current_; }

  void Advance() {
    SkipSpace();
    if (pos_ >= input_.size()) {
      current_ = Token{Token::Kind::kEnd, {}, line_};
      return;
    }
    const char c = input_[pos_];
    if (c == '$') {
      ++pos_;
      current_ = Token{Token::Kind::kVar, LexIdent(), line_};
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      current_ = Token{Token::Kind::kIdent, LexIdent(), line_};
      return;
    }
    const size_t start = pos_;
    if (std::isdigit(static_cast<unsigned char>(c))) {
      while (pos_ < input_.size() &&
             std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      }
      current_ = Token{Token::Kind::kNumber, Span(start), line_};
      return;
    }
    if (c == '"' || c == '\'') {
      ++pos_;
      while (pos_ < input_.size() && input_[pos_] != c) ++pos_;
      current_ = Token{Token::Kind::kString, Span(start + 1), line_};
      if (pos_ < input_.size()) ++pos_;
      return;
    }
    // "</" is one token (element constructor close).
    pos_ += c == '<' && pos_ + 1 < input_.size() && input_[pos_ + 1] == '/'
                ? 2
                : 1;
    current_ = Token{Token::Kind::kPunct, Span(start), line_};
  }

 private:
  std::string_view Span(size_t start) const {
    return input_.substr(start, pos_ - start);
  }

  std::string_view LexIdent() {
    const size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_')) {
      ++pos_;
    }
    return Span(start);
  }

  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      if (input_[pos_] == '\n') ++line_;
      ++pos_;
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
  int line_ = 1;
  Token current_;
};

}  // namespace legodb::xq

#endif  // LEGODB_XQUERY_LEXER_H_
