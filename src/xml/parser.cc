#include "xml/parser.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/str_util.h"

namespace legodb::xml {
namespace {

// The characters std::isspace accepts in the "C" locale (what StrTrim trims).
bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}
bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}
bool IsNameChar(char c) {
  return IsNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

// Recursive-descent XML parser over a string_view cursor, building straight
// into the document's arena. Runs of character data are found with `find`
// and copied once; only runs containing '&' are decoded.
class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  StatusOr<Document> Parse() {
    Document doc;
    arena_ = &doc.NewArena();
    SkipProlog();
    if (Eof() || Peek() != '<') {
      return Error("expected root element");
    }
    LEGODB_ASSIGN_OR_RETURN(Node * root, ParseElement());
    SkipMisc();
    if (!Eof()) return Error("trailing content after root element");
    doc.SetRoot(root);
    return doc;
  }

 private:
  bool Eof() const { return pos_ >= input_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < input_.size() ? input_[pos_ + ahead] : '\0';
  }
  bool LookingAt(std::string_view token) const {
    return input_.substr(pos_, token.size()) == token;
  }
  void Advance(size_t n = 1) { pos_ = std::min(pos_ + n, input_.size()); }
  void SkipWhitespace() {
    while (!Eof() && IsSpace(input_[pos_])) ++pos_;
  }

  // The line is counted only here, on the way out. An unterminated comment or
  // PI jumps to the end of the input without counting the lines it skips, so
  // its line stays where the jump began.
  Status Error(const std::string& msg) const {
    const size_t end = std::min(pos_, line_end_);
    const auto line =
        1 + std::count(input_.begin(),
                       input_.begin() + static_cast<std::ptrdiff_t>(end), '\n');
    return Status::ParseError("XML line " + std::to_string(line) + ": " + msg);
  }

  // Skips the XML declaration, DOCTYPE, comments and PIs before the root.
  void SkipProlog() {
    while (true) {
      SkipWhitespace();
      if (LookingAt("<?")) {
        SkipUntil("?>");
      } else if (LookingAt("<!--")) {
        SkipUntil("-->");
      } else if (LookingAt("<!DOCTYPE")) {
        SkipDoctype();
      } else {
        return;
      }
    }
  }

  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (LookingAt("<!--")) {
        SkipUntil("-->");
      } else if (LookingAt("<?")) {
        SkipUntil("?>");
      } else {
        return;
      }
    }
  }

  void SkipUntil(std::string_view token) {
    size_t found = input_.find(token, pos_);
    if (found == std::string_view::npos) {
      line_end_ = std::min(line_end_, pos_);
      pos_ = input_.size();
      return;
    }
    pos_ = found + token.size();
  }

  // <!DOCTYPE ...> possibly with a bracketed internal subset.
  void SkipDoctype() {
    int bracket_depth = 0;
    while (!Eof()) {
      char c = input_[pos_++];
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (c == '>' && bracket_depth <= 0) return;
    }
  }

  StatusOr<std::string_view> ParseName() {
    if (Eof() || !IsNameStart(Peek())) return Error("expected name");
    size_t start = pos_;
    while (!Eof() && IsNameChar(input_[pos_])) ++pos_;
    return input_.substr(start, pos_ - start);
  }

  // Appends `raw` with the five predefined entities and decimal/hex
  // character refs expanded.
  Status DecodeInto(std::string_view raw, std::string* out) const {
    for (size_t i = 0; i < raw.size(); ++i) {
      size_t amp = raw.find('&', i);
      if (amp == std::string_view::npos) {
        out->append(raw.substr(i));
        break;
      }
      out->append(raw.substr(i, amp - i));
      i = amp;
      size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) return Error("unterminated entity");
      std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "lt") {
        *out += '<';
      } else if (ent == "gt") {
        *out += '>';
      } else if (ent == "amp") {
        *out += '&';
      } else if (ent == "apos") {
        *out += '\'';
      } else if (ent == "quot") {
        *out += '"';
      } else if (!ent.empty() && ent[0] == '#') {
        int base = 10;
        std::string_view digits = ent.substr(1);
        if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
          base = 16;
          digits = digits.substr(1);
        }
        char* end = nullptr;
        std::string d(digits);
        long code = std::strtol(d.c_str(), &end, base);
        if (end == d.c_str() || code <= 0 || code > 0x10FFFF) {
          return Error("bad character reference");
        }
        // Encode as UTF-8.
        if (code < 0x80) {
          *out += static_cast<char>(code);
        } else if (code < 0x800) {
          *out += static_cast<char>(0xC0 | (code >> 6));
          *out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
          *out += static_cast<char>(0xE0 | (code >> 12));
          *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          *out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          *out += static_cast<char>(0xF0 | (code >> 18));
          *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
          *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          *out += static_cast<char>(0x80 | (code & 0x3F));
        }
      } else {
        return Error("unknown entity '&" + std::string(ent) + ";'");
      }
      i = semi;
    }
    return Status::OK();
  }

  // The character data since the last child element or start tag: one run
  // viewed in the input while it is one entity-free run, else text_buf_.
  class PendingText {
   public:
    explicit PendingText(std::string* buf) : buf_(buf) {}
    void AddRun(std::string_view run) {
      if (buffered_) {
        buf_->append(run);
      } else if (view_.empty()) {
        view_ = run;
      } else {
        Buffer()->append(run);
      }
    }
    std::string* Buffer() {
      if (!buffered_) {
        buf_->assign(view_);
        buffered_ = true;
      }
      return buf_;
    }
    // The text so far; the next AddRun starts afresh.
    std::string_view Take() {
      std::string_view text = buffered_ ? std::string_view(*buf_) : view_;
      view_ = {};
      buffered_ = false;
      return text;
    }

   private:
    std::string* buf_;
    std::string_view view_;
    bool buffered_ = false;
  };

  // Whitespace-only runs between elements are formatting, not data.
  void FlushText(PendingText* pending) {
    std::string_view text = StrTrim(pending->Take());
    if (!text.empty()) children_.push_back(arena_->NewText(text));
  }

  StatusOr<Node*> ParseElement() {
    if (!LookingAt("<")) return Error("expected '<'");
    Advance();
    LEGODB_ASSIGN_OR_RETURN(std::string_view name, ParseName());
    Node* element = arena_->NewElement(arena_->Intern(name));

    // Attributes.
    while (true) {
      SkipWhitespace();
      if (Eof()) return Error("unterminated start tag");
      if (Peek() == '/' || Peek() == '>') break;
      LEGODB_ASSIGN_OR_RETURN(std::string_view attr_name, ParseName());
      SkipWhitespace();
      if (Peek() != '=') return Error("expected '=' in attribute");
      Advance();
      SkipWhitespace();
      char quote = Peek();
      if (quote != '"' && quote != '\'') {
        return Error("expected quoted attribute value");
      }
      Advance();
      const size_t start = pos_;
      pos_ = std::min(input_.find(quote, pos_), input_.size());
      if (Eof()) return Error("unterminated attribute value");
      std::string_view value = input_.substr(start, pos_ - start);
      if (value.find('&') != std::string_view::npos) {
        text_buf_.clear();
        LEGODB_RETURN_IF_ERROR(DecodeInto(value, &text_buf_));
        value = text_buf_;
      }
      Advance();  // closing quote
      element->SetAttribute(attr_name, value);
    }

    if (Peek() == '/') {
      Advance();
      if (Peek() != '>') return Error("expected '/>'");
      Advance();
      return element;
    }
    Advance();  // '>'

    // Content. children_ is a stack: this element's children sit above
    // `first_child` until its close tag copies them into the arena.
    const size_t first_child = children_.size();
    PendingText pending(&text_buf_);
    while (true) {
      if (Eof()) {
        return Error("unterminated element <" + std::string(name) + ">");
      }
      if (LookingAt("</")) {
        FlushText(&pending);
        Advance(2);
        LEGODB_ASSIGN_OR_RETURN(std::string_view close_name, ParseName());
        if (close_name != name) {
          return Error("mismatched close tag </" + std::string(close_name) +
                       "> for <" + std::string(name) + ">");
        }
        SkipWhitespace();
        if (Peek() != '>') return Error("expected '>'");
        Advance();
        element->SetChildren(
            std::span<Node* const>(children_).subspan(first_child));
        children_.resize(first_child);
        return element;
      }
      if (LookingAt("<!--")) {
        SkipUntil("-->");
        continue;
      }
      if (LookingAt("<![CDATA[")) {
        Advance(9);
        size_t end = input_.find("]]>", pos_);
        if (end == std::string_view::npos) return Error("unterminated CDATA");
        pending.AddRun(input_.substr(pos_, end - pos_));
        pos_ = end + 3;
        continue;
      }
      if (LookingAt("<?")) {
        SkipUntil("?>");
        continue;
      }
      if (Peek() == '<') {
        FlushText(&pending);
        LEGODB_ASSIGN_OR_RETURN(Node * child, ParseElement());
        children_.push_back(child);
        continue;
      }
      // Character data up to the next markup.
      const size_t start = pos_;
      pos_ = std::min(input_.find('<', pos_), input_.size());
      std::string_view run = input_.substr(start, pos_ - start);
      if (run.find('&') == std::string_view::npos) {
        pending.AddRun(run);
      } else {
        LEGODB_RETURN_IF_ERROR(DecodeInto(run, pending.Buffer()));
      }
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
  // Where an unterminated comment or PI jumped to the end (see Error).
  size_t line_end_ = std::string_view::npos;
  Arena* arena_ = nullptr;
  std::vector<Node*> children_;  // open elements' children, innermost last
  std::string text_buf_;         // decoded or merged character data
};

}  // namespace

StatusOr<Document> ParseDocument(std::string_view input) {
  // Nodes count their text bytes and children in 32 bits.
  if (input.size() > UINT32_MAX) {
    return Status::ParseError("XML input over 4 GiB");
  }
  return Parser(input).Parse();
}

}  // namespace legodb::xml
