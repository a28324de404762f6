#include "xml/writer.h"

namespace legodb::xml {
namespace {

void AppendEscaped(std::string_view text, std::string* out) {
  while (!text.empty()) {
    const size_t special = text.find_first_of("&<>\"'");
    out->append(text.substr(0, special));
    if (special == std::string_view::npos) return;
    switch (text[special]) {
      case '&':
        *out += "&amp;";
        break;
      case '<':
        *out += "&lt;";
        break;
      case '>':
        *out += "&gt;";
        break;
      case '"':
        *out += "&quot;";
        break;
      default:
        *out += "&apos;";
    }
    text.remove_prefix(special + 1);
  }
}

void SerializeNode(const Node& node, bool pretty, int depth,
                   std::string* out) {
  const size_t indent = pretty ? 2 * static_cast<size_t>(depth) : 0;
  out->append(indent, ' ');
  if (node.is_text()) {
    AppendEscaped(node.text(), out);
    if (pretty) *out += '\n';
    return;
  }
  *out += '<';
  out->append(node.name());
  for (const Attribute& a : node.attributes()) {
    *out += ' ';
    out->append(a.name);
    *out += "=\"";
    AppendEscaped(a.value, out);
    *out += '"';
  }
  const auto children = node.children();
  if (children.empty()) {
    *out += "/>";
    if (pretty) *out += '\n';
    return;
  }
  *out += '>';
  // A single text child renders inline: <title>The Fugitive</title>.
  if (children.size() == 1 && children[0]->is_text()) {
    AppendEscaped(children[0]->text(), out);
  } else {
    if (pretty) *out += '\n';
    for (const Node* child : children) {
      SerializeNode(*child, pretty, depth + 1, out);
    }
    out->append(indent, ' ');
  }
  *out += "</";
  out->append(node.name());
  *out += '>';
  if (pretty) *out += '\n';
}

}  // namespace

std::string EscapeText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendEscaped(text, &out);
  return out;
}

std::string Serialize(const Node& node, bool pretty) {
  std::string out;
  SerializeNode(node, pretty, 0, &out);
  return out;
}

std::string Serialize(const Document& doc, bool pretty) {
  if (!doc.root) return "";
  return Serialize(*doc.root, pretty);
}

}  // namespace legodb::xml
