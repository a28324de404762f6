#ifndef LEGODB_XML_WRITER_H_
#define LEGODB_XML_WRITER_H_

#include <string>
#include <string_view>

#include "xml/dom.h"

namespace legodb::xml {

// Serializes a node subtree back to XML text. With `pretty`, elements are
// indented two spaces per level; text content is emitted inline.
std::string Serialize(const Node& node, bool pretty = true);
std::string Serialize(const Document& doc, bool pretty = true);

// Escapes &, <, >, ", ' for use in character data / attribute values.
std::string EscapeText(std::string_view text);

}  // namespace legodb::xml

#endif  // LEGODB_XML_WRITER_H_
