// Unit tests for the XML substrate: DOM operations, parser (including
// entities, CDATA, comments, error reporting) and serializer round-trips.
#include <gtest/gtest.h>

#include <string_view>
#include <utility>

#include "xml/dom.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace legodb::xml {
namespace {

TEST(Dom, BuildTree) {
  Document doc;
  Node* root = doc.CreateRoot("show");
  root->SetAttribute("type", "Movie");
  root->AddElement("title", "The Fugitive");
  Node* year = root->AddElement("year");
  year->AddText("1993");

  EXPECT_TRUE(root->is_element());
  EXPECT_EQ(root->name(), "show");
  ASSERT_NE(root->FindAttribute("type"), nullptr);
  EXPECT_EQ(*root->FindAttribute("type"), "Movie");
  EXPECT_EQ(root->FindAttribute("missing"), nullptr);
  EXPECT_EQ(root->children().size(), 2u);
  EXPECT_EQ(root->FirstChildNamed("year")->TextContent(), "1993");
}

TEST(Dom, ChildrenNamedReturnsInOrder) {
  Document doc;
  Node* root = doc.CreateRoot("r");
  root->AddElement("a", "1");
  root->AddElement("b", "x");
  root->AddElement("a", "2");
  auto matches = root->ChildrenNamed("a");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0]->TextContent(), "1");
  EXPECT_EQ(matches[1]->TextContent(), "2");
}

TEST(Dom, TextContentConcatenatesDescendants) {
  Document doc;
  Node* root = doc.CreateRoot("r");
  root->AddText("a");
  root->AddElement("c", "b");
  root->AddText("c");
  EXPECT_EQ(root->TextContent(), "abc");
}

TEST(Dom, SubtreeSizeCountsAllNodes) {
  Document doc;
  Node* root = doc.CreateRoot("r");
  root->AddElement("a", "text");  // element + text node
  EXPECT_EQ(root->SubtreeSize(), 3u);
}

TEST(Dom, SetRootPromotesAChild) {
  Document doc;
  Node* holder = doc.CreateRoot("holder");
  holder->AddElement("a")->AddElement("b", "x");
  doc.SetRoot(holder->children()[0]);
  EXPECT_EQ(doc.root->name(), "a");
  EXPECT_EQ(Serialize(doc, false), "<a><b>x</b></a>");
}

// Every node, name and string lives in the document's arena, which a move
// hands over whole: nothing is copied, so views taken before stay valid.
TEST(Dom, MovedDocumentKeepsNodesNamesAndText) {
  auto parsed = ParseDocument("<r k='v'><a>one</a><b>two</b></r>");
  ASSERT_TRUE(parsed.ok());
  Document doc = std::move(parsed).value();
  const Node* root = doc.root.get();
  const std::string_view text = root->children()[1]->children()[0]->text();
  const NameId b = doc.FindName("b");
  ASSERT_NE(b, kNoName);

  Document moved(std::move(doc));
  EXPECT_FALSE(doc.root);
  EXPECT_EQ(doc.FindName("b"), kNoName);
  ASSERT_EQ(moved.root.get(), root);
  EXPECT_EQ(moved.FindName("b"), b);
  EXPECT_EQ(text, "two");
  EXPECT_EQ(*moved.root->FindAttribute("k"), "v");

  Document assigned;
  assigned.CreateRoot("other")->AddElement("x", "y");
  assigned = std::move(moved);
  EXPECT_FALSE(moved.root);
  ASSERT_EQ(assigned.root.get(), root);
  EXPECT_EQ(assigned.root->name(), "r");
  EXPECT_EQ(assigned.root->children()[0]->name(), "a");
  EXPECT_EQ(assigned.root->FirstChildNamed("b")->name_id(), b);
  EXPECT_EQ(text, "two");
  EXPECT_EQ(assigned.FindName("other"), kNoName);
  EXPECT_EQ(Serialize(assigned, false),
            "<r k=\"v\"><a>one</a><b>two</b></r>");
}

TEST(Dom, ResetEmptiesTheDocument) {
  auto parsed = ParseDocument("<r><a>one</a></r>");
  ASSERT_TRUE(parsed.ok());
  Document doc = std::move(parsed).value();
  doc.root.reset();
  EXPECT_FALSE(doc.root);
  EXPECT_EQ(doc.root.get(), nullptr);
  EXPECT_EQ(doc.FindName("a"), kNoName);
  EXPECT_EQ(Serialize(doc), "");
  doc.root.reset();  // resetting an empty document is a no-op

  auto again = ParseDocument("<s><b>two</b></s>");
  ASSERT_TRUE(again.ok());
  doc = std::move(again).value();
  EXPECT_EQ(Serialize(doc, false), "<s><b>two</b></s>");
  doc.root.reset();
  doc.CreateRoot("t")->AddElement("c", "three");
  EXPECT_EQ(Serialize(doc, false), "<t><c>three</c></t>");
}

// Name ids index one document's name table, in first-use order; the same tag
// may have different ids in two documents.
TEST(Dom, NameIdsArePerDocument) {
  auto first = ParseDocument("<r><a/><b/><a/></r>");
  auto second = ParseDocument("<r><b/><a/></r>");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->FindName("a"), first->root->children()[0]->name_id());
  EXPECT_EQ(first->root->children()[2]->name_id(),
            first->root->children()[0]->name_id());
  EXPECT_NE(first->FindName("a"), second->FindName("a"));
  EXPECT_EQ(first->FindName("missing"), kNoName);
  EXPECT_EQ(first->root->FirstChildNamed("missing"), nullptr);
  EXPECT_TRUE(first->root->ChildrenNamed("missing").empty());
  EXPECT_EQ(first->root->ChildrenNamed("a").size(), 2u);
  EXPECT_EQ(first->root->arena().name(first->FindName("b")), "b");
}

// Attributes are kept in name order, one per name, the last value set
// winning, whether built or parsed; serialization follows that order.
TEST(Dom, AttributeOrderAndOverwriteSerialize) {
  Document doc;
  Node* e = doc.CreateRoot("e");
  e->SetAttribute("z", "1");
  e->SetAttribute("a", "2");
  e->SetAttribute("m", "3");
  e->SetAttribute("a", "again");
  ASSERT_EQ(e->attributes().size(), 3u);
  EXPECT_EQ(e->attributes()[0].name, "a");
  EXPECT_EQ(e->attributes()[0].id, doc.FindName("a"));
  EXPECT_EQ(Serialize(doc, false), "<e a=\"again\" m=\"3\" z=\"1\"/>");

  auto parsed = ParseDocument(
      "<r z='1' a='2' m='3'><s b='x' a='y' b='&lt;last'/></r>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(Serialize(*parsed, false),
            "<r a=\"2\" m=\"3\" z=\"1\"><s a=\"y\" b=\"&lt;last\"/></r>");
}

TEST(Parser, SimpleDocument) {
  auto doc = ParseDocument("<a><b>hi</b><c x='1'/></a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root->name(), "a");
  EXPECT_EQ(doc->root->FirstChildNamed("b")->TextContent(), "hi");
  EXPECT_EQ(*doc->root->FirstChildNamed("c")->FindAttribute("x"), "1");
}

TEST(Parser, SkipsPrologAndComments) {
  auto doc = ParseDocument(
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a (#PCDATA)>]>"
      "<!-- comment --><a>x<!-- inner --></a><!-- after -->");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root->TextContent(), "x");
}

TEST(Parser, DecodesPredefinedEntities) {
  auto doc = ParseDocument("<a x=\"&lt;&amp;&gt;\">&quot;&apos;</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->root->FindAttribute("x"), "<&>");
  EXPECT_EQ(doc->root->TextContent(), "\"'");
}

TEST(Parser, DecodesNumericCharacterReferences) {
  auto doc = ParseDocument("<a>&#65;&#x42;</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->TextContent(), "AB");
}

TEST(Parser, DecodesMultibyteCharacterReference) {
  auto doc = ParseDocument("<a>&#233;</a>");  // é
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->TextContent(), "\xC3\xA9");
}

TEST(Parser, Cdata) {
  auto doc = ParseDocument("<a><![CDATA[<not> &markup;]]></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->TextContent(), "<not> &markup;");
}

TEST(Parser, WhitespaceOnlyTextIsDropped) {
  auto doc = ParseDocument("<a>\n  <b>x</b>\n  </a>");
  ASSERT_TRUE(doc.ok());
  // Only the <b> element child; formatting whitespace is not data.
  EXPECT_EQ(doc->root->children().size(), 1u);
}

TEST(Parser, MixedContentPreserved) {
  auto doc = ParseDocument("<a>before<b/>after</a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root->children().size(), 3u);
  EXPECT_TRUE(doc->root->children()[0]->is_text());
  EXPECT_TRUE(doc->root->children()[1]->is_element());
  EXPECT_TRUE(doc->root->children()[2]->is_text());
}

TEST(Parser, RejectsMismatchedTags) {
  auto doc = ParseDocument("<a><b></a></b>");
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), Status::Code::kParseError);
}

TEST(Parser, RejectsUnterminatedElement) {
  EXPECT_FALSE(ParseDocument("<a><b>").ok());
}

TEST(Parser, RejectsTrailingContent) {
  EXPECT_FALSE(ParseDocument("<a/><b/>").ok());
}

TEST(Parser, RejectsUnknownEntity) {
  EXPECT_FALSE(ParseDocument("<a>&nope;</a>").ok());
}

TEST(Parser, RejectsMissingAttributeQuotes) {
  EXPECT_FALSE(ParseDocument("<a x=1/>").ok());
}

TEST(Parser, ErrorsIncludeLineNumbers) {
  auto doc = ParseDocument("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos);
}

// The line an error names is where the parser stopped, counting every
// newline before it except those an unterminated comment jumps over.
TEST(Parser, ErrorMessagesAndLines) {
  const std::pair<const char*, const char*> cases[] = {
      {"<a>\n<b>\n</c>\n</a>", "XML line 3: mismatched close tag </c> for <b>"},
      {"<a>\n\n<!-- unterminated\n\n\n", "XML line 3: unterminated element <a>"},
      {"<a>\n<b x=\"unterminated\n\n", "XML line 4: unterminated attribute value"},
      {"<a>\n&nope;\n</a>", "XML line 3: unknown entity '&nope;'"},
      {"<a>\n&#xZZ;</a>", "XML line 2: bad character reference"},
      {"<a>\n&amp</a>", "XML line 2: unterminated entity"},
      {"<a><![CDATA[\nunterminated", "XML line 1: unterminated CDATA"},
      {"<a>\n<b>\n", "XML line 3: unterminated element <b>"},
      {"<a/>\n<b/>", "XML line 2: trailing content after root element"},
      {"\n\n", "XML line 3: expected root element"},
      {"<a x=1/>", "XML line 1: expected quoted attribute value"},
      {"<a\n  x\n=\n'1'\n  / >", "XML line 5: expected '/>'"},
  };
  for (const auto& [input, message] : cases) {
    auto doc = ParseDocument(input);
    ASSERT_FALSE(doc.ok()) << input;
    EXPECT_EQ(doc.status().code(), Status::Code::kParseError) << input;
    EXPECT_EQ(doc.status().message(), message) << input;
  }
}

// Character data is merged across comments, PIs and CDATA sections up to
// the next element, entity-decoded only where it has '&', and trimmed.
TEST(Parser, TextRunsMergeDecodeAndTrim) {
  auto doc = ParseDocument(
      "<a><?pi x?>one<![CDATA[two]]>three&amp;four<!--x-->five"
      "<b>  &lt;b&gt;  </b>\n   \n<c/>  tail  </a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->root->children().size(), 4u);
  EXPECT_EQ(doc->root->children()[0]->text(), "onetwothree&fourfive");
  EXPECT_EQ(doc->root->children()[1]->TextContent(), "<b>");
  EXPECT_TRUE(doc->root->children()[2]->is_element());  // no blank text
  EXPECT_EQ(doc->root->children()[3]->text(), "tail");
  EXPECT_EQ(Serialize(*doc, false),
            "<a>onetwothree&amp;fourfive<b>&lt;b&gt;</b><c/>tail</a>");
}

TEST(Parser, SingleQuotedAttributes) {
  auto doc = ParseDocument("<a x='va\"lue'/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->root->FindAttribute("x"), "va\"lue");
}

TEST(Parser, NamesWithDotsAndDashes) {
  auto doc = ParseDocument("<ns:a-b.c><d_e/></ns:a-b.c>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->name(), "ns:a-b.c");
}

TEST(Writer, EscapesSpecialCharacters) {
  EXPECT_EQ(EscapeText("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
}

TEST(Writer, SerializeCompact) {
  Document doc;
  Node* root = doc.CreateRoot("a");
  root->SetAttribute("k", "v");
  root->AddElement("b", "x");
  EXPECT_EQ(Serialize(*root, /*pretty=*/false), "<a k=\"v\"><b>x</b></a>");
}

TEST(Writer, SelfClosingEmptyElement) {
  Document doc;
  Node* root = doc.CreateRoot("empty");
  EXPECT_EQ(Serialize(*root, false), "<empty/>");
}

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, ParseSerializeParseIsStable) {
  auto doc1 = ParseDocument(GetParam());
  ASSERT_TRUE(doc1.ok()) << doc1.status().ToString();
  std::string text1 = Serialize(doc1.value());
  auto doc2 = ParseDocument(text1);
  ASSERT_TRUE(doc2.ok()) << doc2.status().ToString();
  EXPECT_EQ(text1, Serialize(doc2.value()));
}

INSTANTIATE_TEST_SUITE_P(
    Documents, RoundTripTest,
    ::testing::Values(
        "<a/>", "<a>text</a>", "<a x=\"1\" y=\"2\"><b/><b>t</b></a>",
        "<show type=\"Movie\"><title>Fugitive &amp; more</title>"
        "<year>1993</year><aka>Auf der Flucht</aka></show>",
        "<r><deep><deeper><deepest>v</deepest></deeper></deep></r>"));

}  // namespace
}  // namespace legodb::xml
