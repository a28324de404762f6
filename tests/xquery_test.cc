// Unit tests for the XQuery subset: parser coverage of Appendix C,
// DOM-evaluation semantics, and result-set utilities.
#include <gtest/gtest.h>

#include "imdb/imdb.h"
#include "xml/parser.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"
#include "xquery/result.h"

namespace legodb::xq {
namespace {

// ---- Parser ----

TEST(QueryParser, SimpleLookup) {
  auto q = ParseQuery(
      "FOR $v IN document(\"d\")/imdb/show WHERE $v/title = c1 "
      "RETURN $v/title, $v/year");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->fors.size(), 1u);
  EXPECT_TRUE(q->fors[0].from_document);
  EXPECT_EQ(q->fors[0].steps, (std::vector<std::string>{"imdb", "show"}));
  ASSERT_EQ(q->where.size(), 1u);
  EXPECT_EQ(q->where[0].rhs_const.symbol, "c1");
  EXPECT_EQ(q->ret.size(), 2u);
}

TEST(QueryParser, KeywordsAreCaseInsensitive) {
  auto q = ParseQuery("for $v in document(\"d\")/a return $v/x");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
}

TEST(QueryParser, MultipleBindingsAndConjunction) {
  auto q = ParseQuery(
      "FOR $i IN document(\"d\")/imdb FOR $a IN $i/actor, $d IN $i/director "
      "WHERE $a/name = $d/name AND $a/name = \"x\" RETURN $a/name");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->fors.size(), 3u);
  EXPECT_EQ(q->fors[1].source_var, "i");
  EXPECT_TRUE(q->where[0].rhs_is_path);
  EXPECT_FALSE(q->where[1].rhs_is_path);
  EXPECT_EQ(q->where[1].rhs_const.string_value, "x");
}

TEST(QueryParser, IntegerAndStringConstants) {
  auto q = ParseQuery(
      "FOR $v IN document(\"d\")/a WHERE $v/year = 1999 RETURN $v/year");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where[0].rhs_const.kind, Constant::Kind::kInt);
  EXPECT_EQ(q->where[0].rhs_const.int_value, 1999);
}

TEST(QueryParser, NestedSubqueryInReturn) {
  auto q = ParseQuery(
      "FOR $v IN document(\"d\")/imdb/show RETURN $v/title, "
      "FOR $e IN $v/episodes WHERE $e/guest_director = c1 RETURN $e/name");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->ret.size(), 2u);
  EXPECT_EQ(q->ret[1].kind, ReturnItem::Kind::kSubquery);
  EXPECT_EQ(q->ret[1].subquery->fors[0].source_var, "v");
}

TEST(QueryParser, ElementConstructor) {
  auto q = ParseQuery(
      "FOR $a IN document(\"d\")/imdb/actor RETURN "
      "<result> $a/name $a/name </result>");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->ret.size(), 1u);
  EXPECT_EQ(q->ret[0].kind, ReturnItem::Kind::kElement);
  EXPECT_EQ(q->ret[0].element_name, "result");
  EXPECT_EQ(q->ret[0].children.size(), 2u);
  // Flattening sees through constructors.
  EXPECT_EQ(q->FlatReturnItems().size(), 2u);
}

TEST(QueryParser, BarePublishVariable) {
  auto q = ParseQuery("FOR $s IN document(\"d\")/imdb/show RETURN $s");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->IsPublish());
}

TEST(QueryParser, AttributeSteps) {
  auto q = ParseQuery("FOR $v IN document(\"d\")/a RETURN $v/@type");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->ret[0].path.steps, (std::vector<std::string>{"@type"}));
}

TEST(QueryParser, AllPaperQueriesParse) {
  const char* names[] = {"Q1",  "Q2",  "Q3",  "Q4",  "Q5",  "Q6",
                         "Q7",  "Q8",  "Q9",  "Q10", "Q11", "Q12",
                         "Q13", "Q14", "Q15", "Q16", "Q17", "Q18",
                         "Q19", "Q20", "S2Q1", "S2Q2", "S2Q3", "S2Q4"};
  for (const char* name : names) {
    const char* text = imdb::QueryText(name);
    ASSERT_NE(text, nullptr) << name;
    auto q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << name << ": " << q.status().ToString();
  }
}

TEST(QueryParser, UnknownQueryNameIsNull) {
  EXPECT_EQ(imdb::QueryText("Q999"), nullptr);
}

TEST(QueryParser, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("RETURN $v").ok());
  EXPECT_FALSE(ParseQuery("FOR $v IN document(\"d\")/a").ok());  // no RETURN
  EXPECT_FALSE(ParseQuery("FOR $v document(\"d\")/a RETURN $v").ok());
  EXPECT_FALSE(
      ParseQuery("FOR $v IN document(\"d\")/a WHERE $v RETURN $v").ok());
}

TEST(QueryParser, ToStringRoundTripsThroughParser) {
  auto q1 = ParseQuery(imdb::QueryText("Q13"));
  ASSERT_TRUE(q1.ok());
  auto q2 = ParseQuery(q1->ToString());
  ASSERT_TRUE(q2.ok()) << q2.status().ToString() << "\n" << q1->ToString();
  EXPECT_EQ(q1->ToString(), q2->ToString());
}

// ---- Evaluator ----

xml::Document Doc() {
  auto doc = xml::ParseDocument(R"(
    <imdb>
      <show type="Movie"><title>alpha</title><year>1999</year>
        <aka>a1</aka><aka>a2</aka>
        <box_office>10</box_office><video_sales>20</video_sales></show>
      <show type="TV series"><title>beta</title><year>2001</year>
        <seasons>3</seasons><description>desc</description>
        <episodes><name>e1</name><guest_director>gd1</guest_director></episodes>
        <episodes><name>e2</name><guest_director>gd2</guest_director></episodes>
      </show>
    </imdb>)");
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

ResultSet Eval(const char* text,
               const std::map<std::string, Value>& params = {}) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  auto r = EvaluateOnDocument(q.value(), Doc(), params);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(Evaluator, SimpleSelection) {
  ResultSet r = Eval(
      "FOR $v IN document(\"d\")/imdb/show WHERE $v/year = 1999 "
      "RETURN $v/title");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Str("alpha"));
}

TEST(Evaluator, IntegerComparisonIsNumeric) {
  ResultSet r = Eval(
      "FOR $v IN document(\"d\")/imdb/show WHERE $v/year = 2001 "
      "RETURN $v/year");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Int(2001));
}

TEST(Evaluator, AttributeFallback) {
  ResultSet r = Eval(
      "FOR $v IN document(\"d\")/imdb/show WHERE $v/title = \"alpha\" "
      "RETURN $v/type");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Str("Movie"));
}

TEST(Evaluator, MultiValuedReturnExpandsRows) {
  ResultSet r = Eval(
      "FOR $v IN document(\"d\")/imdb/show WHERE $v/title = \"alpha\" "
      "RETURN $v/title, $v/aka");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1], Value::Str("a1"));
  EXPECT_EQ(r.rows[1][1], Value::Str("a2"));
}

TEST(Evaluator, StrictProjectionDropsRowsWithMissingPaths) {
  // Only the TV show has a description.
  ResultSet r = Eval(
      "FOR $v IN document(\"d\")/imdb/show RETURN $v/title, $v/description");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Str("beta"));
}

TEST(Evaluator, SymbolicParametersBind) {
  ResultSet r = Eval(
      "FOR $v IN document(\"d\")/imdb/show WHERE $v/title = c1 "
      "RETURN $v/year",
      {{"c1", Value::Str("beta")}});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Int(2001));
}

TEST(Evaluator, UnboundParameterIsAnError) {
  auto q = ParseQuery(
      "FOR $v IN document(\"d\")/imdb/show WHERE $v/title = c9 RETURN $v/title");
  ASSERT_TRUE(q.ok());
  auto r = EvaluateOnDocument(q.value(), Doc(), {});
  EXPECT_FALSE(r.ok());
}

TEST(Evaluator, SubqueryWithWhereFiltersOuter) {
  ResultSet r = Eval(
      "FOR $v IN document(\"d\")/imdb/show RETURN $v/title, "
      "FOR $e IN $v/episodes WHERE $e/guest_director = \"gd1\" "
      "RETURN $e/name");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Str("beta"));
  EXPECT_EQ(r.rows[0][1], Value::Str("e1"));
}

TEST(Evaluator, SubqueryWithoutWhereIsLeftOuter) {
  ResultSet r = Eval(
      "FOR $v IN document(\"d\")/imdb/show RETURN $v/title, "
      "FOR $e IN $v/episodes RETURN $e/name");
  // Movie has no episodes: kept with NULL; TV yields one row per episode.
  ASSERT_EQ(r.rows.size(), 3u);
  r.SortRows();
  EXPECT_TRUE(r.rows[0][1].is_null() || r.rows[1][1].is_null() ||
              r.rows[2][1].is_null());
}

// A left-outer miss pads the row with one NULL per column the subquery
// returns, its own inner subqueries' columns included.
TEST(Evaluator, LeftOuterMissPadsEveryNestedColumn) {
  ResultSet r = Eval(
      "FOR $v IN document(\"d\")/imdb/show RETURN $v/title, "
      "FOR $e IN $v/episodes RETURN $e/name, $e/guest_director, "
      "FOR $k IN $v/aka RETURN $k");
  ASSERT_EQ(r.labels.size(), 4u);
  ASSERT_EQ(r.rows.size(), 3u);
  r.SortRows();
  for (const auto& row : r.rows) EXPECT_EQ(row.size(), 4u);
  // alpha has no episodes: all three inner columns are NULL.
  EXPECT_EQ(r.rows[0][0], Value::Str("alpha"));
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
  EXPECT_TRUE(r.rows[0][3].is_null());
  // beta's episodes have no aka: only the innermost column is NULL.
  EXPECT_EQ(r.rows[1][0], Value::Str("beta"));
  EXPECT_EQ(r.rows[1][2], Value::Str("gd1"));
  EXPECT_TRUE(r.rows[1][3].is_null());
  EXPECT_EQ(r.rows[2][1], Value::Str("e2"));
  EXPECT_TRUE(r.rows[2][3].is_null());
}

TEST(Evaluator, ValueJoinAcrossVariables) {
  ResultSet r = Eval(
      "FOR $a IN document(\"d\")/imdb/show, $b IN document(\"d\")/imdb/show "
      "WHERE $a/title = $b/title RETURN $a/title");
  EXPECT_EQ(r.rows.size(), 2u);  // each show joins itself only
}

TEST(Evaluator, PublishSerializesSubtree) {
  ResultSet r = Eval(
      "FOR $v IN document(\"d\")/imdb/show WHERE $v/year = 1999 RETURN $v");
  ASSERT_EQ(r.rows.size(), 1u);
  const std::string& xml_text = r.rows[0][0].as_string();
  EXPECT_NE(xml_text.find("<title>alpha</title>"), std::string::npos);
}

TEST(Evaluator, LabelsFollowReturnStructure) {
  auto q = ParseQuery(
      "FOR $v IN document(\"d\")/imdb/show RETURN <r> $v/title "
      "FOR $e IN $v/episodes RETURN $e/name </r>");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(QueryLabels(q.value()),
            (std::vector<std::string>{"$v/title", "$e/name"}));
}

TEST(Evaluator, MissingBindingPathYieldsNoRows) {
  ResultSet r = Eval("FOR $v IN document(\"d\")/imdb/nothing RETURN $v/x");
  EXPECT_TRUE(r.rows.empty());
}

TEST(Evaluator, WrongRootNameYieldsNoRows) {
  ResultSet r = Eval("FOR $v IN document(\"d\")/wrong/show RETURN $v/title");
  EXPECT_TRUE(r.rows.empty());
}

// ---- CanonicalValue / ResultSet ----

TEST(CanonicalValueTest, IntegersParse) {
  EXPECT_EQ(CanonicalValue("42"), Value::Int(42));
  EXPECT_EQ(CanonicalValue("  -7 "), Value::Int(-7));
  EXPECT_EQ(CanonicalValue("4 2"), Value::Str("4 2"));
  EXPECT_EQ(CanonicalValue("abc"), Value::Str("abc"));
  EXPECT_EQ(CanonicalValue(""), Value::Str(""));
}

TEST(ResultSetTest, SameRowsIsOrderInsensitive) {
  ResultSet a, b;
  a.rows = {{Value::Int(1)}, {Value::Int(2)}};
  b.rows = {{Value::Int(2)}, {Value::Int(1)}};
  EXPECT_TRUE(a.SameRows(b));
  b.rows.push_back({Value::Int(2)});
  EXPECT_FALSE(a.SameRows(b));
}

TEST(ResultSetTest, SameRowsIsMultisetSensitive) {
  ResultSet a, b;
  a.rows = {{Value::Int(1)}, {Value::Int(1)}, {Value::Int(2)}};
  b.rows = {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(2)}};
  EXPECT_FALSE(a.SameRows(b));
}

TEST(ResultSetTest, ToStringIncludesLabelsAndNulls) {
  ResultSet r;
  r.labels = {"x", "y"};
  r.rows = {{Value::Int(1), Value::MakeNull()}};
  std::string s = r.ToString();
  EXPECT_NE(s.find("x | y"), std::string::npos);
  EXPECT_NE(s.find("1 | NULL"), std::string::npos);
}

}  // namespace
}  // namespace legodb::xq
