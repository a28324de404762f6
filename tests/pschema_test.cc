// Unit tests for the p-schema module: stratification checking,
// normalization, initial configurations, node addressing, and the
// inline/outline primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "auction/auction.h"
#include "common/hash.h"
#include "core/transforms.h"
#include "imdb/imdb.h"
#include "pschema/pschema.h"
#include "schema_fuzzer.h"
#include "xml/parser.h"
#include "xschema/annotate.h"
#include "xschema/fingerprint.h"
#include "xschema/schema_parser.h"
#include "xschema/stats_collector.h"
#include "xschema/validator.h"

namespace legodb::ps {
namespace {

using xs::ParseSchema;
using xs::Schema;
using xs::Type;
using xs::TypePtr;

Schema S(const char* text) {
  auto schema = ParseSchema(text);
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return std::move(schema).value();
}

// ---- CheckPhysical ----

TEST(CheckPhysical, AcceptsStratifiedSchema) {
  Schema s = S("type A = a[ @k[ String ], x[ Integer ], B*, (C | D)? ] "
               "type B = b[ String ] type C = c[ String ] "
               "type D = d[ Integer ]");
  EXPECT_TRUE(CheckPhysical(s).ok());
}

TEST(CheckPhysical, RejectsRepetitionOverElements) {
  Schema s = S("type A = a[ b[ String ]* ]");
  EXPECT_FALSE(CheckPhysical(s).ok());
}

TEST(CheckPhysical, RejectsUnionOverElements) {
  Schema s = S("type A = a[ (b[ String ] | c[ String ]) ]");
  EXPECT_FALSE(CheckPhysical(s).ok());
}

TEST(CheckPhysical, AcceptsOptionalElementContent) {
  Schema s = S("type A = a[ (b[ String ], c[ Integer ])? ]");
  EXPECT_TRUE(CheckPhysical(s).ok());
}

TEST(CheckPhysical, RejectsImdbBeforeNormalization) {
  auto schema = imdb::Schema();
  ASSERT_TRUE(schema.ok());
  EXPECT_FALSE(CheckPhysical(schema.value()).ok());
}

// ---- Normalize ----

TEST(Normalize, OutlinesMultiValuedElements) {
  Schema s = S("type A = a[ b[ String ]* ]");
  Schema n = Normalize(s);
  EXPECT_TRUE(CheckPhysical(n).ok());
  EXPECT_TRUE(n.Has("B"));  // outlined type named after the element
  TypePtr body = n.Get("A");
  EXPECT_EQ(body->child->kind, Type::Kind::kRepetition);
  EXPECT_EQ(body->child->child->ref_name, "B");
}

TEST(Normalize, OutlinesUnionAlternatives) {
  Schema s = S("type A = a[ (b[ String ] | c[ String ]) ]");
  Schema n = Normalize(s);
  EXPECT_TRUE(CheckPhysical(n).ok());
  EXPECT_TRUE(n.Has("B"));
  EXPECT_TRUE(n.Has("C"));
}

TEST(Normalize, IsIdempotent) {
  Schema n1 = Normalize(*imdb::Schema());
  Schema n2 = Normalize(n1);
  EXPECT_EQ(n1.type_names(), n2.type_names());
  for (const auto& name : n1.type_names()) {
    EXPECT_TRUE(xs::TypeEquals(n1.Get(name), n2.Get(name))) << name;
  }
}

TEST(Normalize, PreservesDocumentValidity) {
  auto schema = *imdb::Schema();
  Schema normalized = Normalize(schema);
  imdb::ImdbScale scale;
  scale.shows = 10;
  scale.directors = 4;
  scale.actors = 5;
  xml::Document doc = imdb::Generate(scale);
  EXPECT_TRUE(xs::ValidateDocument(doc, schema).ok());
  EXPECT_TRUE(xs::ValidateDocument(doc, normalized).ok());
}

TEST(Normalize, FreshNamesAvoidCollisions) {
  Schema s = S("type A = a[ b[ String ]* ] type B = other[ Integer ]");
  Schema n = Normalize(s);
  EXPECT_TRUE(CheckPhysical(n).ok());
  // The existing B is untouched; the outlined b element gets B_2.
  EXPECT_EQ(n.Get("B")->name.name, "other");
  EXPECT_TRUE(n.Has("B_2"));
}

// ---- Initial configurations ----

TEST(AllOutlinedTest, EveryNestedElementBecomesAType) {
  Schema s = S("type A = a[ b[ c[ String ] ], d[ Integer ] ]");
  Schema out = AllOutlined(s);
  EXPECT_TRUE(CheckPhysical(out).ok());
  // b, c, d each get their own type.
  EXPECT_EQ(out.size(), 4u);
}

TEST(AllOutlinedTest, ImdbValidityPreserved) {
  Schema out = AllOutlined(*imdb::Schema());
  imdb::ImdbScale scale;
  scale.shows = 6;
  scale.directors = 2;
  scale.actors = 3;
  xml::Document doc = imdb::Generate(scale);
  EXPECT_TRUE(xs::ValidateDocument(doc, out).ok());
}

TEST(AllInlinedTest, CollapsesSingletonTypes) {
  Schema s = S("type A = a[ B, C* ] type B = b[ String ] type C = c[ Integer ]");
  Schema in = AllInlined(s);
  EXPECT_TRUE(CheckPhysical(in).ok());
  EXPECT_FALSE(in.Has("B"));  // singleton inlined
  EXPECT_TRUE(in.Has("C"));   // multi-valued must stay
}

TEST(AllInlinedTest, FlattensUnionsToOptions) {
  Schema in = AllInlined(*imdb::Schema());
  // Movie/TV content ends up as nullable inline content of Show.
  EXPECT_FALSE(in.Has("Movie"));
  EXPECT_FALSE(in.Has("TV"));
  std::string show = in.Get("Show")->ToString();
  EXPECT_NE(show.find("box_office"), std::string::npos);
  EXPECT_NE(show.find("seasons"), std::string::npos);
}

TEST(AllInlinedTest, KeepUnionsWhenAsked) {
  Schema in = AllInlined(*imdb::Schema(), /*flatten_unions=*/false);
  EXPECT_TRUE(CheckPhysical(in).ok());
  EXPECT_TRUE(in.Has("Movie"));
  EXPECT_TRUE(in.Has("TV"));
}

TEST(AllInlinedTest, RecursiveTypesSurvive) {
  Schema s = S("type N = n[ v[ Integer ], N* ]");
  Schema in = AllInlined(s);
  EXPECT_TRUE(CheckPhysical(in).ok());
  EXPECT_TRUE(in.Has("N"));
}

// ---- Node addressing ----

TEST(NodePathTest, NodeAtNavigates) {
  Schema s = S("type A = a[ b[ String ], c[ Integer ] ]");
  TypePtr body = s.Get("A");
  // body = element a; child = sequence; children[1] = element c.
  TypePtr c = NodeAt(body, {0, 1});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->name.name, "c");
  EXPECT_EQ(NodeAt(body, {0, 5}), nullptr);
  EXPECT_EQ(NodeAt(body, {}), body);
}

TEST(NodePathTest, ReplaceAtRebuildsSpine) {
  Schema s = S("type A = a[ b[ String ], c[ Integer ] ]");
  TypePtr body = s.Get("A");
  TypePtr replaced = ReplaceAt(body, {0, 1}, Type::Ref("C"));
  EXPECT_EQ(NodeAt(replaced, {0, 1})->kind, Type::Kind::kTypeRef);
  // Untouched siblings are shared, not copied.
  EXPECT_EQ(NodeAt(replaced, {0, 0}), NodeAt(body, {0, 0}));
}

// ---- Inline / outline primitives ----

TEST(OutlineAtTest, MovesElementToNewType) {
  Schema s = S("type A = a[ b[ String ], c[ Integer ] ]");
  std::string new_type;
  auto out = OutlineAt(s, "A", {0, 1}, &new_type);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(new_type, "C");
  EXPECT_EQ(NodeAt(out->Get("A"), {0, 1})->ref_name, "C");
  EXPECT_EQ(out->Get("C")->name.name, "c");
}

TEST(OutlineAtTest, RejectsBodyRootAndNonElements) {
  Schema s = S("type A = a[ b[ String ] ]");
  EXPECT_FALSE(OutlineAt(s, "A", {}).ok());       // body root
  EXPECT_FALSE(OutlineAt(s, "A", {0, 0}).ok());   // scalar node
  EXPECT_FALSE(OutlineAt(s, "Zzz", {0}).ok());    // unknown type
}

TEST(InlineTypeTest, ElidesSingletonType) {
  Schema s = S("type A = a[ B ] type B = b[ String ]");
  auto out = InlineType(s, "B");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out->Has("B"));
  EXPECT_EQ(NodeAt(out->Get("A"), {0})->name.name, "b");
}

TEST(InlineTypeTest, RefusesRoot) {
  Schema s = S("type A = a[ String ]");
  EXPECT_FALSE(InlineType(s, "A").ok());
}

TEST(InlineTypeTest, RefusesShared) {
  Schema s = S("type A = a[ B, c[ B ] ] type B = b[ String ]");
  EXPECT_FALSE(InlineType(s, "B").ok());
}

TEST(InlineTypeTest, RefusesMultiValuedPosition) {
  Schema s = S("type A = a[ B* ] type B = b[ String ]");
  EXPECT_FALSE(InlineType(s, "B").ok());
}

TEST(InlineTypeTest, RefusesUnionAlternative) {
  Schema s = S("type A = a[ (B | C) ] type B = b[ String ] "
               "type C = c[ String ]");
  EXPECT_FALSE(InlineType(s, "B").ok());
}

TEST(InlineTypeTest, RefusesRecursive) {
  Schema s = S("type A = a[ B? ] type B = b[ B? ]");
  EXPECT_FALSE(InlineType(s, "B").ok());
}

TEST(InlineTypeTest, AllowsOptionalPosition) {
  Schema s = S("type A = a[ B? ] type B = b[ String ]");
  auto out = InlineType(s, "B");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(CheckPhysical(out.value()).ok());
}

TEST(InlineOutline, AreInverse) {
  Schema s = Normalize(S("type A = a[ b[ String ], c[ Integer ] ]"));
  std::string new_type;
  Schema outlined = *OutlineAt(s, "A", {0, 1}, &new_type);
  Schema back = *InlineType(outlined, new_type);
  EXPECT_TRUE(xs::TypeEquals(back.Get("A"), s.Get("A")));
}

TEST(Candidates, OutlineEnumerationCoversNestedElements) {
  Schema s = Normalize(S("type A = a[ b[ c[ String ] ] ]"));
  auto candidates = EnumerateOutlineCandidates(s);
  // b and c (not the root element a).
  EXPECT_EQ(candidates.size(), 2u);
}

TEST(Candidates, InlineEnumerationRespectsConstraints) {
  Schema s = S("type A = a[ B, C*, (D | E) ] type B = b[ String ] "
               "type C = c[ String ] type D = d[ String ] "
               "type E = e[ String ]");
  auto candidates = EnumerateInlineCandidates(s);
  EXPECT_EQ(candidates, (std::vector<std::string>{"B"}));
}

TEST(Candidates, MoveSetsShrinkToFixpoint) {
  // Applying all inline candidates repeatedly terminates.
  Schema s = AllOutlined(*imdb::Schema());
  int steps = 0;
  while (true) {
    auto candidates = EnumerateInlineCandidates(s);
    if (candidates.empty()) break;
    auto next = InlineType(s, candidates[0]);
    ASSERT_TRUE(next.ok());
    s = std::move(next).value();
    ASSERT_LT(++steps, 200);
  }
  EXPECT_GT(steps, 5);
  EXPECT_TRUE(CheckPhysical(s).ok());
}

// ---- The type table against name resolution ----

// The index of the type named `name` by a scan of the declarations, or -1.
int ScanIndex(const Schema& s, const std::string& name) {
  const std::vector<std::string> names = s.type_names();
  auto it = std::find(names.begin(), names.end(), name);
  return it == names.end() ? -1 : static_cast<int>(it - names.begin());
}

// The names the type references in `t` name, in pre-order.
void RefNames(const TypePtr& t, std::vector<std::string>* out) {
  if (t->kind == Type::Kind::kTypeRef) out->push_back(t->ref_name);
  if (t->child) RefNames(t->child, out);
  for (const auto& c : t->children) RefNames(c, out);
}

std::vector<std::string> RefNamesOf(const Schema& s, const std::string& n) {
  std::vector<std::string> refs;
  RefNames(s.body(ScanIndex(s, n)), &refs);
  return refs;
}

// The reachability walk over names that the type table replaced.
std::vector<std::string> ReachableByName(const Schema& s) {
  std::vector<std::string> order;
  std::set<std::string> visited;
  std::function<void(const std::string&)> visit = [&](const std::string& n) {
    if (!visited.insert(n).second || ScanIndex(s, n) < 0) return;
    order.push_back(n);
    for (const auto& ref : RefNamesOf(s, n)) visit(ref);
  };
  if (!s.root_type().empty()) visit(s.root_type());
  return order;
}

// The recursion test over names that the type table replaced.
bool IsRecursiveByName(const Schema& s, const std::string& name) {
  std::set<std::string> visited;
  std::function<bool(const std::string&)> visit =
      [&](const std::string& n) -> bool {
    if (ScanIndex(s, n) < 0) return false;
    for (const auto& ref : RefNamesOf(s, n)) {
      if (ref == name) return true;
      if (visited.insert(ref).second && visit(ref)) return true;
    }
    return false;
  };
  return visit(name);
}

// Every configuration the search can start from or move to in one step,
// over IMDB, the auction schema and generated schemas, with all rewritings
// on: each type's resolved references, the reachability order and the
// recursion test agree with resolving names, and the configurations print,
// list their types and fingerprint as recorded.
TEST(TypeTable, AgreesWithNameResolutionOverSearchMoves) {
  core::TransformOptions moves;
  moves.union_distribute = true;
  moves.union_to_options = true;
  moves.repetition_split = true;
  moves.repetition_merge = true;
  moves.wildcard_materialize = true;
  moves.wildcard_tags = {"nyt", "text"};
  xs::StatsCollector collector;
  collector.AddDocument(auction::Generate(auction::AuctionScale{}));
  std::vector<Schema> schemas{
      xs::AnnotateSchema(*imdb::Schema(), *imdb::Stats()),
      xs::AnnotateSchema(*auction::Schema(), collector.Finish())};
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    schemas.push_back(SchemaFuzzer(seed).Generate());
  }
  uint64_t digest = 0;
  int configs = 0;
  for (const Schema& schema : schemas) {
    for (const Schema& start :
         {Normalize(schema), AllInlined(schema), AllOutlined(schema)}) {
      std::vector<Schema> candidates{start};
      for (const auto& t : core::EnumerateTransformations(start, moves)) {
        auto next = core::ApplyTransformation(start, t);
        if (next.ok()) candidates.push_back(std::move(next).value());
      }
      for (const Schema& config : candidates) {
        ++configs;
        const std::vector<std::string> names = config.type_names();
        for (int i = 0; i < static_cast<int>(config.size()); ++i) {
          ASSERT_EQ(config.body_fingerprint(i),
                    xs::FingerprintType(config.body(i)))
              << names[i];
          std::vector<int> resolved;
          for (const auto& ref : RefNamesOf(config, names[i])) {
            resolved.push_back(ScanIndex(config, ref));
          }
          ASSERT_EQ(config.refs(i), resolved) << names[i];
          ASSERT_EQ(config.IsRecursive(i), IsRecursiveByName(config, names[i]))
              << names[i];
        }
        std::vector<std::string> reachable;
        for (int i : config.ReachableFromRoot()) reachable.push_back(names[i]);
        ASSERT_EQ(reachable, ReachableByName(config));
        ASSERT_EQ(config.root(), ScanIndex(config, config.root_type()));
        std::vector<std::string> sorted;
        for (int i : config.name_order()) sorted.push_back(names[i]);
        ASSERT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
        ASSERT_EQ(sorted.size(), names.size());

        digest = common::HashCombine(digest,
                                     common::HashString(config.ToString()));
        for (const auto& name : names) {
          digest = common::HashCombine(digest, common::HashString(name));
        }
        digest = common::HashCombine(digest, xs::FingerprintSchema(config));
      }
    }
  }
  EXPECT_EQ(configs, 629);
  EXPECT_EQ(digest, 0xc473b7bf7762df38ull);
}

// ---- Normalize shares what a move leaves alone ----

// The inner (non-leaf) nodes of every body of `s`, repeats included.
std::vector<const Type*> InnerNodesOf(const Schema& s) {
  std::vector<const Type*> nodes;
  std::function<void(const Type&)> walk = [&](const Type& t) {
    if (!t.child && t.children.empty()) return;
    nodes.push_back(&t);
    if (t.child) walk(*t.child);
    for (const auto& c : t.children) walk(*c);
  };
  for (int i = 0; i < static_cast<int>(s.size()); ++i) walk(*s.body(i));
  return nodes;
}

// True when no inner node sits at two positions of `s`.
bool NoSharedInnerNodes(const Schema& s) {
  std::vector<const Type*> nodes = InnerNodesOf(s);
  std::sort(nodes.begin(), nodes.end());
  return std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end();
}

// Every single move from the IMDB and auction starts, all rewritings on:
// a type whose body the move did not rewrite (its body equals the
// parent's) keeps the parent's body node, and no inner node sits at two
// positions of the result.
TEST(NormalizeSharing, MovesKeepUntouchedBodies) {
  core::TransformOptions moves;
  moves.union_distribute = true;
  moves.union_to_options = true;
  moves.repetition_split = true;
  moves.repetition_merge = true;
  moves.wildcard_materialize = true;
  moves.wildcard_tags = {"nyt", "text"};
  xs::StatsCollector collector;
  collector.AddDocument(auction::Generate(auction::AuctionScale{}));
  const std::vector<Schema> schemas{
      xs::AnnotateSchema(*imdb::Schema(), *imdb::Stats()),
      xs::AnnotateSchema(*auction::Schema(), collector.Finish())};
  int checked = 0;
  int kept = 0;
  for (const Schema& schema : schemas) {
    for (const Schema& start :
         {Normalize(schema), AllInlined(schema), AllOutlined(schema)}) {
      ASSERT_TRUE(NoSharedInnerNodes(start));
      for (const auto& t : core::EnumerateTransformations(start, moves)) {
        auto next = core::ApplyTransformation(start, t);
        if (!next.ok()) continue;
        ++checked;
        const std::string move = t.Signature();
        ASSERT_TRUE(NoSharedInnerNodes(*next)) << move;
        for (int i = 0; i < static_cast<int>(next->size()); ++i) {
          const int before = start.IndexOf(next->name(i));
          if (before < 0 ||
              !xs::TypeEquals(next->body(i), start.body(before))) {
            continue;
          }
          ASSERT_EQ(next->body(i), start.body(before))
              << move << " rebuilt " << next->name(i);
          ++kept;
        }
      }
    }
  }
  EXPECT_GT(checked, 100);
  EXPECT_GT(kept, 10 * checked);
}

// DisambiguateRepeatedRefs gives an alias its own copy of the target's
// body: equal structure, no shared inner node.
TEST(NormalizeSharing, AliasesOwnTheirBodies) {
  Schema s = Normalize(S("type A = a[ B, c[ B* ] ] "
                         "type B = b[ d[ String ], e[ Integer ] ]"));
  ASSERT_EQ(s.size(), 3u) << s.ToString();
  const int target = s.IndexOf("B");
  const int alias = s.IndexOf("B_2");
  ASSERT_GE(target, 0);
  ASSERT_GE(alias, 0) << s.ToString();
  EXPECT_TRUE(xs::TypeEquals(s.body(target), s.body(alias)));
  EXPECT_TRUE(NoSharedInnerNodes(s));
  // Normalizing again rewrites nothing.
  Schema again = Normalize(s);
  for (int i = 0; i < static_cast<int>(s.size()); ++i) {
    EXPECT_EQ(again.body(i), s.body(i)) << s.name(i);
  }
}

// An input whose types share a subtree is normalized into one that does
// not: the later type gets a copy.
TEST(NormalizeSharing, SharedInputSubtreesAreCopied) {
  TypePtr shared = Type::Element("x", Type::String());
  Schema s;
  s.Define("A", Type::Element("a", Type::Sequence({shared, Type::Ref("B")})));
  s.Define("B", Type::Element("b", shared));
  ASSERT_FALSE(NoSharedInnerNodes(s));
  Schema n = Normalize(s);
  EXPECT_TRUE(NoSharedInnerNodes(n));
  EXPECT_EQ(n.body(0), s.body(0));
  EXPECT_EQ(n.ToString(), s.ToString());
  EXPECT_EQ(n.body_fingerprint(1), xs::FingerprintType(n.body(1)));
}

}  // namespace
}  // namespace legodb::ps
