// Random schema and document generator shared by the property tests. The
// generator produces locally unambiguous content models (distinct element
// names per container, so a sequence references each type at most once),
// matching the shredder's greedy matching contract, and acyclic type graphs
// (type i references only types > i), so generated documents are finite.
// Up to six types, so non-root types, too, can hold a union of two refs
// (where union distribution applies).
#ifndef LEGODB_TESTS_SCHEMA_FUZZER_H_
#define LEGODB_TESTS_SCHEMA_FUZZER_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "xml/dom.h"
#include "xschema/schema.h"

namespace legodb {

class SchemaFuzzer {
 public:
  explicit SchemaFuzzer(uint64_t seed) : rng_(seed) {}

  xs::Schema Generate() {
    xs::Schema schema;
    int n_types = 1 + static_cast<int>(rng_.Uniform(6));
    // Define leaf-most types first; type i may reference types > i only
    // (guarantees finite documents).
    std::vector<std::string> names;
    for (int i = n_types - 1; i >= 0; --i) {
      std::string name = "T" + std::to_string(i);
      std::vector<std::string> refs = names;  // already-defined types
      xs::TypePtr body =
          xs::Type::Element(FreshName(), GenContent(2, refs, /*top=*/true));
      schema.Define(name, body);
      names.push_back(name);
    }
    // The last defined type is the most "root-like"; make it the root.
    schema.set_root_type("T0");
    // Drop unreachable definitions so every type participates.
    schema.GarbageCollect();
    return schema;
  }

  // Generates a document valid under `schema` by construction.
  xml::Document GenerateDocument(const xs::Schema& schema) {
    xs::TypePtr body = schema.Get(schema.root_type());
    xml::Document doc;
    xml::Node* holder = doc.CreateRoot("__holder__");
    EmitType(schema, body, holder, 0);
    EXPECT_EQ(holder->children().size(), 1u);
    if (!holder->children().empty()) doc.SetRoot(holder->children()[0]);
    return doc;
  }

 private:
  std::string FreshName() {
    return "e" + std::to_string(name_counter_++);
  }

  xs::TypePtr GenContent(int depth, const std::vector<std::string>& refs,
                     bool top) {
    // Sequences of distinct items; depth bounds nesting. A referenced type
    // is no longer available to the rest of the sequence.
    int n_items = 1 + static_cast<int>(rng_.Uniform(top ? 4 : 3));
    std::vector<std::string> unused = refs;
    std::vector<xs::TypePtr> items;
    for (int i = 0; i < n_items; ++i) {
      items.push_back(GenItem(depth, &unused));
    }
    return xs::Type::Sequence(std::move(items));
  }

  // Removes and returns a random entry of `refs` (which is non-empty).
  std::string TakeRef(std::vector<std::string>* refs) {
    auto it =
        refs->begin() + static_cast<ptrdiff_t>(rng_.Uniform(refs->size()));
    std::string ref = std::move(*it);
    refs->erase(it);
    return ref;
  }

  xs::TypePtr GenItem(int depth, std::vector<std::string>* refs) {
    uint64_t pick = rng_.Uniform(10);
    if (pick < 3 || depth == 0) {  // scalar element
      return xs::Type::Element(FreshName(), GenScalar());
    }
    if (pick < 4) {  // attribute
      return xs::Type::Attribute("a" + std::to_string(name_counter_++),
                             GenScalar());
    }
    if (pick < 5) {  // optional element
      return xs::Type::Optional(xs::Type::Element(FreshName(), GenScalar()));
    }
    if (pick < 6) {  // nested structure
      return xs::Type::Element(FreshName(),
                               GenContent(depth - 1, *refs, false));
    }
    if (pick < 7) {  // wildcard element
      return xs::Type::Element(xs::NameClass::Any(), GenScalar());
    }
    // A repetition of one type ref, or (pick 8-9) a union of two.
    if (refs->size() == 1 || (pick < 8 && !refs->empty())) {
      std::string ref = TakeRef(refs);
      uint32_t min = static_cast<uint32_t>(rng_.Uniform(2));
      uint32_t max = min + 1 + static_cast<uint32_t>(rng_.Uniform(3));
      return xs::Type::Repetition(xs::Type::Ref(std::move(ref)), min, max);
    }
    if (refs->size() >= 2) {  // union of two distinct refs
      std::string first = TakeRef(refs);
      return xs::Type::Union(
          {xs::Type::Ref(std::move(first)), xs::Type::Ref(TakeRef(refs))});
    }
    return xs::Type::Element(FreshName(), GenScalar());
  }

  xs::TypePtr GenScalar() {
    return rng_.Bernoulli(0.5) ? xs::Type::String() : xs::Type::Integer();
  }

  // Emits one instance of `t` into `parent`.
  void EmitType(const xs::Schema& schema, const xs::TypePtr& t, xml::Node* parent,
                int depth) {
    if (depth > 24) return;
    switch (t->kind) {
      case xs::Type::Kind::kEmpty:
        return;
      case xs::Type::Kind::kScalar:
        parent->AddText(t->scalar_kind == xs::ScalarKind::kInteger
                            ? std::to_string(rng_.UniformInt(0, 999))
                            : "s" + rng_.RandomString(4));
        return;
      case xs::Type::Kind::kElement: {
        std::string tag;
        switch (t->name.kind) {
          case xs::NameClass::Kind::kLiteral:
            tag = t->name.name;
            break;
          case xs::NameClass::Kind::kAny:
            tag = "w" + rng_.RandomString(3);
            break;
          case xs::NameClass::Kind::kAnyExcept:
            tag = t->name.name + "x";
            break;
        }
        xml::Node* elem = parent->AddElement(tag);
        EmitType(schema, t->child, elem, depth + 1);
        return;
      }
      case xs::Type::Kind::kAttribute:
        parent->SetAttribute(t->name.name,
                             std::to_string(rng_.UniformInt(0, 99)));
        return;
      case xs::Type::Kind::kSequence:
        for (const auto& c : t->children) {
          EmitType(schema, c, parent, depth + 1);
        }
        return;
      case xs::Type::Kind::kUnion: {
        size_t pick = rng_.Uniform(t->children.size());
        EmitType(schema, t->children[pick], parent, depth + 1);
        return;
      }
      case xs::Type::Kind::kRepetition: {
        uint32_t span = t->max_occurs == xs::kUnbounded
                            ? 3
                            : t->max_occurs - t->min_occurs;
        uint32_t count =
            t->min_occurs + static_cast<uint32_t>(rng_.Uniform(span + 1));
        for (uint32_t i = 0; i < count; ++i) {
          EmitType(schema, t->child, parent, depth + 1);
        }
        return;
      }
      case xs::Type::Kind::kTypeRef:
        EmitType(schema, schema.Get(t->ref_name), parent, depth + 1);
        return;
    }
  }

  Rng rng_;
  int name_counter_ = 0;
};

}  // namespace legodb

#endif  // LEGODB_TESTS_SCHEMA_FUZZER_H_
