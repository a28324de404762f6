#include "xschema/type.h"

#include <algorithm>

namespace legodb::xs {

bool NameClass::Matches(std::string_view tag) const {
  switch (kind) {
    case Kind::kLiteral:
      return tag == name;
    case Kind::kAny:
      return true;
    case Kind::kAnyExcept:
      return tag != name;
  }
  return false;
}

std::string NameClass::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return name;
    case Kind::kAny:
      return "~";
    case Kind::kAnyExcept:
      return "~!" + name;
  }
  return "";
}

namespace {
std::shared_ptr<Type> NewType(Type::Kind kind) {
  auto t = std::make_shared<Type>();
  t->kind = kind;
  return t;
}

// A sequence or union of `items`, nested ones of the same kind spliced in
// (and empties dropped from a sequence); Empty() for none, the item for one.
TypePtr Flatten(Type::Kind kind, std::vector<TypePtr> items) {
  std::vector<TypePtr> flat;
  for (auto& item : items) {
    if (!item || (kind == Type::Kind::kSequence &&
                  item->kind == Type::Kind::kEmpty)) {
      continue;
    }
    if (item->kind == kind) {
      flat.insert(flat.end(), item->children.begin(), item->children.end());
    } else {
      flat.push_back(std::move(item));
    }
  }
  if (flat.empty()) return Type::Empty();
  if (flat.size() == 1) return flat[0];
  auto t = NewType(kind);
  t->children = std::move(flat);
  return t;
}
}  // namespace

TypePtr Type::Empty() {
  static const TypePtr kEmptyType = NewType(Kind::kEmpty);
  return kEmptyType;
}

TypePtr Type::Scalar(ScalarKind kind, ScalarStats stats) {
  auto t = NewType(Kind::kScalar);
  t->scalar_kind = kind;
  if (stats.size == 0) {
    stats.size = kind == ScalarKind::kInteger ? 4 : 20;
  }
  t->scalar_stats = stats;
  return t;
}

TypePtr Type::String(ScalarStats stats) {
  return Scalar(ScalarKind::kString, stats);
}

TypePtr Type::Integer(ScalarStats stats) {
  return Scalar(ScalarKind::kInteger, stats);
}

TypePtr Type::Element(NameClass name, TypePtr content) {
  auto t = NewType(Kind::kElement);
  t->name = std::move(name);
  t->child = content ? std::move(content) : Empty();
  return t;
}

TypePtr Type::Element(const std::string& name, TypePtr content) {
  return Element(NameClass::Literal(name), std::move(content));
}

TypePtr Type::Attribute(std::string name, TypePtr content) {
  auto t = NewType(Kind::kAttribute);
  t->name = NameClass::Literal(std::move(name));
  t->child = content ? std::move(content) : String();
  return t;
}

TypePtr Type::Sequence(std::vector<TypePtr> items) {
  return Flatten(Kind::kSequence, std::move(items));
}

TypePtr Type::Union(std::vector<TypePtr> alternatives) {
  return Flatten(Kind::kUnion, std::move(alternatives));
}

TypePtr Type::Repetition(TypePtr item, uint32_t min, uint32_t max,
                         double avg_count) {
  if (min == 1 && max == 1) return item;
  auto t = NewType(Kind::kRepetition);
  t->child = std::move(item);
  t->min_occurs = min;
  t->max_occurs = max;
  t->avg_count = avg_count;
  return t;
}

TypePtr Type::Optional(TypePtr item) {
  return Repetition(std::move(item), 0, 1);
}

TypePtr Type::Ref(std::string type_name) {
  return RefWeighted(std::move(type_name), 0);
}

TypePtr Type::RefWeighted(std::string type_name, double weight) {
  auto t = NewType(Kind::kTypeRef);
  t->ref_name = std::move(type_name);
  t->ref_weight = weight;
  return t;
}

double Type::ExpectedCount() const {
  if (kind != Kind::kRepetition) return 1;
  if (avg_count > 0) return avg_count;
  if (max_occurs == kUnbounded) {
    return std::max<double>(min_occurs, kDefaultUnboundedCount);
  }
  return (static_cast<double>(min_occurs) + max_occurs) / 2.0;
}

namespace {

std::string ScalarToString(const Type& t) {
  std::string out =
      t.scalar_kind == ScalarKind::kInteger ? "Integer" : "String";
  const ScalarStats& s = t.scalar_stats;
  if (s.distincts > 0 || s.min != 0 || s.max != 0) {
    out += "<#" + std::to_string(static_cast<int64_t>(s.size));
    if (t.scalar_kind == ScalarKind::kInteger) {
      out += ",#" + std::to_string(s.min) + ",#" + std::to_string(s.max);
    }
    out += ",#" + std::to_string(s.distincts) + ">";
  }
  return out;
}

std::string OccursToString(const Type& t) {
  std::string suffix;
  if (t.min_occurs == 0 && t.max_occurs == 1) {
    suffix = "?";
  } else if (t.min_occurs == 0 && t.max_occurs == kUnbounded) {
    suffix = "*";
  } else if (t.min_occurs == 1 && t.max_occurs == kUnbounded) {
    suffix = "+";
  } else {
    suffix = "{" + std::to_string(t.min_occurs) + "," +
             (t.max_occurs == kUnbounded ? std::string("*")
                                         : std::to_string(t.max_occurs)) +
             "}";
  }
  if (t.avg_count > 0) {
    suffix += "<#" + std::to_string(static_cast<int64_t>(t.avg_count)) + ">";
  }
  return suffix;
}

// `parenthesize_seq` guards sequence children inside unions/repetitions.
std::string ToStringImpl(const Type& t, bool parenthesize) {
  switch (t.kind) {
    case Type::Kind::kEmpty:
      return "()";
    case Type::Kind::kScalar:
      return ScalarToString(t);
    case Type::Kind::kElement:
      return t.name.ToString() + "[ " + ToStringImpl(*t.child, false) + " ]";
    case Type::Kind::kAttribute:
      return "@" + t.name.ToString() + "[ " + ToStringImpl(*t.child, false) +
             " ]";
    case Type::Kind::kSequence: {
      std::string out;
      for (size_t i = 0; i < t.children.size(); ++i) {
        if (i > 0) out += ", ";
        out += ToStringImpl(*t.children[i], true);
      }
      return parenthesize ? "(" + out + ")" : out;
    }
    case Type::Kind::kUnion: {
      std::string out;
      for (size_t i = 0; i < t.children.size(); ++i) {
        if (i > 0) out += " | ";
        out += ToStringImpl(*t.children[i], true);
      }
      return "(" + out + ")";
    }
    case Type::Kind::kRepetition: {
      std::string inner = ToStringImpl(*t.child, true);
      return inner + OccursToString(t);
    }
    case Type::Kind::kTypeRef:
      return t.ref_name;
  }
  return "?";
}

bool EqualsImpl(const TypePtr& a, const TypePtr& b, bool with_stats) {
  if (a == b) return true;
  if (!a || !b) return false;
  if (a->kind != b->kind) return false;
  switch (a->kind) {
    case Type::Kind::kEmpty:
      return true;
    case Type::Kind::kScalar:
      if (a->scalar_kind != b->scalar_kind) return false;
      return !with_stats || a->scalar_stats == b->scalar_stats;
    case Type::Kind::kElement:
    case Type::Kind::kAttribute:
      return a->name == b->name && EqualsImpl(a->child, b->child, with_stats);
    case Type::Kind::kSequence:
    case Type::Kind::kUnion: {
      if (a->children.size() != b->children.size()) return false;
      for (size_t i = 0; i < a->children.size(); ++i) {
        if (!EqualsImpl(a->children[i], b->children[i], with_stats)) {
          return false;
        }
      }
      return true;
    }
    case Type::Kind::kRepetition:
      if (a->min_occurs != b->min_occurs || a->max_occurs != b->max_occurs) {
        return false;
      }
      if (with_stats && a->avg_count != b->avg_count) return false;
      return EqualsImpl(a->child, b->child, with_stats);
    case Type::Kind::kTypeRef:
      if (a->ref_name != b->ref_name) return false;
      return !with_stats || a->ref_weight == b->ref_weight;
  }
  return false;
}

}  // namespace

std::string Type::ToString() const { return ToStringImpl(*this, false); }

bool TypeEquals(const TypePtr& a, const TypePtr& b) {
  return EqualsImpl(a, b, /*with_stats=*/true);
}

bool TypeEqualsIgnoringStats(const TypePtr& a, const TypePtr& b) {
  return EqualsImpl(a, b, /*with_stats=*/false);
}

}  // namespace legodb::xs
