#include "xschema/validator.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/str_util.h"

namespace legodb::xs {
namespace {

// A match state: how many content items are consumed and which attributes of
// the enclosing element have been matched so far.
struct State {
  size_t pos;
  std::set<std::string> attrs;

  auto operator<=>(const State&) const = default;
};

class Matcher {
 public:
  explicit Matcher(const Schema& schema) : schema_(schema) {}

  // Validates `element`'s attributes and content against content type `t`.
  bool ValidateElementContent(const xml::Node& element, const TypePtr& t) {
    const std::vector<const xml::Node*> items(element.children().begin(),
                                              element.children().end());

    std::vector<State> finals =
        Match(t, items, element, {State{0, {}}}, /*depth=*/0);
    for (const State& s : finals) {
      if (s.pos != items.size()) continue;
      // Every attribute present on the element must have been matched.
      const auto attributes = element.attributes();
      if (std::all_of(attributes.begin(), attributes.end(),
                      [&](const xml::Attribute& a) {
                        return s.attrs.count(std::string(a.name)) > 0;
                      })) {
        return true;
      }
    }
    return false;
  }

  // True if `element` (as a whole) matches type `t`: t must denote (possibly
  // through refs / unions) an element type whose name class matches and whose
  // content validates.
  bool ValidateWholeElement(const xml::Node& element, TypePtr t, int depth) {
    if (!t || depth > 64) return false;
    switch (t->kind) {
      case Type::Kind::kTypeRef:
        return ValidateWholeElement(element, schema_.Find(t->ref_name),
                                    depth + 1);
      case Type::Kind::kUnion:
        for (const auto& alt : t->children) {
          if (ValidateWholeElement(element, alt, depth + 1)) return true;
        }
        return false;
      case Type::Kind::kElement:
        return t->name.Matches(element.name()) &&
               ValidateElementContent(element, t->child);
      default:
        return false;
    }
  }

 private:
  static void Dedup(std::vector<State>* states) {
    std::sort(states->begin(), states->end());
    states->erase(std::unique(states->begin(), states->end()), states->end());
  }

  // Returns all states reachable from `starts` by matching `t`.
  std::vector<State> Match(const TypePtr& t,
                           const std::vector<const xml::Node*>& items,
                           const xml::Node& parent, std::vector<State> starts,
                           int depth) {
    if (!t || depth > 512) return {};
    std::vector<State> out;
    switch (t->kind) {
      case Type::Kind::kEmpty:
        return starts;
      case Type::Kind::kScalar: {
        for (State& s : starts) {
          // A scalar consumes one text item; String may also match empty
          // content (zero items).
          if (s.pos < items.size() && items[s.pos]->is_text()) {
            const std::string_view text = items[s.pos]->text();
            if (t->scalar_kind == ScalarKind::kString ||
                IsInteger(StrTrim(text))) {
              out.push_back(State{s.pos + 1, s.attrs});
            }
          }
          if (t->scalar_kind == ScalarKind::kString) {
            out.push_back(s);  // epsilon: empty string content
          }
        }
        break;
      }
      case Type::Kind::kElement: {
        for (State& s : starts) {
          if (s.pos >= items.size()) continue;
          const xml::Node* item = items[s.pos];
          if (!item->is_element() || !t->name.Matches(item->name())) continue;
          Matcher inner(schema_);
          if (inner.ValidateElementContent(*item, t->child)) {
            out.push_back(State{s.pos + 1, s.attrs});
          }
        }
        break;
      }
      case Type::Kind::kAttribute: {
        const std::string& attr_name = t->name.name;
        const std::string_view* value = parent.FindAttribute(attr_name);
        if (value == nullptr) break;
        if (t->child && t->child->kind == Type::Kind::kScalar &&
            t->child->scalar_kind == ScalarKind::kInteger &&
            !IsInteger(StrTrim(*value))) {
          break;
        }
        for (State& s : starts) {
          State next = s;
          next.attrs.insert(attr_name);
          out.push_back(std::move(next));
        }
        break;
      }
      case Type::Kind::kSequence: {
        out = std::move(starts);
        for (const auto& item : t->children) {
          out = Match(item, items, parent, std::move(out), depth + 1);
          if (out.empty()) break;
        }
        return out;
      }
      case Type::Kind::kUnion: {
        for (const auto& alt : t->children) {
          std::vector<State> r = Match(alt, items, parent, starts, depth + 1);
          out.insert(out.end(), r.begin(), r.end());
        }
        break;
      }
      case Type::Kind::kRepetition: {
        // Iterative expansion; states that make no progress in an iteration
        // are dropped so unbounded repetition of nullable bodies terminates.
        std::vector<State> current = starts;
        std::vector<State> all;
        if (t->min_occurs == 0) all = starts;
        uint32_t iter = 0;
        uint32_t limit = t->max_occurs == kUnbounded
                             ? static_cast<uint32_t>(items.size()) + 1
                             : t->max_occurs;
        while (iter < limit && !current.empty()) {
          std::vector<State> next =
              Match(t->child, items, parent, current, depth + 1);
          std::vector<State> progressed;
          for (State& s : next) {
            if (std::find(current.begin(), current.end(), s) ==
                current.end()) {
              progressed.push_back(std::move(s));
            }
          }
          ++iter;
          if (iter >= t->min_occurs) {
            all.insert(all.end(), progressed.begin(), progressed.end());
          }
          current = std::move(progressed);
          Dedup(&current);
        }
        out = std::move(all);
        break;
      }
      case Type::Kind::kTypeRef:
        // An undefined name matches nothing.
        out = Match(schema_.Find(t->ref_name), items, parent,
                    std::move(starts), depth + 1);
        break;
    }
    Dedup(&out);
    return out;
  }

  const Schema& schema_;
};

}  // namespace

Status ValidateElement(const xml::Node& element, const Schema& schema,
                       const std::string& type_name) {
  TypePtr t = schema.Find(type_name);
  if (!t) {
    return Status::NotFound("type '" + type_name + "' not in schema");
  }
  Matcher matcher(schema);
  if (matcher.ValidateWholeElement(element, t, 0)) {
    return Status::OK();
  }
  return Status::InvalidArgument("element <" + std::string(element.name()) +
                                 "> does not match type '" + type_name + "'");
}

Status ValidateDocument(const xml::Document& doc, const Schema& schema) {
  if (!doc.root) return Status::InvalidArgument("document has no root");
  LEGODB_RETURN_IF_ERROR(schema.Validate());
  return ValidateElement(*doc.root, schema, schema.root_type());
}

}  // namespace legodb::xs
