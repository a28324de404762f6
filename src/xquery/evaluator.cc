#include "xquery/evaluator.h"

#include <cstdlib>
#include <functional>
#include <unordered_map>

#include "common/str_util.h"
#include "xml/writer.h"

namespace legodb::xq {
namespace {

// A path match: an element node, or an attribute value.
struct Item {
  const xml::Node* node = nullptr;
  Value attr_value;
  bool is_attr = false;

  Value ToValue() const {
    if (is_attr) return attr_value;
    // The common case, one text child, needs no concatenated copy.
    const auto children = node->children();
    if (children.size() == 1 && children[0]->is_text()) {
      return CanonicalValue(children[0]->text());
    }
    return CanonicalValue(node->TextContent());
  }
};

using Env = std::map<std::string, const xml::Node*>;

class Evaluator {
 public:
  Evaluator(const xml::Document& doc,
            const std::map<std::string, Value>& params)
      : doc_(doc), params_(params) {}

  StatusOr<ResultSet> Run(const Query& query) {
    ResultSet result;
    result.labels = QueryLabels(query);
    Env env;
    Status st = EvalQuery(query, env, &result.rows);
    if (!st.ok()) return st;
    return result;
  }

 private:
  Status EvalQuery(const Query& q, const Env& outer,
                   std::vector<std::vector<Value>>* out) {
    return EvalFors(q, 0, outer, out);
  }

  Status EvalFors(const Query& q, size_t idx, const Env& env,
                  std::vector<std::vector<Value>>* out) {
    if (idx == q.fors.size()) {
      LEGODB_ASSIGN_OR_RETURN(bool pass, EvalWhere(q, env));
      if (!pass) return Status::OK();
      return EvalReturn(q, env, out);
    }
    const ForBinding& b = q.fors[idx];
    std::vector<Item> items;
    if (b.from_document) {
      if (!doc_.root) return Status::OK();
      // First step names the root element itself.
      std::vector<Item> current;
      if (!b.steps.empty() && doc_.root->name() == b.steps[0]) {
        current.push_back(Item{doc_.root.get(), {}, false});
        for (size_t i = 1; i < b.steps.size(); ++i) {
          current = Step(current, b.steps[i]);
        }
        items = std::move(current);
      }
    } else {
      auto it = env.find(b.source_var);
      if (it == env.end()) {
        return Status::InvalidArgument("unbound variable $" + b.source_var);
      }
      std::vector<Item> current = {Item{it->second, {}, false}};
      for (const auto& step : b.steps) current = Step(current, step);
      items = std::move(current);
    }
    for (const Item& item : items) {
      if (item.is_attr) continue;  // cannot bind a variable to an attribute
      Env next = env;
      next[b.var] = item.node;
      LEGODB_RETURN_IF_ERROR(EvalFors(q, idx + 1, next, out));
    }
    return Status::OK();
  }

  std::vector<Item> Step(const std::vector<Item>& items,
                         const std::string& step) {
    std::vector<Item> next;
    bool want_attr = StartsWith(step, "@");
    std::string_view name = want_attr ? std::string_view(step).substr(1)
                                      : std::string_view(step);
    // Every item is a node of doc_, so one lookup names the step's id.
    const xml::NameId id = doc_.FindName(name);
    for (const Item& item : items) {
      if (item.is_attr || item.node == nullptr) continue;
      if (!want_attr && id != xml::kNoName) {
        size_t before = next.size();
        for (const xml::Node* child : item.node->children()) {
          if (child->name_id() == id) {
            next.push_back(Item{child, {}, false});
          }
        }
        if (next.size() > before) continue;
      }
      // Attribute access (explicit @name or fallback for plain names).
      if (const std::string_view* v = item.node->FindAttribute(name)) {
        next.push_back(Item{nullptr, CanonicalValue(*v), true});
      }
    }
    return next;
  }

  std::vector<Item> EvalPath(const Env& env, const PathExpr& p) {
    auto it = env.find(p.var);
    if (it == env.end()) return {};
    std::vector<Item> items = {Item{it->second, {}, false}};
    for (const auto& step : p.steps) items = Step(items, step);
    return items;
  }

  StatusOr<Value> ResolveConstant(const Constant& c) {
    switch (c.kind) {
      case Constant::Kind::kInt:
        return Value::Int(c.int_value);
      case Constant::Kind::kString:
        return CanonicalValue(c.string_value);
      case Constant::Kind::kSymbol: {
        auto it = params_.find(c.symbol);
        if (it == params_.end()) {
          return Status::InvalidArgument("unbound query parameter '" +
                                         c.symbol + "'");
        }
        return it->second;
      }
    }
    return Status::Internal("bad constant");
  }

  StatusOr<bool> EvalWhere(const Query& q, const Env& env) {
    for (const Predicate& pred : q.where) {
      std::vector<Item> lhs = EvalPath(env, pred.lhs);
      bool hit = false;
      if (pred.rhs_is_path) {
        std::vector<Item> rhs = EvalPath(env, pred.rhs_path);
        for (const Item& l : lhs) {
          for (const Item& r : rhs) {
            if (ApplyCompare(pred.op, l.ToValue(), r.ToValue())) {
              hit = true;
              break;
            }
          }
          if (hit) break;
        }
      } else {
        LEGODB_ASSIGN_OR_RETURN(Value rhs, ResolveConstant(pred.rhs_const));
        for (const Item& l : lhs) {
          if (ApplyCompare(pred.op, l.ToValue(), rhs)) {
            hit = true;
            break;
          }
        }
      }
      if (!hit) return false;
    }
    return true;
  }

  // Evaluates one return item into a set of partial rows (each a vector of
  // column values for that item's columns).
  Status EvalItem(const ReturnItem& item, const Env& env,
                  std::vector<std::vector<Value>>* out) {
    switch (item.kind) {
      case ReturnItem::Kind::kPath: {
        if (item.path.steps.empty()) {
          // Publish: serialize the whole subtree.
          auto it = env.find(item.path.var);
          if (it == env.end()) {
            return Status::InvalidArgument("unbound variable $" +
                                           item.path.var);
          }
          out->push_back({Value::Str(xml::Serialize(*it->second, false))});
          return Status::OK();
        }
        // Strict projection semantics (as in the paper's translated plans,
        // e.g. Π_{title,description} σ tv_shows): a row is produced only
        // when every returned path has a value.
        std::vector<Item> matches = EvalPath(env, item.path);
        for (const Item& m : matches) out->push_back({m.ToValue()});
        return Status::OK();
      }
      case ReturnItem::Kind::kSubquery: {
        std::vector<std::vector<Value>> rows;
        LEGODB_RETURN_IF_ERROR(EvalQuery(*item.subquery, env, &rows));
        if (rows.empty()) {
          if (item.subquery->where.empty()) {
            // Left-outer: keep the outer row with NULL inner columns.
            auto [width, fresh] = widths_.try_emplace(item.subquery.get(), 0);
            if (fresh) width->second = QueryLabels(*item.subquery).size();
            out->emplace_back(width->second, Value::MakeNull());
          }
          // else: inner join — no partial rows, outer row is dropped.
          return Status::OK();
        }
        *out = std::move(rows);
        return Status::OK();
      }
      case ReturnItem::Kind::kElement:
        return Status::Internal("element items are flattened before eval");
    }
    return Status::Internal("bad return item");
  }

  Status EvalReturn(const Query& q, const Env& env,
                    std::vector<std::vector<Value>>* out) {
    std::vector<const ReturnItem*> items = q.FlatReturnItems();
    // Cartesian product of per-item row groups.
    std::vector<std::vector<Value>> acc = {{}};
    for (const ReturnItem* item : items) {
      std::vector<std::vector<Value>> group;
      LEGODB_RETURN_IF_ERROR(EvalItem(*item, env, &group));
      if (group.empty()) return Status::OK();  // inner-join drop
      std::vector<std::vector<Value>> next;
      next.reserve(acc.size() * group.size());
      for (const auto& left : acc) {
        for (const auto& right : group) {
          std::vector<Value> row = left;
          row.insert(row.end(), right.begin(), right.end());
          next.push_back(std::move(row));
        }
      }
      acc = std::move(next);
    }
    out->insert(out->end(), acc.begin(), acc.end());
    return Status::OK();
  }

  const xml::Document& doc_;
  const std::map<std::string, Value>& params_;
  // Each subquery's column count, counted on its first left-outer miss.
  std::unordered_map<const Query*, size_t> widths_;
};

void CollectLabels(const std::vector<ReturnItem>& items,
                   std::vector<std::string>* out) {
  for (const auto& item : items) {
    switch (item.kind) {
      case ReturnItem::Kind::kPath:
        out->push_back(item.path.ToString());
        break;
      case ReturnItem::Kind::kSubquery: {
        std::vector<std::string> inner = QueryLabels(*item.subquery);
        out->insert(out->end(), inner.begin(), inner.end());
        break;
      }
      case ReturnItem::Kind::kElement:
        CollectLabels(item.children, out);
        break;
    }
  }
}

}  // namespace

Value CanonicalValue(std::string_view text) {
  std::string_view trimmed = StrTrim(text);
  if (IsInteger(trimmed)) {
    return Value::Int(std::strtoll(std::string(trimmed).c_str(), nullptr, 10));
  }
  return Value::Str(std::string(trimmed));
}

std::vector<std::string> QueryLabels(const Query& query) {
  std::vector<std::string> labels;
  CollectLabels(query.ret, &labels);
  return labels;
}

StatusOr<ResultSet> EvaluateOnDocument(
    const Query& query, const xml::Document& doc,
    const std::map<std::string, Value>& params) {
  return Evaluator(doc, params).Run(query);
}

}  // namespace legodb::xq
