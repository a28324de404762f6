#include "xschema/stats_collector.h"

#include <algorithm>
#include <set>

#include "common/str_util.h"

namespace legodb::xs {

void StatsCollector::AddDocument(const xml::Document& doc) {
  if (doc.root) AddTree(*doc.root);
}

void StatsCollector::AddTree(const xml::Node& root) {
  StatPath path;
  Visit(root, &path);
}

void StatsCollector::Record(const StatPath& path, std::string_view text,
                            bool has_text) {
  Accumulator& acc = acc_[path];
  ++acc.count;
  if (!has_text) return;
  ++acc.text_occurrences;
  acc.total_size += static_cast<double>(text.size());
  acc.samples.emplace_back(text);
  if (IsInteger(StrTrim(text))) {
    int64_t v = std::strtoll(std::string(StrTrim(text)).c_str(), nullptr, 10);
    if (acc.text_occurrences == 1) {
      acc.min = acc.max = v;
    } else {
      acc.min = std::min(acc.min, v);
      acc.max = std::max(acc.max, v);
    }
  } else {
    acc.all_integer = false;
  }
}

void StatsCollector::Visit(const xml::Node& node, StatPath* path) {
  if (!node.is_element()) return;
  path->push_back(std::string(node.name()));

  // Only direct text of this element counts toward its content size; child
  // elements contribute to their own paths.
  std::string direct_text;
  bool has_text = false;
  for (const xml::Node* child : node.children()) {
    if (child->is_text()) {
      direct_text += child->text();
      has_text = true;
    }
  }
  Record(*path, direct_text, has_text);

  // The wildcard aggregate: the same occurrence, recorded under TILDE so a
  // `~[...]` schema position can be annotated without knowing tag names.
  if (path->size() >= 2) {
    std::string actual = path->back();
    path->back() = "TILDE";
    Record(*path, direct_text, has_text);
    path->back() = std::move(actual);
  }

  for (const xml::Attribute& a : node.attributes()) {
    path->push_back(std::string(a.name));
    Record(*path, a.value, /*has_text=*/true);
    path->pop_back();
  }

  for (const xml::Node* child : node.children()) {
    Visit(*child, path);
  }
  path->pop_back();
}

StatsSet StatsCollector::Finish() const {
  StatsSet stats;
  for (const auto& [path, acc] : acc_) {
    stats.SetCount(path, acc.count);
    if (acc.text_occurrences == 0) continue;
    stats.SetSize(path, acc.total_size / acc.text_occurrences);
    std::set<std::string> distinct(acc.samples.begin(), acc.samples.end());
    if (acc.all_integer) {
      stats.SetBase(path, acc.min, acc.max,
                    static_cast<int64_t>(distinct.size()));
    } else {
      stats.SetDistincts(path, static_cast<int64_t>(distinct.size()));
    }
  }
  return stats;
}

}  // namespace legodb::xs
