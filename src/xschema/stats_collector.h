#ifndef LEGODB_XSCHEMA_STATS_COLLECTOR_H_
#define LEGODB_XSCHEMA_STATS_COLLECTOR_H_

#include "xml/dom.h"
#include "xschema/stats.h"

namespace legodb::xs {

// Extracts path statistics from example XML documents — the "statistics
// extracted from an example XML dataset" input of Figure 7. Multiple
// documents may be fed to one collector; Finish() produces the StatsSet.
class StatsCollector {
 public:
  StatsCollector() = default;

  void AddDocument(const xml::Document& doc);
  void AddTree(const xml::Node& root);

  // Produces:
  //  - STcnt for every element/attribute path,
  //  - STsize (average content size) for paths with text content,
  //  - STbase (min, max, distincts) for paths whose text is always integer,
  //  - distinct-string counts for other text paths,
  //  - aggregated entries under the pseudo-step "TILDE" so wildcard schema
  //    positions can be annotated.
  StatsSet Finish() const;

 private:
  struct Accumulator {
    int64_t count = 0;
    int64_t text_occurrences = 0;
    double total_size = 0;
    bool all_integer = true;
    int64_t min = 0;
    int64_t max = 0;
    std::vector<std::string> samples;  // deduplicated lazily in Finish()
  };

  void Visit(const xml::Node& node, StatPath* path);
  void Record(const StatPath& path, std::string_view text, bool has_text);

  std::map<StatPath, Accumulator> acc_;
};

}  // namespace legodb::xs

#endif  // LEGODB_XSCHEMA_STATS_COLLECTOR_H_
