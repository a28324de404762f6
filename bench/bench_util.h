#ifndef LEGODB_BENCH_BENCH_UTIL_H_
#define LEGODB_BENCH_BENCH_UTIL_H_

// Shared helpers for the paper-reproduction benchmark harnesses: builders
// for the three storage configurations of Figure 4 and statistics variants
// for the parameter sweeps.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cost.h"
#include "core/transforms.h"
#include "imdb/imdb.h"
#include "obs/obs.h"
#include "pschema/pschema.h"
#include "xschema/annotate.h"
#include "xschema/schema_parser.h"

namespace legodb::bench {

inline void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(StatusOr<T> v, const char* what) {
  if (!v.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, v.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(v).value();
}

// True when `arg` is `--<name>=value`, pointing `*value` at the value.
// Bench mains chain these over argv; each keeps its own handling of
// arguments no flag matches.
inline bool FlagValue(const char* arg, const char* name, const char** value) {
  size_t n = std::strlen(name);
  bool match = std::strncmp(arg, "--", 2) == 0 &&
               std::strncmp(arg + 2, name, n) == 0 && arg[2 + n] == '=';
  if (match) *value = arg + 3 + n;
  return match;
}

// Installs an obs::Registry for the harness's lifetime, so spans / counters
// / histograms recorded anywhere in the pipeline (search iterations,
// optimizer planning time, translation time) accumulate here. WriteJson
// dumps the obs::Report in the same format `legodb --metrics-out` emits,
// with any SetMeta facts the bench recorded about its own run.
class ObsSession {
 public:
  ObsSession() : scope_(&registry_) {}

  void SetMeta(std::string key, std::string value) {
    meta_.emplace_back(std::move(key), std::move(value));
  }

  void WriteJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
      std::exit(1);
    }
    obs::Report report = registry_.Snapshot();
    for (const auto& [key, value] : meta_) report.SetMeta(key, value);
    out << report.ToJson();
    std::printf("metrics report written to %s\n", path.c_str());
  }

 private:
  obs::Registry registry_;
  obs::ScopedRegistry scope_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

// Raw IMDB schema (un-annotated).
inline xs::Schema RawImdb() {
  return Unwrap(imdb::Schema(), "parse IMDB schema");
}

// Appendix-A statistics, optionally extended with extra entries in the same
// notation (later entries override earlier ones per path+kind).
inline xs::StatsSet ImdbStats(const std::string& extra = "") {
  return Unwrap(xs::ParseStats(std::string(imdb::StatsText()) + extra),
                "parse IMDB stats");
}

inline xs::Schema AnnotatedImdb(const std::string& extra_stats = "") {
  return xs::AnnotateSchema(RawImdb(), ImdbStats(extra_stats));
}

// Applies the first enumerated transformation of `kind` (optionally
// restricted to type `in_type`); aborts if none applies.
inline xs::Schema ApplyFirst(const xs::Schema& schema,
                             core::TransformDescriptor::Kind kind,
                             const std::string& in_type = "",
                             const std::string& tag = "") {
  using Kind = core::TransformDescriptor::Kind;
  core::TransformOptions options;
  options.inline_types = false;
  options.outline_elements = false;
  options.union_distribute = kind == Kind::kUnionDistribute;
  options.union_to_options = kind == Kind::kUnionToOptions;
  options.repetition_split = kind == Kind::kRepetitionSplit;
  options.repetition_merge = kind == Kind::kRepetitionMerge;
  options.wildcard_materialize = kind == Kind::kWildcardMaterialize;
  if (!tag.empty()) options.wildcard_tags.push_back(tag);
  for (const auto& t : core::EnumerateTransformations(schema, options)) {
    if (t.kind != kind) continue;
    if (!in_type.empty() && t.type_name != in_type) continue;
    return Unwrap(core::ApplyTransformation(schema, t), "apply transformation");
  }
  std::fprintf(stderr, "FATAL: no applicable transformation found\n");
  std::exit(1);
}

// --- The three storage maps of Figure 4 -----------------------------------
//
// Configurations are built structurally from the raw schema and annotated
// with statistics as the final step, so every occurrence count / branch
// presence is statistics-driven.

// Map 1 (Fig. 4(a)): everything inlined, unions flattened to nullable
// columns — the inline-as-much-as-possible heuristic of [19].
inline xs::Schema AllInlinedConfig(const xs::Schema& raw,
                                   const xs::StatsSet& stats) {
  return xs::AnnotateSchema(ps::AllInlined(raw), stats);
}

// Map 2 (Fig. 4(b)): all-inlined, with the review wildcard partitioned into
// an <nyt> reviews table and an others table. Built by materializing the
// tag inside the Reviews type and then distributing the resulting union
// across the reviews element, so each review lands in exactly one of two
// tables (the paper's NYT'Reviews / Reviews pair).
inline xs::Schema WildcardConfig(const xs::Schema& raw,
                                 const xs::StatsSet& stats,
                                 const std::string& tag = "nyt") {
  xs::Schema base = ps::AllInlined(raw);
  xs::Schema materialized = ApplyFirst(
      base, core::TransformDescriptor::Kind::kWildcardMaterialize, "", tag);
  xs::Schema distributed = ApplyFirst(
      materialized, core::TransformDescriptor::Kind::kUnionDistribute,
      "Reviews");
  return xs::AnnotateSchema(distributed, stats);
}

// Map 3 (Fig. 4(c)): all-inlined, with the (Movie | TV) union distributed —
// Show horizontally partitioned into Show_Part1 / Show_Part2.
inline xs::Schema UnionDistributedConfig(const xs::Schema& raw,
                                         const xs::StatsSet& stats) {
  xs::Schema normalized = ps::Normalize(raw);
  xs::Schema distributed = ApplyFirst(
      normalized, core::TransformDescriptor::Kind::kUnionDistribute, "Show");
  xs::Schema inlined = ps::AllInlined(distributed, /*flatten_unions=*/false);
  return xs::AnnotateSchema(inlined, stats);
}

// Cost of one named IMDB query under a configuration.
inline double QueryCost(const xs::Schema& config, const std::string& qname,
                        const opt::CostParams& params) {
  core::Workload w;
  Check(w.Add(qname, imdb::QueryText(qname), 1.0), "parse query");
  return Unwrap(core::CostSchema(config, w, params), "cost query").total;
}

}  // namespace legodb::bench

#endif  // LEGODB_BENCH_BENCH_UTIL_H_
