// Reproduces Figure 14: cost of an all-inlined vs a repetition-split
// configuration while the total number of <aka> elements grows, for a
// lookup query (alternate titles of one show) and a publishing query
// (all shows). The split rewrites Aka{1,10} == Aka, Aka{0,9} and inlines
// the first occurrence into the Show table.
//
// Paper reference: the split wins for both queries; the reduction is larger
// for the publishing query (the lookup pushes its title selection before
// the show-aka join); the gap narrows as the Aka table outgrows Show.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/table_printer.h"

using namespace legodb;

namespace {

// The paper's Figure-2(b) Show type has Aka{1,10}; Appendix B relaxed it to
// {0,*}. The split needs min >= 1, so this experiment uses the Figure-2(b)
// bound.
xs::Schema RawImdbAkaRequired() {
  std::string text = imdb::SchemaText();
  size_t pos = text.find("aka[ String ]{0,10}");
  if (pos == std::string::npos) {
    std::fprintf(stderr, "FATAL: aka pattern not found in schema\n");
    std::exit(1);
  }
  text.replace(pos, 19, "aka[ String ]{1,10}");
  return bench::Unwrap(xs::ParseSchema(text), "parse aka{1,10} schema");
}

double LookupCost(const xs::Schema& config, const opt::CostParams& params) {
  core::Workload w;
  bench::Check(w.Add("aka_lookup",
                     R"(FOR $v IN document("imdbdata")/imdb/show
                        WHERE $v/title = c1
                        RETURN $v/aka)",
                     1.0),
               "parse aka lookup");
  return bench::Unwrap(core::CostSchema(config, w, params), "cost").total;
}

}  // namespace

int main() {
  std::printf(
      "Figure 14: all-inlined vs repetition-split cost while the total\n"
      "number of akas grows (34798 shows; split = first aka inlined).\n\n");
  xs::Schema raw = RawImdbAkaRequired();
  opt::CostParams params;
  // The paper's lookup analysis pushes the title selection ("especially in
  // the presence of appropriate indexes", Section 5.3(b)); give the
  // selection columns indexes so both configurations probe rather than scan.
  params.index_on_predicates = true;

  TablePrinter table({"total akas", "lookup inlined", "lookup split",
                      "split/inlined", "publish inlined", "publish split",
                      "split/inlined"});
  for (int64_t akas : {40000L, 80000L, 160000L, 320000L, 640000L}) {
    std::string extra = "([\"imdb\";\"show\";\"aka\"], STcnt(" +
                        std::to_string(akas) + "));\n";
    xs::StatsSet stats = bench::ImdbStats(extra);
    xs::Schema inlined = bench::AllInlinedConfig(raw, stats);
    // Split the Aka repetition on the annotated configuration: the split
    // carries the occurrence statistics over (first occurrence required,
    // remainder averages count-1), so the rest-of-akas table shrinks.
    xs::Schema split = ps::AllInlined(bench::ApplyFirst(
        inlined, core::TransformDescriptor::Kind::kRepetitionSplit, "Show"));

    double li = LookupCost(inlined, params);
    double ls = LookupCost(split, params);
    double pi = bench::QueryCost(inlined, "Q16", params);
    double psplit = bench::QueryCost(split, "Q16", params);
    table.AddRow({std::to_string(akas), FormatDouble(li, 0),
                  FormatDouble(ls, 0), FormatDouble(ls / li),
                  FormatDouble(pi, 0), FormatDouble(psplit, 0),
                  FormatDouble(psplit / pi)});
  }
  table.Print();
  return 0;
}
