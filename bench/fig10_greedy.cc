// Reproduces Figure 10: configuration cost after each greedy-search
// iteration, for the greedy-so (start all-outlined, apply inlinings) and
// greedy-si (start all-inlined, apply outlinings) variants, on the lookup
// workload (Q8, Q9, Q11, Q12, Q13) and the publish workload (Q15-Q17).
//
// Paper reference: greedy-so starts much higher (many joins) and converges
// in more iterations for publish than for lookup; greedy-si converges
// faster for publish; both variants end at similar costs.
// With a file argument, the obs metrics of the whole run (per-iteration
// search spans, optimizer/translate timings, cache counters) are written
// there as JSON, e.g. `fig10_greedy BENCH_fig10_greedy.json`; `--threads=N`
// sets the candidate-evaluation worker count (0 = hardware concurrency).
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/search.h"

using namespace legodb;

int main(int argc, char** argv) {
  bench::ObsSession obs_session;
  int threads = 0;  // 0 = hardware concurrency
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (bench::FlagValue(argv[i], "threads", &v)) {
      threads = std::atoi(v);
    } else {
      json_out = argv[i];
    }
  }
  std::printf(
      "Figure 10: cost at each greedy iteration (normalized by the final\n"
      "cost of greedy-so on that workload), for lookup and publish "
      "workloads.\n\n");
  xs::Schema annotated = bench::AnnotatedImdb();
  opt::CostParams params;

  for (const char* wname : {"lookup", "publish"}) {
    core::Workload workload =
        bench::Unwrap(imdb::MakeWorkload(wname), "workload");
    core::SearchOptions so_options = core::GreedySoOptions();
    so_options.threads = threads;
    core::SearchOptions si_options = core::GreedySiOptions();
    si_options.threads = threads;
    core::SearchResult so = bench::Unwrap(
        core::GreedySearch(annotated, workload, params, so_options),
        "greedy-so");
    core::SearchResult si = bench::Unwrap(
        core::GreedySearch(annotated, workload, params, si_options),
        "greedy-si");
    double norm = so.best_cost;
    std::printf("workload: %s\n", wname);
    TablePrinter table({"iteration", "greedy-so", "greedy-si", "so move",
                        "si move"});
    size_t rows = std::max(so.trace.size(), si.trace.size());
    for (size_t i = 0; i < rows; ++i) {
      auto cell = [&](const core::SearchResult& r,
                      bool move) -> std::string {
        if (i >= r.trace.size()) return "";
        return move ? r.trace[i].applied
                    : FormatDouble(r.trace[i].cost / norm);
      };
      table.AddRow({std::to_string(i), cell(so, false), cell(si, false),
                    cell(so, true), cell(si, true)});
    }
    table.Print();
    std::printf(
        "final cost: greedy-so=%.1f (%zu tables), greedy-si=%.1f (%zu "
        "tables)\n\n",
        so.best_cost, ps::Normalize(so.best_schema).size(), si.best_cost,
        ps::Normalize(si.best_schema).size());
  }
  if (!json_out.empty()) obs_session.WriteJson(json_out);
  return 0;
}
