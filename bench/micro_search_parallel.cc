// Parallel candidate-evaluation microbenchmark: wall time of the Fig. 10
// greedy-so run (lookup workload) as a function of the worker-thread count,
// so the speedup trajectory of the candidate-evaluation pipeline can be
// tracked across PRs. Verifies along the way that every thread count
// produces the identical search result (schema fingerprint, cost, trace).
//
// With a file argument the obs metrics (including the per-iteration
// `search.parallel_speedup` histogram of the last run) are written there
// as JSON, e.g. `micro_search_parallel BENCH_micro_search_parallel.json`.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/parallel.h"
#include "core/search.h"
#include "obs/obs.h"
#include "xschema/fingerprint.h"

using namespace legodb;

int main(int argc, char** argv) {
  bench::ObsSession obs_session;
  std::printf(
      "Greedy-so search on the IMDB lookup workload: wall time vs worker\n"
      "threads (hardware concurrency: %d). Identical results at every\n"
      "thread count; speedup is relative to threads=1.\n\n",
      core::ResolveThreads(0));
  xs::Schema annotated = bench::AnnotatedImdb();
  core::Workload workload =
      bench::Unwrap(imdb::MakeWorkload("lookup"), "workload");
  opt::CostParams params;

  TablePrinter table({"threads", "wall_ms", "speedup", "cost", "iterations",
                      "hit_rate"});
  double base_ms = 0;
  uint64_t base_fp = 0;
  double base_cost = 0;
  for (int threads : {1, 2, 4, 8}) {
    core::SearchOptions options = core::GreedySoOptions();
    options.threads = threads;
    int64_t t0 = obs::NowNanos();
    core::SearchResult result = bench::Unwrap(
        core::GreedySearch(annotated, workload, params, options), "search");
    double wall_ms = static_cast<double>(obs::NowNanos() - t0) / 1e6;
    uint64_t fp = xs::FingerprintSchema(result.best_schema);
    if (threads == 1) {
      base_ms = wall_ms;
      base_fp = fp;
      base_cost = result.best_cost;
    } else if (fp != base_fp || result.best_cost != base_cost) {
      std::fprintf(stderr,
                   "FATAL: threads=%d diverged from the serial result\n",
                   threads);
      return 1;
    }
    double hits = static_cast<double>(result.stats.cache_hits);
    double lookups =
        hits + static_cast<double>(result.stats.cost_evaluations);
    table.AddRow({std::to_string(threads), FormatDouble(wall_ms, 1),
                  FormatDouble(base_ms / wall_ms, 2) + "x",
                  FormatDouble(result.best_cost, 1),
                  std::to_string(result.trace.size() - 1),
                  FormatDouble(lookups == 0 ? 0 : hits / lookups, 3)});
    obs::Observe("bench.search_wall_ms", wall_ms);
  }
  table.Print();
  if (argc > 1) obs_session.WriteJson(argv[1]);
  return 0;
}
