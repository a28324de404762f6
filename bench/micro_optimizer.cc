// Google-benchmark microbenchmarks of the mapping-engine components: schema
// mapping, query translation, optimizer planning, transformation
// enumeration and application, schema fingerprinting, and one full
// GetPSchemaCost evaluation — the inner-loop
// operations whose latency bounds greedy-search time (the paper reports
// ~3 seconds per iteration on 2001 hardware).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/cost.h"
#include "core/transforms.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "translate/translate.h"
#include "xquery/parser.h"
#include "xschema/fingerprint.h"

namespace {

using namespace legodb;

void BM_MapSchema(benchmark::State& state) {
  xs::Schema config = ps::Normalize(bench::AnnotatedImdb());
  for (auto _ : state) {
    auto mapping = map::MapSchema(config);
    benchmark::DoNotOptimize(mapping);
  }
}
BENCHMARK(BM_MapSchema);

void BM_TranslateLookup(benchmark::State& state) {
  xs::Schema config = ps::Normalize(bench::AnnotatedImdb());
  auto mapping = bench::Unwrap(map::MapSchema(config), "map");
  auto query = bench::Unwrap(xq::ParseQuery(imdb::QueryText("Q13")), "parse");
  for (auto _ : state) {
    auto rq = xlat::TranslateQuery(query, mapping);
    benchmark::DoNotOptimize(rq);
  }
}
BENCHMARK(BM_TranslateLookup);

void BM_PlanJoinQuery(benchmark::State& state) {
  xs::Schema config = ps::Normalize(bench::AnnotatedImdb());
  auto mapping = bench::Unwrap(map::MapSchema(config), "map");
  auto query = bench::Unwrap(xq::ParseQuery(imdb::QueryText("Q13")), "parse");
  auto rq = bench::Unwrap(xlat::TranslateQuery(query, mapping), "translate");
  opt::Optimizer optimizer(mapping.catalog());
  for (auto _ : state) {
    auto planned = optimizer.PlanQuery(rq);
    benchmark::DoNotOptimize(planned);
  }
}
BENCHMARK(BM_PlanJoinQuery);

void BM_PlanPublishQuery(benchmark::State& state) {
  xs::Schema config = ps::AllOutlined(bench::AnnotatedImdb());
  auto mapping = bench::Unwrap(map::MapSchema(config), "map");
  auto query = bench::Unwrap(xq::ParseQuery(imdb::QueryText("Q16")), "parse");
  auto rq = bench::Unwrap(xlat::TranslateQuery(query, mapping), "translate");
  opt::Optimizer optimizer(mapping.catalog());
  for (auto _ : state) {
    auto planned = optimizer.PlanQuery(rq);
    benchmark::DoNotOptimize(planned);
  }
}
BENCHMARK(BM_PlanPublishQuery);

// The widest block the Figure-10 searches send through the join-order DP:
// Q12 under the all-outlined start of greedy-so/lookup translates into two
// 12-relation blocks (dp_rel_limit), the DP's worst case.
void BM_PlanDpLimitBlock(benchmark::State& state) {
  xs::Schema config = ps::AllOutlined(bench::AnnotatedImdb());
  auto mapping = bench::Unwrap(map::MapSchema(config), "map");
  auto query = bench::Unwrap(xq::ParseQuery(imdb::QueryText("Q12")), "parse");
  auto rq = bench::Unwrap(xlat::TranslateQuery(query, mapping), "translate");
  opt::Optimizer optimizer(mapping.catalog());
  const opt::QueryBlock& block = rq.blocks.front();
  if (block.rels.size() !=
      static_cast<size_t>(optimizer.params().dp_rel_limit)) {
    state.SkipWithError("Q12 block is not at dp_rel_limit");
    return;
  }
  for (auto _ : state) {
    auto planned = optimizer.PlanBlock(block);
    benchmark::DoNotOptimize(planned);
  }
}
BENCHMARK(BM_PlanDpLimitBlock);

void BM_EnumerateTransformations(benchmark::State& state) {
  xs::Schema config = ps::AllOutlined(bench::AnnotatedImdb());
  core::TransformOptions options;
  options.inline_types = true;
  options.outline_elements = true;
  for (auto _ : state) {
    auto t = core::EnumerateTransformations(config, options);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_EnumerateTransformations);

// One outline move on the all-inlined IMDB start, then Normalize, which
// the rewrites that change references run: the move leaves every other
// body physical, so Normalize returns those bodies as they are.
void BM_ApplyTransformation(benchmark::State& state) {
  xs::Schema config = ps::AllInlined(bench::AnnotatedImdb());
  core::TransformOptions options;
  options.inline_types = false;
  const auto moves = core::EnumerateTransformations(config, options);
  const core::TransformDescriptor& move = moves.front();
  for (auto _ : state) {
    auto next = core::ApplyTransformation(config, move);
    xs::Schema normalized = ps::Normalize(next.value());
    benchmark::DoNotOptimize(normalized);
  }
}
BENCHMARK(BM_ApplyTransformation);

void BM_FingerprintSchema(benchmark::State& state) {
  xs::Schema config = ps::AllOutlined(bench::AnnotatedImdb());
  for (auto _ : state) {
    uint64_t fp = xs::FingerprintSchema(config);
    benchmark::DoNotOptimize(fp);
  }
}
BENCHMARK(BM_FingerprintSchema);

void BM_GetPSchemaCost(benchmark::State& state) {
  xs::Schema config = ps::AllInlined(bench::AnnotatedImdb());
  core::Workload workload =
      bench::Unwrap(imdb::MakeWorkload("lookup"), "workload");
  opt::CostParams params;
  for (auto _ : state) {
    auto cost = core::CostSchema(config, workload, params);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_GetPSchemaCost);

}  // namespace

BENCHMARK_MAIN();
