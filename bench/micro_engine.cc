// Google-benchmark microbenchmarks of the substrate components: XML
// parsing and release, validation, shredding, reconstruction, query
// execution, and the hash index every equality probe goes through.
//
// The reference-vs-batched executor equality check runs unconditionally in
// main() before any benchmark (even with --benchmark_filter), and a
// mismatch exits nonzero.
#include <benchmark/benchmark.h>

#include <array>
#include <random>
#include <string>

#include "bench/bench_util.h"
#include "engine/executor.h"
#include "engine/reference_executor.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "storage/database.h"
#include "storage/reconstruct.h"
#include "storage/shredder.h"
#include "translate/translate.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xquery/parser.h"
#include "xschema/validator.h"

namespace {

using namespace legodb;

imdb::ImdbScale SmallScale() {
  imdb::ImdbScale scale;
  scale.shows = 100;
  scale.directors = 40;
  scale.actors = 60;
  return scale;
}

void BM_XmlParse(benchmark::State& state) {
  std::string text = xml::Serialize(imdb::Generate(SmallScale()));
  for (auto _ : state) {
    auto doc = xml::ParseDocument(text);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_XmlParse);

void BM_Validate(benchmark::State& state) {
  xml::Document doc = imdb::Generate(SmallScale());
  xs::Schema schema = bench::RawImdb();
  for (auto _ : state) {
    Status st = xs::ValidateDocument(doc, schema);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_Validate);

void BM_Shred(benchmark::State& state) {
  xml::Document doc = imdb::Generate(SmallScale());
  xs::Schema config = ps::Normalize(bench::AnnotatedImdb());
  auto mapping = bench::Unwrap(map::MapSchema(config), "map");
  for (auto _ : state) {
    store::Database db(mapping.catalog());
    Status st = store::ShredDocument(doc, mapping, &db);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_Shred);

// As in BM_ReconstructPagedAllInlined below, the source document is
// released before the rebuild and tearing the rebuilt document down is not
// timed.
void BM_Reconstruct(benchmark::State& state) {
  xs::Schema config = ps::Normalize(bench::AnnotatedImdb());
  auto mapping = bench::Unwrap(map::MapSchema(config), "map");
  store::Database db(mapping.catalog());
  bench::Check(
      store::ShredDocument(imdb::Generate(SmallScale()), mapping, &db),
      "shred");
  for (auto _ : state) {
    auto rebuilt = store::ReconstructDocument(&db, mapping);
    benchmark::DoNotOptimize(rebuilt);
    state.PauseTiming();
    rebuilt = Status::Internal("released");
    state.ResumeTiming();
  }
}
BENCHMARK(BM_Reconstruct);

// The load-publish-paged setting: a scale-16 IMDB document (about 6.4 MB
// of XML) in the all-inlined configuration, stored in 8 KiB pages behind a
// 64-page buffer pool (roughly an eighth of the data).
map::Mapping PagedMapping() {
  return bench::Unwrap(
      map::MapSchema(ps::AllInlined(bench::AnnotatedImdb())), "map");
}

xml::Document PagedDocument() {
  imdb::ImdbScale scale;
  scale.shows = 300 * 16;
  scale.directors = 120 * 16;
  scale.actors = 400 * 16;
  scale.seed = 1;
  return imdb::Generate(scale);
}

store::StorageOptions PagedOptions() {
  return store::StorageOptions::Paged(/*page_size=*/8192, /*pool_pages=*/64);
}

// Shreds into a fresh paged database, flush included.
void BM_ShredPagedAllInlined(benchmark::State& state) {
  const map::Mapping mapping = PagedMapping();
  const xml::Document doc = PagedDocument();
  for (auto _ : state) {
    store::Database db(mapping.catalog(), PagedOptions());
    Status st = store::ShredDocument(doc, mapping, &db);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_ShredPagedAllInlined)->Unit(benchmark::kMillisecond);

// Rebuilds the document from a loaded and prewarmed paged database. As in
// load-publish-paged, the source document is released before the rebuild
// (which changes how fast the rebuild allocates its nodes), and tearing
// the rebuilt document down is not timed.
void BM_ReconstructPagedAllInlined(benchmark::State& state) {
  const map::Mapping mapping = PagedMapping();
  store::Database db(mapping.catalog(), PagedOptions());
  bench::Check(store::ShredDocument(PagedDocument(), mapping, &db), "shred");
  bench::Check(db.PrewarmIndexes(), "prewarm indexes");
  bench::Check(db.PrewarmColumns(), "prewarm columns");
  for (auto _ : state) {
    auto rebuilt = store::ReconstructDocument(&db, mapping);
    benchmark::DoNotOptimize(rebuilt);
    state.PauseTiming();
    rebuilt = Status::Internal("released");
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ReconstructPagedAllInlined)->Unit(benchmark::kMillisecond);

// The XML substrate alone on the same scale-16 document, one layer each:
// parsing its compact text, releasing the parsed DOM (`root.reset()`, the
// step load-publish-paged times as xml.release), and rebuilding it from a
// memory-backed database (no page decoding in the way).
const std::string& PagedDocumentText() {
  static const auto* text =
      new std::string(xml::Serialize(PagedDocument(), /*pretty=*/false));
  return *text;
}

void BM_ParseDocument(benchmark::State& state) {
  const std::string& text = PagedDocumentText();
  for (auto _ : state) {
    auto doc = xml::ParseDocument(text);
    benchmark::DoNotOptimize(doc);
    state.PauseTiming();
    doc = Status::Internal("released");
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseDocument)->Unit(benchmark::kMillisecond);

void BM_ReleaseDocument(benchmark::State& state) {
  const std::string& text = PagedDocumentText();
  for (auto _ : state) {
    state.PauseTiming();
    xml::Document doc = bench::Unwrap(xml::ParseDocument(text), "parse");
    state.ResumeTiming();
    doc.root.reset();
    benchmark::DoNotOptimize(doc);
  }
}
// A fixed count: a release takes microseconds against a parse's tens of
// milliseconds, so letting the timed part reach the minimum run time would
// parse thousands of documents off the clock.
BENCHMARK(BM_ReleaseDocument)->Unit(benchmark::kMillisecond)->Iterations(20);

void BM_ReconstructDocument(benchmark::State& state) {
  const map::Mapping mapping = PagedMapping();
  store::Database db(mapping.catalog());
  bench::Check(store::ShredDocument(PagedDocument(), mapping, &db), "shred");
  for (auto _ : state) {
    auto rebuilt = store::ReconstructDocument(&db, mapping);
    benchmark::DoNotOptimize(rebuilt);
    state.PauseTiming();
    rebuilt = Status::Internal("released");
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ReconstructDocument)->Unit(benchmark::kMillisecond);

// A prepared fig10 workload (lookup Q8/Q9/Q11/Q12/Q13 + publish
// Q15/Q16/Q17) over the all-inlined IMDB configuration, shared by the
// executor comparison benchmarks below.
struct Fig10Workload {
  store::Database db;
  std::vector<opt::RelQuery> queries;
  std::vector<std::vector<opt::PhysicalPlanPtr>> plans;
  std::map<std::string, Value> params;

  explicit Fig10Workload(const map::Mapping& mapping) : db(mapping.catalog()) {
    imdb::ImdbScale scale;
    scale.shows = 300;
    scale.directors = 120;
    scale.actors = 400;
    xml::Document doc = imdb::Generate(scale);
    bench::Check(store::ShredDocument(doc, mapping, &db), "shred");
    bench::Check(db.PrewarmIndexes(), "prewarm");
    params = {{"c1", Value::Str("title1")},
              {"c2", Value::Str("title2")},
              {"c4", Value::Str("person3")}};
    opt::Optimizer optimizer(mapping.catalog());
    for (const char* name :
         {"Q8", "Q9", "Q11", "Q12", "Q13", "Q15", "Q16", "Q17"}) {
      auto q = bench::Unwrap(xq::ParseQuery(imdb::QueryText(name)), "parse");
      auto rq = bench::Unwrap(xlat::TranslateQuery(q, mapping), "translate");
      auto planned = bench::Unwrap(optimizer.PlanQuery(rq), "plan");
      std::vector<opt::PhysicalPlanPtr> query_plans;
      for (const auto& b : planned.blocks) query_plans.push_back(b.plan);
      queries.push_back(std::move(rq));
      plans.push_back(std::move(query_plans));
    }
  }
};

Fig10Workload& SharedFig10() {
  static auto* mapping = new map::Mapping(bench::Unwrap(
      map::MapSchema(ps::AllInlined(bench::AnnotatedImdb())), "map"));
  static auto* workload = new Fig10Workload(*mapping);
  return *workload;
}

// Both executors must agree row for row before any timing counts. Called
// from main() so the check runs even when --benchmark_filter excludes the
// benchmarks that use the workload; exits nonzero on mismatch.
void VerifyFig10() {
  Fig10Workload& w = SharedFig10();
  for (size_t i = 0; i < w.queries.size(); ++i) {
    engine::ReferenceExecutor ref(&w.db, w.params);
    engine::Executor batched(&w.db, w.params);
    auto expected = ref.ExecuteQuery(w.queries[i], w.plans[i]);
    auto actual = batched.ExecuteQuery(w.queries[i], w.plans[i]);
    bench::Check(expected.status(), "reference execute");
    bench::Check(actual.status(), "batched execute");
    if (!(expected->rows == actual->rows)) {
      std::fprintf(stderr, "FATAL: executor mismatch on fig10 query %zu\n",
                   i);
      std::exit(1);
    }
  }
}

// The seed materializing interpreter over the fig10 workload: the "before"
// side of the pipelined-executor speedup claim.
void BM_Fig10Reference(benchmark::State& state) {
  Fig10Workload& w = SharedFig10();
  for (auto _ : state) {
    for (size_t i = 0; i < w.queries.size(); ++i) {
      engine::ReferenceExecutor exec(&w.db, w.params);
      auto result = exec.ExecuteQuery(w.queries[i], w.plans[i]);
      benchmark::DoNotOptimize(result);
    }
  }
}
BENCHMARK(BM_Fig10Reference);

// The pipelined batch executor over the same workload, at the batch size
// given by the benchmark argument.
void BM_Fig10Batched(benchmark::State& state) {
  Fig10Workload& w = SharedFig10();
  engine::ExecOptions options;
  options.batch_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    for (size_t i = 0; i < w.queries.size(); ++i) {
      engine::Executor exec(&w.db, w.params, options);
      auto result = exec.ExecuteQuery(w.queries[i], w.plans[i]);
      benchmark::DoNotOptimize(result);
    }
  }
}
BENCHMARK(BM_Fig10Batched)->Arg(1)->Arg(64)->Arg(1024)->Arg(4096);

void BM_ExecuteLookup(benchmark::State& state) {
  xml::Document doc = imdb::Generate(SmallScale());
  xs::Schema config = ps::AllInlined(bench::AnnotatedImdb());
  auto mapping = bench::Unwrap(map::MapSchema(config), "map");
  store::Database db(mapping.catalog());
  bench::Check(store::ShredDocument(doc, mapping, &db), "shred");
  auto query = bench::Unwrap(xq::ParseQuery(imdb::QueryText("Q1")), "parse");
  auto rq = bench::Unwrap(xlat::TranslateQuery(query, mapping), "translate");
  opt::Optimizer optimizer(mapping.catalog());
  auto planned = bench::Unwrap(optimizer.PlanQuery(rq), "plan");
  std::vector<opt::PhysicalPlanPtr> plans;
  for (const auto& b : planned.blocks) plans.push_back(b.plan);
  std::map<std::string, Value> params = {{"c1", Value::Str("title1")}};
  for (auto _ : state) {
    engine::Executor exec(&db, params);
    auto result = exec.ExecuteQuery(rq, plans);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExecuteLookup);

// A 100k-row join-key column: integer ids (argument 0) or strings
// (argument 1), about four rows per distinct key, as in a foreign key.
const store::ColumnVector& KeyColumn(bool strings) {
  static const auto* columns = [] {
    auto* cols = new std::array<store::ColumnVector, 2>();
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<int64_t> key(0, 24999);
    for (int i = 0; i < 100000; ++i) {
      int64_t k = key(rng);
      (*cols)[0].Append(Value::Int(k));
      (*cols)[1].Append(Value::Str("title" + std::to_string(k)));
    }
    return cols;
  }();
  return (*columns)[strings ? 1 : 0];
}

void BM_HashIndexBuild(benchmark::State& state) {
  const store::ColumnVector& column = KeyColumn(state.range(0) != 0);
  for (auto _ : state) {
    store::HashIndex index(column);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(column.size()));
}
BENCHMARK(BM_HashIndexBuild)->Arg(0)->Arg(1);

// One probe per row of the column, through the typed FindInt for integer
// keys and Find for strings (the hash-join probe loop's two paths).
void BM_HashIndexProbe(benchmark::State& state) {
  const store::ColumnVector& column = KeyColumn(state.range(0) != 0);
  store::HashIndex index(column);
  for (auto _ : state) {
    size_t hits = 0;
    for (size_t r = 0; r < column.size(); ++r) {
      hits += column.typed_int() ? index.FindInt(column.ints()[r]).size()
                                 : index.Find(column.value(r)).size();
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(column.size()));
}
BENCHMARK(BM_HashIndexProbe)->Arg(0)->Arg(1);

}  // namespace

// Custom main instead of BENCHMARK_MAIN so the correctness gate always runs.
int main(int argc, char** argv) {
  VerifyFig10();

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
