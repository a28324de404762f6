// load-publish-paged: one thread. Each iteration parses a seeded IMDB
// scale-16 document (about 6.4 MB of XML), shreds it into a fresh paged
// database (8 KiB pages behind a 64-page buffer pool, roughly an eighth of
// the data), flushes, prewarms indexes and column shadows, then runs the
// publish pass: Q15-Q17 through parse, translate, plan and Executor, and
// ReconstructDocument.
//
// Correctness: the reconstructed document must serialize exactly like the
// parsed one, and each publish result must hold the rows a memory-backend
// database returns for the same query.
#include <algorithm>

#include "bench.h"
#include "engine/executor.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "storage/reconstruct.h"
#include "storage/shredder.h"
#include "translate/translate.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xquery/parser.h"
#include "xschema/annotate.h"

namespace legobench {
namespace {

using namespace legodb;

constexpr int kScale = 16;
constexpr size_t kPageSize = 8192;
constexpr size_t kPoolPages = 64;
const char* const kPublish[] = {"Q15", "Q16", "Q17"};

struct Inputs {
  std::string xml_text;
  std::unique_ptr<map::Mapping> mapping;
};

Inputs Setup(uint64_t seed) {
  Inputs in;
  imdb::ImdbScale scale;
  scale.shows = 300 * kScale;
  scale.directors = 120 * kScale;
  scale.actors = 400 * kScale;
  scale.seed = seed;
  in.xml_text = xml::Serialize(imdb::Generate(scale), /*pretty=*/false);
  xs::Schema raw = Unwrap(imdb::Schema(), "IMDB schema");
  xs::StatsSet stats = Unwrap(imdb::Stats(), "IMDB statistics");
  in.mapping = std::make_unique<map::Mapping>(Unwrap(
      map::MapSchema(ps::AllInlined(xs::AnnotateSchema(raw, stats))), "map"));
  return in;
}

// Runs the publish queries against `db`: parse, translate, plan, execute.
StatusOr<std::vector<xq::ResultSet>> Publish(store::Database* db,
                                             const map::Mapping& mapping,
                                             Tracer* tracer) {
  std::vector<xq::ResultSet> out;
  for (const char* name : kPublish) {
    auto query = [&] {
      Scoped s(tracer, "xquery.parse");
      return xq::ParseQuery(imdb::QueryText(name));
    }();
    LEGODB_RETURN_IF_ERROR(query.status());
    auto rq = [&] {
      Scoped s(tracer, "translate");
      return xlat::TranslateQuery(*query, mapping);
    }();
    LEGODB_RETURN_IF_ERROR(rq.status());
    auto planned = [&] {
      Scoped s(tracer, "optimizer.plan");
      opt::Optimizer optimizer(mapping.catalog());
      return optimizer.PlanQuery(*rq);
    }();
    LEGODB_RETURN_IF_ERROR(planned.status());
    std::vector<opt::PhysicalPlanPtr> plans;
    for (const auto& b : planned->blocks) plans.push_back(b.plan);
    Scoped s(tracer, "engine.exec");
    engine::Executor executor(db);
    LEGODB_ASSIGN_OR_RETURN(xq::ResultSet rows,
                            executor.ExecuteQuery(*rq, plans));
    out.push_back(std::move(rows));
  }
  return out;
}

// What the checks compare against, built once per run.
struct Oracle {
  std::string serialized;                // the parsed document
  std::vector<xq::ResultSet> published;  // on the memory backend
};

Oracle MakeOracle(const Inputs& in) {
  Oracle o;
  xml::Document doc = Unwrap(xml::ParseDocument(in.xml_text), "parse XML");
  o.serialized = xml::Serialize(doc);
  store::Database db(in.mapping->catalog());
  Check(store::ShredDocument(doc, *in.mapping, &db), "memory shred");
  o.published = Unwrap(Publish(&db, *in.mapping, nullptr), "memory publish");
  return o;
}

struct PoolCounters {
  store::BufferPool::Stats pool;
  uint32_t pages = 0;
};

struct Iteration {
  bool ok = false;
  double load_ms = 0;     // parse, shred, flush, prewarm
  double publish_ms = 0;  // queries and reconstruction
  double cpu_ms = 0;
  PoolCounters counters;
};

// One iteration, checked after its clocks stop. Spans go to `tracer` when
// it is not null.
Iteration Iterate(const Inputs& in, const Oracle& oracle, Tracer* tracer) {
  Iteration it;
  double cpu0 = CpuSeconds();
  int64_t t0 = NowNanos(), t1 = 0, t2 = 0;
  std::unique_ptr<store::Database> db;
  StatusOr<std::vector<xq::ResultSet>> published =
      Status::Internal("not published");
  StatusOr<xml::Document> rebuilt = Status::Internal("not rebuilt");
  {
    Scoped root(tracer, "phase.iteration");
    auto parsed = [&] {
      Scoped s(tracer, "xml.parse");
      return xml::ParseDocument(in.xml_text);
    }();
    if (!parsed.ok()) return it;
    xml::Document doc = std::move(parsed).value();
    Status st = [&] {
      Scoped s(tracer, "storage.shred");
      db = std::make_unique<store::Database>(
          in.mapping->catalog(),
          store::StorageOptions::Paged(kPageSize, kPoolPages));
      return store::ShredDocument(doc, *in.mapping, db.get());
    }();
    {
      Scoped s(tracer, "xml.release");  // the DOM is not needed past here
      doc.root.reset();
    }
    if (st.ok()) {
      Scoped s(tracer, "storage.flush");
      st = db->Flush();
    }
    if (st.ok()) {
      Scoped s(tracer, "storage.prewarm");
      st = db->PrewarmIndexes();
      if (st.ok()) st = db->PrewarmColumns();
    }
    if (!st.ok()) return it;
    t1 = NowNanos();
    {
      Scoped s(tracer, "phase.publish");
      published = Publish(db.get(), *in.mapping, tracer);
    }
    {
      Scoped s(tracer, "storage.reconstruct");
      rebuilt = store::ReconstructDocument(db.get(), *in.mapping);
    }
    t2 = NowNanos();
  }
  it.cpu_ms = (CpuSeconds() - cpu0) * 1e3;
  it.load_ms = MillisBetween(t0, t1);
  it.publish_ms = MillisBetween(t1, t2);
  it.counters.pool = db->buffer_pool()->stats();
  it.counters.pages = db->pager()->page_count();

  it.ok = published.ok() && rebuilt.ok() &&
          published->size() == oracle.published.size() &&
          xml::Serialize(*rebuilt) == oracle.serialized;
  for (size_t i = 0; it.ok && i < oracle.published.size(); ++i) {
    it.ok = oracle.published[i].SameRows((*published)[i]);
  }
  if (!it.ok) std::fprintf(stderr, "load-publish iteration failed a check\n");
  return it;
}

void Untraced(const RunOptions& options, RunResult* result) {
  std::vector<double> setup_s;
  Inputs in;
  for (int i = 0; i < 5; ++i) {
    int64_t t0 = NowNanos();
    in = Setup(options.seed);
    setup_s.push_back(MillisBetween(t0, NowNanos()) / 1e3);
  }
  result->Set("setup_s", Median(setup_s), "s");
  Oracle oracle = MakeOracle(in);

  std::vector<double> iter_ms, load_ms, publish_ms, cpu_ms;
  int64_t start = NowNanos();
  const auto budget_ns = static_cast<int64_t>(options.seconds * 1e9);
  Iteration last;
  while (NowNanos() - start < budget_ns || iter_ms.size() < 3) {
    last = Iterate(in, oracle, nullptr);
    result->Attempt(last.ok);
    iter_ms.push_back(last.load_ms + last.publish_ms);
    load_ms.push_back(last.load_ms);
    publish_ms.push_back(last.publish_ms);
    cpu_ms.push_back(last.cpu_ms);
  }
  double total_ms = 0;
  for (double ms : iter_ms) total_ms += ms;
  auto n = static_cast<double>(iter_ms.size());
  result->Set("ops_per_s", n / (total_ms / 1e3), "1/s");
  result->Set("p50_ms", Median(iter_ms), "ms");
  result->Set("cpu_ms_per_op", Median(cpu_ms), "ms");
  result->Set("rss_mb", PeakRssMb(), "MB");

  double xml_mb = static_cast<double>(in.xml_text.size()) / 1e6;
  std::vector<double> mb_s, pub_s;
  for (double ms : load_ms) mb_s.push_back(xml_mb / (ms / 1e3));
  for (double ms : publish_ms) pub_s.push_back(ms / 1e3);
  result->Detail("load_mb_s", Median(mb_s), "MB/s");
  result->Detail("publish_s", Median(pub_s), "s");
  result->Detail("iterations", n, "count");
  result->Detail("stored_bytes_per_xml_byte",
                 static_cast<double>(last.counters.pages) * kPageSize /
                     static_cast<double>(in.xml_text.size()),
                 "ratio");
  result->Detail("xml_mb", xml_mb, "MB");
}

void Traced(const RunOptions& options, RunResult* result) {
  Inputs in = Setup(options.seed);
  Oracle oracle = MakeOracle(in);
  // Untraced and traced iterations alternated: the tracing overhead.
  Tracer tracer;
  std::vector<double> plain_ms, traced_ms;
  Iteration traced;
  for (int round = 0; round < 3; ++round) {
    Iteration plain = Iterate(in, oracle, nullptr);
    result->Attempt(plain.ok);
    plain_ms.push_back(plain.load_ms + plain.publish_ms);
    traced = Iterate(in, oracle, &tracer);
    result->Attempt(traced.ok);
    traced_ms.push_back(traced.load_ms + traced.publish_ms);
  }
  result->Set("trace.overhead_frac", Median(traced_ms) / Median(plain_ms) - 1,
              "ratio");

  LayerTotals layers = AggregateLayers(tracer.spans());
  auto median_of = [&](const char* name) {
    return Median(layers.self_ms[name]);
  };
  result->Set("xml.parse_ms", median_of("xml.parse"), "ms");
  result->Set("storage.shred_ms", median_of("storage.shred"), "ms");
  result->Set("storage.flush_ms", median_of("storage.flush"), "ms");
  result->Set("storage.prewarm_ms", median_of("storage.prewarm"), "ms");
  result->Set("storage.reconstruct_ms", median_of("storage.reconstruct"),
              "ms");
  result->Set("xquery.parse_ms", median_of("xquery.parse"), "ms");
  result->Set("translate.ms", median_of("translate"), "ms");
  result->Set("optimizer.plan_ms", median_of("optimizer.plan"), "ms");
  result->Set("engine.publish.exec_ms", median_of("engine.exec"), "ms");
  result->Set("trace.coverage", layers.Coverage(), "ratio");
  result->Set("trace.unreconciled", static_cast<double>(layers.unreconciled),
              "count");
  result->Attempt(layers.Reconciled());

  const store::BufferPool::Stats& pool = traced.counters.pool;
  result->Set("storage.pool_faults", static_cast<double>(pool.faults),
              "count");
  result->Set("storage.pool_hit_rate",
              static_cast<double>(pool.hits) /
                  static_cast<double>(pool.hits + pool.faults),
              "ratio");
  result->Set("storage.pool_evictions", static_cast<double>(pool.evictions),
              "count");
  result->Set("storage.bytes_read", static_cast<double>(pool.bytes_read), "B");
  result->Set("storage.bytes_written",
              static_cast<double>(pool.bytes_written), "B");
  result->Set("storage.pages", static_cast<double>(traced.counters.pages),
              "count");
}

}  // namespace

RunResult RunLoadPublishPaged(const RunOptions& options) {
  legodb::obs::Registry registry;
  legodb::obs::ScopedRegistry scoped(&registry);
  RunResult result;
  result.Config("scale", std::to_string(kScale));
  result.Config("backend", "paged, all-inlined");
  result.Config("page_size", std::to_string(kPageSize));
  result.Config("pool_pages", std::to_string(kPoolPages));
  result.Config("threads", "1");
  if (options.trace) {
    Traced(options, &result);
  } else {
    Untraced(options, &result);
  }
  return result;
}

}  // namespace legobench
