// serve-mixed: a closed loop of two client threads, each waiting for its
// reply, calling serving::QueryServer::Serve in process. The database is
// the all-inlined IMDB configuration on the memory backend, loaded from a
// seeded scale-4 document (1,200 shows). Every 20 consecutive requests of a
// client hold exactly 16 lookups, 3 joins and 1 publish, shuffled by the
// seed:
//
//   lookup  (80%): Q8, Q9, Q11 with c1 bound, and the literal variant
//                  `$v/name = "..."` of Q8, one quarter each; keys come
//                  from values present in the document, except a 5% share
//                  of absent keys;
//   join    (15%): Q12, Q13;
//   publish  (5%): Q15, Q16, Q17.
//
// Correctness: every distinct lookup and join request is compared with
// xq::EvaluateOnDocument on the source document, every publish request
// with engine::ReferenceExecutor; that happens once per distinct request
// before timing, and every timed response must then equal the checked one.
#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "engine/reference_executor.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "serving/canonicalize.h"
#include "serving/server.h"
#include "storage/shredder.h"
#include "translate/translate.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"
#include "xschema/annotate.h"

namespace legobench {
namespace {

using namespace legodb;

constexpr int kScale = 4;
constexpr int kClients = 2;
constexpr int kKeysPerKind = 64;
constexpr double kAbsentShare = 0.05;
constexpr size_t kStreamPerClient = 8000;
const char* const kClassNames[] = {"lookup", "join", "publish"};

struct Request {
  int cls = 0;  // index into kClassNames
  std::string text;
  std::map<std::string, Value> params;
  // Checked against the DOM evaluator, else against ReferenceExecutor.
  bool dom_oracle = true;
  xq::ResultSet expected;  // the response checked against the oracle
};

// The loaded system: the mapping, the database and the server over them.
struct Served {
  std::unique_ptr<map::Mapping> mapping;
  std::unique_ptr<store::Database> db;
  std::unique_ptr<serving::QueryServer> server;
  std::vector<double> miss_front_end_ms;  // one per shape, while warming
};

std::string LiteralLookup(const std::string& name) {
  return "FOR $v IN document(\"imdbdata\")/imdb/actor WHERE $v/name = \"" +
         name + "\" RETURN $v/biography/birthday";
}

// Parse the XML text, map, shred, prewarm, and serve every shape once so
// the plan cache holds it: what a server does before its first user.
Served Load(const std::string& xml_text, const xs::Schema& config,
            const std::vector<Request>& shapes) {
  Served s;
  xml::Document doc = Unwrap(xml::ParseDocument(xml_text), "parse XML");
  s.mapping = std::make_unique<map::Mapping>(
      Unwrap(map::MapSchema(config), "map"));
  s.db = std::make_unique<store::Database>(s.mapping->catalog());
  Check(store::ShredDocument(doc, *s.mapping, s.db.get()), "shred");
  s.server =
      std::make_unique<serving::QueryServer>(s.db.get(), s.mapping.get());
  Check(s.server->Prewarm(), "prewarm");
  for (const Request& r : shapes) {
    serving::RequestOptions ro;
    ro.params = r.params;
    auto response = Unwrap(s.server->Serve(r.text, ro), "warm serve");
    if (!response.cache_hit) {
      s.miss_front_end_ms.push_back(response.front_end_ms);
    }
  }
  return s;
}

// The distinct requests of the mix, keys drawn from the document.
struct Mix {
  std::vector<Request> distinct;
  // Per class: the distinct-request indices a slot of that class draws
  // from, grouped by query kind.
  std::vector<std::vector<std::vector<size_t>>> by_kind;
  std::vector<Request> shapes;  // one request per query shape
};

std::vector<std::string> DrawKeys(const std::set<std::string>& present,
                                  const std::string& absent_prefix,
                                  Rng* rng) {
  std::vector<std::string> pool(present.begin(), present.end());
  std::vector<std::string> keys;
  for (int i = 0; i < kKeysPerKind; ++i) {
    if (rng->Bernoulli(kAbsentShare)) {
      keys.push_back(absent_prefix + std::to_string(rng->Uniform(1000)));
    } else {
      keys.push_back(pool[rng->Uniform(pool.size())]);
    }
  }
  return keys;
}

Mix MakeMix(const xml::Document& doc, Rng* rng) {
  std::set<std::string> names, birthdays, characters;
  for (const auto& child : doc.root->children()) {
    if (!child->is_element() || child->name() != "actor") continue;
    if (const xml::Node* n = child->FirstChildNamed("name")) {
      names.insert(n->TextContent());
    }
    for (const xml::Node* bio : child->ChildrenNamed("biography")) {
      if (const xml::Node* b = bio->FirstChildNamed("birthday")) {
        birthdays.insert(b->TextContent());
      }
    }
    for (const xml::Node* played : child->ChildrenNamed("played")) {
      if (const xml::Node* c = played->FirstChildNamed("character")) {
        characters.insert(c->TextContent());
      }
    }
  }
  Mix mix;
  mix.by_kind.resize(3);
  auto add = [&](int cls, size_t kind, Request r) {
    if (mix.by_kind[cls].size() <= kind) mix.by_kind[cls].resize(kind + 1);
    mix.by_kind[cls][kind].push_back(mix.distinct.size());
    r.cls = cls;
    mix.distinct.push_back(std::move(r));
  };
  struct Bound {
    const char* query;
    const std::set<std::string>* values;
    const char* absent;
  };
  const Bound bound[] = {{"Q8", &names, "absent-person"},
                         {"Q9", &birthdays, "2100-01-"},
                         {"Q11", &characters, "absent-character"}};
  for (size_t k = 0; k < std::size(bound); ++k) {
    for (const std::string& key : DrawKeys(*bound[k].values, bound[k].absent,
                                           rng)) {
      add(0, k, Request{0, imdb::QueryText(bound[k].query),
                        {{"c1", xq::CanonicalValue(key)}}, true, {}});
    }
  }
  for (const std::string& key : DrawKeys(names, "absent-person", rng)) {
    add(0, 3, Request{0, LiteralLookup(key), {}, true, {}});
  }
  // Q13's five-way join runs as nested loops in the DOM evaluator (about
  // 10^10 steps on this document), so it and the publish queries, whose
  // relational shape depends on the configuration, use ReferenceExecutor.
  add(1, 0, Request{1, imdb::QueryText("Q12"), {}, true, {}});
  add(1, 1, Request{1, imdb::QueryText("Q13"), {}, false, {}});
  add(2, 0, Request{2, imdb::QueryText("Q15"), {}, false, {}});
  add(2, 1, Request{2, imdb::QueryText("Q16"), {}, false, {}});
  add(2, 2, Request{2, imdb::QueryText("Q17"), {}, false, {}});
  for (const auto& kinds : mix.by_kind) {
    for (const auto& ids : kinds) mix.shapes.push_back(mix.distinct[ids[0]]);
  }
  return mix;
}

// A client's request stream: blocks of 20 slots (16 lookups, 3 joins,
// 1 publish) shuffled by the seed; each slot picks a kind of its class
// round-robin and a random distinct request of that kind.
std::vector<size_t> MakeStream(const Mix& mix, Rng* rng) {
  std::vector<size_t> stream;
  std::vector<size_t> next_kind(3, 0);
  while (stream.size() < kStreamPerClient) {
    std::vector<int> block;
    block.insert(block.end(), 16, 0);
    block.insert(block.end(), 3, 1);
    block.insert(block.end(), 1, 2);
    for (size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[rng->Uniform(i + 1)]);
    }
    for (int cls : block) {
      const auto& kinds = mix.by_kind[static_cast<size_t>(cls)];
      const auto& ids = kinds[next_kind[cls]++ % kinds.size()];
      stream.push_back(ids[rng->Uniform(ids.size())]);
    }
  }
  return stream;
}

// Plans a request on the uncached path, for the oracles and the engine
// replay.
struct Planned {
  opt::RelQuery query;
  std::vector<opt::PhysicalPlanPtr> plans;
};
Planned Plan(const Request& r, const map::Mapping& mapping) {
  xq::Query q = Unwrap(xq::ParseQuery(r.text), "parse query");
  Planned p;
  p.query = Unwrap(xlat::TranslateQuery(q, mapping), "translate");
  opt::Optimizer optimizer(mapping.catalog());
  auto planned = Unwrap(optimizer.PlanQuery(p.query), "plan");
  for (const auto& b : planned.blocks) p.plans.push_back(b.plan);
  return p;
}

// Checks every distinct request once against its oracle and stores the
// served response as the expectation for the timed loop.
void Verify(const xml::Document& doc, Served* s, Mix* mix,
            RunResult* result) {
  for (Request& r : mix->distinct) {
    serving::RequestOptions ro;
    ro.params = r.params;
    auto served = s->server->Serve(r.text, ro);
    bool ok = served.ok();
    if (ok && !r.dom_oracle) {
      Planned p = Plan(r, *s->mapping);
      engine::ReferenceExecutor ref(s->db.get(), r.params);
      auto want = ref.ExecuteQuery(p.query, p.plans);
      ok = want.ok() && want->SameRows(served->result);
    } else if (ok) {
      xq::Query q = Unwrap(xq::ParseQuery(r.text), "parse query");
      auto want = xq::EvaluateOnDocument(q, doc, r.params);
      ok = want.ok() && want->SameRows(served->result);
    }
    if (!ok) {
      std::fprintf(stderr, "oracle mismatch: %s\n", r.text.c_str());
    } else {
      r.expected = std::move(served->result);
    }
    result->Attempt(ok);
  }
}

struct Sample {
  double ms = 0;
  int cls = 0;
  double front_end_ms = 0;
  double exec_ms = 0;
  bool ok = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Runs both clients over their streams until `budget_ns` has passed (or,
// when `limit` > 0, for exactly `limit` requests each). The registry, when
// given, is installed on each client thread.
std::vector<Sample> RunClients(serving::QueryServer* server, const Mix& mix,
                               const std::vector<std::vector<size_t>>& streams,
                               int64_t budget_ns, size_t limit,
                               obs::Registry* registry, double* wall_s) {
  std::vector<std::vector<Sample>> per(kClients);
  std::atomic<bool> stop{false};
  int64_t start = NowNanos();
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      obs::ScopedRegistry scoped(registry);
      const std::vector<size_t>& stream = streams[static_cast<size_t>(t)];
      std::vector<Sample>& out = per[static_cast<size_t>(t)];
      for (size_t i = 0;; ++i) {
        if (limit > 0 ? i >= limit
                      : (stop.load(std::memory_order_relaxed) ||
                         ((i & 7) == 0 && NowNanos() - start >= budget_ns))) {
          break;
        }
        const Request& r = mix.distinct[stream[i % stream.size()]];
        serving::RequestOptions ro;
        ro.params = r.params;
        Sample s;
        s.cls = r.cls;
        s.start_ns = NowNanos();
        auto response = server->Serve(r.text, ro);
        s.end_ns = NowNanos();
        s.ms = MillisBetween(s.start_ns, s.end_ns);
        if (response.ok()) {
          s.front_end_ms = response->front_end_ms;
          s.exec_ms = response->exec_ms;
          s.ok = response->result.rows == r.expected.rows;
        }
        out.push_back(s);
      }
      if (limit == 0) stop.store(true, std::memory_order_relaxed);
    });
  }
  for (std::thread& c : clients) c.join();
  *wall_s = MillisBetween(start, NowNanos()) / 1e3;
  std::vector<Sample> all;
  for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
  return all;
}

// The registry keeps the first spans it is given (obs::Registry's cap) and
// only counts the rest; until it is full, every request also pays for
// storing its exec spans. A server that has run for a while is past that
// point, so the clients warm up until the registry drops spans.
void WarmUp(serving::QueryServer* server, const Mix& mix,
            const std::vector<std::vector<size_t>>& streams,
            obs::Registry* registry) {
  for (int round = 0; round < 200; ++round) {
    double wall_s = 0;
    RunClients(server, mix, streams, 0, 500, registry, &wall_s);
    if (registry->Snapshot().dropped_spans > 0) return;
  }
}

struct Prepared {
  xml::Document doc;
  std::string xml_text;
  xs::Schema config;
  Mix mix;
  std::vector<std::vector<size_t>> streams;
};

Prepared Prepare(const RunOptions& options) {
  Prepared p;
  imdb::ImdbScale scale;
  scale.shows = 300 * kScale;
  scale.directors = 120 * kScale;
  scale.actors = 400 * kScale;
  scale.seed = options.seed;
  p.doc = imdb::Generate(scale);
  p.xml_text = xml::Serialize(p.doc, /*pretty=*/false);
  xs::Schema raw = Unwrap(imdb::Schema(), "IMDB schema");
  xs::StatsSet stats = Unwrap(imdb::Stats(), "IMDB statistics");
  p.config = ps::AllInlined(xs::AnnotateSchema(raw, stats));
  Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 1);
  p.mix = MakeMix(p.doc, &rng);
  for (int t = 0; t < kClients; ++t) {
    p.streams.push_back(MakeStream(p.mix, &rng));
  }
  return p;
}

void Untraced(const RunOptions& options, RunResult* result) {
  Prepared p = Prepare(options);
  obs::Registry registry;
  obs::ScopedRegistry scoped(&registry);
  std::vector<double> setup_s;
  Served s;
  for (int i = 0; i < 7; ++i) {
    s = Served();  // release the previous copy before loading the next
    int64_t t0 = NowNanos();
    s = Load(p.xml_text, p.config, p.mix.shapes);
    setup_s.push_back(MillisBetween(t0, NowNanos()) / 1e3);
  }
  result->Set("setup_s", Median(setup_s), "s");
  Verify(p.doc, &s, &p.mix, result);

  WarmUp(s.server.get(), p.mix, p.streams, &registry);

  double cpu0 = CpuSeconds();
  double wall_s = 0;
  std::vector<Sample> samples = RunClients(
      s.server.get(), p.mix, p.streams,
      static_cast<int64_t>(options.seconds * 1e9), 0, &registry, &wall_s);
  double cpu_s = CpuSeconds() - cpu0;

  std::vector<double> ms;
  std::vector<std::string> classes;
  for (const Sample& x : samples) {
    result->Attempt(x.ok);
    ms.push_back(x.ms);
    classes.push_back(kClassNames[x.cls]);
  }
  auto n = static_cast<double>(samples.size());
  std::map<std::string, std::vector<double>> by_class =
      SplitByClass(ms, classes);
  result->Set("ops_per_s", n / wall_s, "1/s");
  // Joins hold most of the serving time (15% of requests at ~3 ms against
  // 80% at ~40 us). The median of the whole mix would fall between the
  // latency modes of the lookup kinds, and the lookup median moved about
  // twice as much as the join median between runs on a shared host.
  result->Set("p50_ms", Median(by_class["join"]), "ms");
  result->Set("cpu_ms_per_op", cpu_s * 1e3 / n, "ms");
  result->Set("rss_mb", PeakRssMb(), "MB");

  result->Detail("serve.qps", n / wall_s, "1/s");
  for (const auto& [cls, lat] : by_class) {
    result->DetailTiming("serve." + cls, lat);
  }
}

void Traced(const RunOptions& options, RunResult* result) {
  Prepared p = Prepare(options);
  obs::Registry registry;
  obs::ScopedRegistry scoped(&registry);
  Served s = Load(p.xml_text, p.config, p.mix.shapes);
  Verify(p.doc, &s, &p.mix, result);
  result->Set("serving.miss_ms", Median(s.miss_front_end_ms), "ms");
  WarmUp(s.server.get(), p.mix, p.streams, &registry);

  // Same request stream with the registry installed and not, alternated:
  // the cost of leaving metrics on.
  const size_t block = 1000;
  double with_s = 0, without_s = 0;
  for (int round = 0; round < 3; ++round) {
    double w = 0;
    RunClients(s.server.get(), p.mix, p.streams, 0, block, &registry, &w);
    with_s += w;
    RunClients(s.server.get(), p.mix, p.streams, 0, block, nullptr, &w);
    without_s += w;
  }
  result->Set("obs.overhead_frac", with_s / without_s - 1, "ratio");

  // Untraced vs traced blocks (registry on in both): the tracing overhead.
  // The traced blocks' samples become request spans with the serving
  // front end and engine execution the response reports as children.
  double plain_s = 0, traced_s = 0;
  Tracer tracer;
  for (int round = 0; round < 3; ++round) {
    double w = 0;
    RunClients(s.server.get(), p.mix, p.streams, 0, block, &registry, &w);
    plain_s += w;
    int64_t t0 = NowNanos();
    std::vector<Sample> got =
        RunClients(s.server.get(), p.mix, p.streams, 0, block, &registry, &w);
    for (const Sample& x : got) {
      result->Attempt(x.ok);
      int root = static_cast<int>(tracer.spans().size());
      tracer.Add("phase.request", x.start_ns, x.end_ns, -1);
      auto fe_ns = static_cast<int64_t>(x.front_end_ms * 1e6);
      auto exec_ns = static_cast<int64_t>(x.exec_ms * 1e6);
      tracer.Add("serving.front_end", x.start_ns, x.start_ns + fe_ns, root);
      static const char* const kEngine[] = {"engine.lookup", "engine.join",
                                            "engine.publish"};
      tracer.Add(kEngine[x.cls], x.end_ns - exec_ns, x.end_ns, root);
    }
    traced_s += MillisBetween(t0, NowNanos()) / 1e3;
  }
  result->Set("trace.overhead_frac", traced_s / plain_s - 1, "ratio");
  LayerTotals layers = AggregateLayers(tracer.spans());
  result->Set("serving.front_end_us",
              Median(layers.self_ms["serving.front_end"]) * 1e3, "us");
  result->Set("engine.lookup.exec_ms", Median(layers.self_ms["engine.lookup"]),
              "ms");
  result->Set("engine.join.exec_ms", Median(layers.self_ms["engine.join"]),
              "ms");
  result->Set("engine.publish.exec_ms",
              Median(layers.self_ms["engine.publish"]), "ms");
  result->Set("trace.coverage", layers.Coverage(), "ratio");
  result->Set("trace.unreconciled", static_cast<double>(layers.unreconciled),
              "count");
  result->Attempt(layers.Reconciled());
  result->Set("serving.hit_rate", s.server->CacheStats().HitRate(), "ratio");

  // Canonicalization alone, over the distinct request texts.
  std::vector<double> canon_us;
  for (int rep = 0; rep < 50; ++rep) {
    for (const Request& r : p.mix.distinct) {
      int64_t t0 = NowNanos();
      (void)serving::Canonicalize(r.text);
      canon_us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
    }
  }
  result->Set("serving.canonicalize_us", Median(canon_us), "us");

  // Work the engine does per row returned, per class, from a direct
  // Executor run of every distinct request.
  double tuples[3] = {0, 0, 0}, rows[3] = {0, 0, 0};
  for (const Request& r : p.mix.distinct) {
    Planned planned = Plan(r, *s.mapping);
    engine::Executor executor(s.db.get(), r.params);
    auto got = executor.ExecuteQuery(planned.query, planned.plans);
    result->Attempt(got.ok() && got->rows == r.expected.rows);
    tuples[r.cls] += executor.stats().tuples_processed;
    rows[r.cls] += executor.stats().rows_out;
  }
  for (int c = 0; c < 3; ++c) {
    result->Set(std::string("engine.") + kClassNames[c] +
                    ".rows_examined_per_row",
                rows[c] > 0 ? tuples[c] / rows[c] : 0, "ratio");
  }
}

}  // namespace

RunResult RunServeMixed(const RunOptions& options) {
  RunResult result;
  result.Config("mix", "lookup 80% (Q8,Q9,Q11,literal Q8; 5% absent keys), "
                       "join 15% (Q12,Q13), publish 5% (Q15,Q16,Q17)");
  result.Config("scale", std::to_string(kScale));
  result.Config("backend", "memory, all-inlined");
  result.Config("clients", std::to_string(kClients) + " closed loop");
  if (options.trace) {
    Traced(options, &result);
  } else {
    Untraced(options, &result);
  }
  return result;
}

}  // namespace legobench
