// legodb — command-line front end to the mapping engine.
//
// Usage:
//   legodb --schema schema.xalg --stats stats.st
//          --query 'Q1:0.4:FOR $v IN ...' [--query ...]
//          [--update 'add_review:2.0:imdb/show/reviews']
//          [--start so|si] [--beam N] [--threads N] [--threshold F]
//          [--budget-ms N] [--max-iterations N] [--max-candidates N]
//          [--failpoints SPEC] [--explain] [--explain-search]
//          [--explain-analyze] [--serve N] [--migrate-to so|si]
//          [--xml FILE] [--param NAME=VALUE] [--trace]
//          [--backend mem|disk] [--pool-pages N] [--page-size N]
//          [--metrics-out=FILE] [--trace-out=FILE]
//   legodb --demo imdb|auction       # run on the built-in applications
//
// Exit codes: 0 success, 2 configuration error (bad flags, unreadable or
// malformed input files), 3 runtime error (search/output failure).
//
// Prints the search summary, the chosen physical XML schema and the derived
// relational DDL. --explain-search dumps the per-iteration greedy-search
// trajectory (cost, candidates, elapsed ms, chosen transformation); --trace
// dumps the span tree and metrics of the run; --metrics-out writes the full
// obs::Report as JSON; --explain shows the SQL and plan for each query.
// --explain-analyze shreds a document into the chosen configuration (a
// synthetic one for the demos, the --xml file otherwise) and, for every
// workload query, executes the plan with per-operator profiling and prints
// the EXPLAIN ANALYZE tree (est vs actual rows, q-error, batches, seeks,
// self/total time); the trees also land as structured JSON blocks in the
// --metrics-out report. --param binds symbolic query constants for that
// execution. --serve N shreds the same document, stands up a
// serving::QueryServer over it, and serves each workload query N times
// through the prepared-plan cache, printing per-query latency and
// cache-hit columns plus the cache's hit/miss/eviction totals.
// --trace-out writes the whole run (search iterations and
// executor open/next phases) as Chrome-trace JSON loadable by
// chrome://tracing or Perfetto. --migrate-to so|si (with --serve) runs an
// online migration to the fully-outlined/fully-inlined configuration on a
// background thread *while* the serving loop is running, then prints the
// migration report and the plan cache's stale-recompile count — a live
// demonstration of the shadow-shred / verify / swap pipeline.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "auction/auction.h"
#include "common/failpoint.h"
#include "serving/migrator.h"
#include "serving/server.h"
#include "core/explain.h"
#include "core/legodb.h"
#include "engine/executor.h"
#include "engine/explain_analyze.h"
#include "imdb/imdb.h"
#include "pschema/pschema.h"
#include "storage/database.h"
#include "storage/db_registry.h"
#include "storage/shredder.h"
#include "xml/parser.h"
#include "xschema/stats_collector.h"
#include "optimizer/optimizer.h"
#include "translate/translate.h"

using namespace legodb;

namespace {

// Distinct exit codes so scripts can tell bad inputs from engine faults.
constexpr int kExitConfigError = 2;
constexpr int kExitRuntimeError = 3;

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Splits "name:weight:rest" (rest may contain ':').
StatusOr<std::tuple<std::string, double, std::string>> ParseSpec(
    const std::string& spec) {
  size_t first = spec.find(':');
  size_t second = first == std::string::npos ? first : spec.find(':', first + 1);
  if (second == std::string::npos) {
    return Status::InvalidArgument("expected name:weight:text, got " + spec);
  }
  std::string name = spec.substr(0, first);
  double weight = std::strtod(spec.substr(first + 1, second - first - 1).c_str(),
                              nullptr);
  return std::tuple<std::string, double, std::string>{
      name, weight, spec.substr(second + 1)};
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: legodb --schema FILE --stats FILE --query NAME:W:XQUERY...\n"
      "              [--update NAME:W:path/to/element]... [--start so|si]\n"
      "              [--beam N] [--threads N] [--threshold F] [--explain]\n"
      "              [--explain-search] [--explain-analyze] [--serve N]\n"
      "              [--migrate-to so|si]\n"
      "              [--xml FILE] [--param NAME=VALUE]... [--trace]\n"
      "              [--metrics-out=FILE] [--trace-out=FILE] [--budget-ms N]\n"
      "              [--max-iterations N] [--max-candidates N]\n"
      "              [--failpoints SPEC]\n"
      "              [--backend mem|disk] [--pool-pages N] [--page-size N]\n"
      "       legodb --demo imdb|auction [--explain] [--explain-search]\n"
      "              [--explain-analyze] [--serve N] [--trace]\n"
      "              [--metrics-out=FILE] [--trace-out=FILE]\n");
  return kExitConfigError;
}

// Splits "name=value"; values that parse wholly as integers bind as ints,
// everything else as strings.
StatusOr<std::pair<std::string, Value>> ParseParam(const std::string& spec) {
  size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("expected NAME=VALUE, got " + spec);
  }
  std::string name = spec.substr(0, eq);
  std::string text = spec.substr(eq + 1);
  char* end = nullptr;
  long long n = std::strtoll(text.c_str(), &end, 10);
  if (!text.empty() && end != nullptr && *end == '\0') {
    return std::pair<std::string, Value>{name, Value::Int(n)};
  }
  return std::pair<std::string, Value>{name, Value::Str(text)};
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << content;
  return out.good() ? Status::OK()
                    : Status::Internal("short write to " + path);
}

}  // namespace

int main(int argc, char** argv) {
  fp::EnableFromEnvOnce();
  // One registry for the whole invocation: FindBestConfiguration records its
  // search spans here, and --explain-analyze adds executor spans, so
  // --trace/--metrics-out/--trace-out see the complete run.
  obs::Registry run_registry;
  obs::ScopedRegistry run_scope(&run_registry);
  core::MappingEngine engine;
  core::SearchOptions options = core::GreedySoOptions();
  bool explain = false;
  bool explain_search = false;
  bool explain_analyze = false;
  int serve_reps = 0;
  // Raw query texts by workload name: serving re-enters through the lexical
  // canonicalizer, so it needs the original text, not the parsed AST.
  std::map<std::string, std::string> query_texts;
  bool trace = false;
  std::string metrics_out;
  std::string trace_out;
  std::string xml_path;
  std::string migrate_to;  // "", "so", or "si"
  bool disk = false;       // --backend disk: paged storage + buffer pool
  long pool_pages = 256;
  long page_size = 8192;
  std::map<std::string, Value> params;
  bool have_schema = false;
  std::string demo;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    Status st;
    std::string st_context;  // names the offending file/flag in errors
    if (arg == "--demo") {
      const char* v = next();
      if (!v) return Usage();
      demo = v;
    } else if (arg == "--schema") {
      const char* v = next();
      if (!v) return Usage();
      auto text = ReadFile(v);
      st = text.ok() ? engine.LoadSchemaText(text.value()) : text.status();
      st_context = std::string("schema file ") + v;
      have_schema = true;
    } else if (arg == "--stats") {
      const char* v = next();
      if (!v) return Usage();
      auto text = ReadFile(v);
      st = text.ok() ? engine.LoadStatsText(text.value()) : text.status();
      st_context = std::string("stats file ") + v;
    } else if (arg == "--query") {
      const char* v = next();
      if (!v) return Usage();
      auto spec = ParseSpec(v);
      if (!spec.ok()) {
        st = spec.status();
      } else {
        auto [name, weight, text] = spec.value();
        st = engine.AddQuery(name, text, weight);
        if (st.ok()) query_texts[name] = text;
      }
    } else if (arg == "--update") {
      const char* v = next();
      if (!v) return Usage();
      auto spec = ParseSpec(v);
      if (!spec.ok()) {
        st = spec.status();
      } else {
        auto [name, weight, path] = spec.value();
        core::Workload w = engine.workload();
        w.AddUpdate(name, core::UpdateOp::Kind::kInsert, path, weight);
        engine.SetWorkload(std::move(w));
      }
    } else if (arg == "--start") {
      const char* v = next();
      if (!v) return Usage();
      options = std::strcmp(v, "si") == 0 ? core::GreedySiOptions()
                                          : core::GreedySoOptions();
    } else if (arg == "--beam") {
      const char* v = next();
      if (!v) return Usage();
      options.beam_width = std::atoi(v);
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return Usage();
      options.threads = std::atoi(v);
    } else if (arg == "--threshold") {
      const char* v = next();
      if (!v) return Usage();
      options.min_relative_improvement = std::strtod(v, nullptr);
    } else if (arg == "--budget-ms") {
      const char* v = next();
      if (!v) return Usage();
      options.budget_ms = std::atoll(v);
    } else if (arg == "--max-iterations") {
      const char* v = next();
      if (!v) return Usage();
      options.max_iterations = std::atoi(v);
    } else if (arg == "--max-candidates") {
      const char* v = next();
      if (!v) return Usage();
      options.max_candidates = std::atoll(v);
    } else if (arg == "--failpoints") {
      const char* v = next();
      if (!v) return Usage();
      st = fp::Enable(v);
      st_context = "--failpoints";
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--explain-search") {
      explain_search = true;
    } else if (arg == "--explain-analyze") {
      explain_analyze = true;
    } else if (arg == "--serve") {
      const char* v = next();
      if (!v) return Usage();
      serve_reps = std::atoi(v);
      if (serve_reps < 1) return Usage();
    } else if (arg == "--migrate-to") {
      const char* v = next();
      if (!v) return Usage();
      migrate_to = v;
      if (migrate_to != "so" && migrate_to != "si") {
        std::fprintf(stderr, "--migrate-to expects so or si\n");
        return Usage();
      }
    } else if (arg == "--xml") {
      const char* v = next();
      if (!v) return Usage();
      xml_path = v;
    } else if (arg == "--param") {
      const char* v = next();
      if (!v) return Usage();
      auto param = ParseParam(v);
      if (!param.ok()) {
        st = param.status();
        st_context = "--param";
      } else {
        params[param->first] = param->second;
      }
    } else if (arg == "--backend") {
      const char* v = next();
      if (!v) return Usage();
      if (std::strcmp(v, "disk") == 0) {
        disk = true;
      } else if (std::strcmp(v, "mem") == 0) {
        disk = false;
      } else {
        std::fprintf(stderr, "--backend expects mem or disk\n");
        return Usage();
      }
    } else if (arg == "--pool-pages") {
      const char* v = next();
      if (!v) return Usage();
      pool_pages = std::atol(v);
    } else if (arg == "--page-size") {
      const char* v = next();
      if (!v) return Usage();
      page_size = std::atol(v);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::strlen("--metrics-out="));
      if (metrics_out.empty()) return Usage();
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return Usage();
      metrics_out = v;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
      if (trace_out.empty()) return Usage();
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return Usage();
      trace_out = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage();
    }
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s%s%s\n", st_context.c_str(),
                   st_context.empty() ? "" : ": ", st.ToString().c_str());
      return kExitConfigError;
    }
  }

  // On the disk backend the cost model prices page-granular IO, matching
  // what the buffer pool will actually measure.
  if (disk) {
    engine.mutable_cost_params()->page_size =
        static_cast<double>(std::max(512L, page_size));
  }

  if (demo == "imdb") {
    if (!engine.LoadSchemaText(imdb::SchemaText()).ok() ||
        !engine.LoadStatsText(imdb::StatsText()).ok()) {
      return kExitRuntimeError;
    }
    for (const char* q : {"Q1", "Q3", "Q8", "Q16"}) {
      (void)engine.AddQuery(q, imdb::QueryText(q), 0.25);
      query_texts[q] = imdb::QueryText(q);
    }
    have_schema = true;
  } else if (demo == "auction") {
    auto schema = auction::Schema();
    auto workload = auction::MakeWorkload("bidding");
    if (!schema.ok() || !workload.ok()) return kExitRuntimeError;
    auction::AuctionScale scale;
    xml::Document doc = auction::Generate(scale);
    xs::StatsCollector collector;
    collector.AddDocument(doc);
    engine.SetSchema(std::move(schema).value());
    engine.SetStats(collector.Finish());
    engine.SetWorkload(std::move(workload).value());
    for (const auto& wq : engine.workload().queries) {
      if (const char* text = auction::QueryText(wq.name)) {
        query_texts[wq.name] = text;
      }
    }
    have_schema = true;
  } else if (!demo.empty()) {
    std::fprintf(stderr, "unknown demo: %s\n", demo.c_str());
    return Usage();
  }
  if (!have_schema || engine.workload().queries.empty()) return Usage();

  auto result = engine.FindBestConfiguration(options);
  if (!result.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 result.status().ToString().c_str());
    return kExitRuntimeError;
  }
  std::printf("=== search: %s ===\n",
              core::SearchSummary(result->search).c_str());
  if (explain_search) {
    std::printf("%s", core::ExplainSearchTable(result->search).c_str());
  } else {
    for (const auto& step : result->search.trace) {
      std::printf("  %2d  %14.1f  %s\n", step.iteration, step.cost,
                  step.applied.c_str());
    }
  }
  std::printf("\n=== physical XML schema ===\n%s\n",
              result->search.best_schema.ToString().c_str());
  std::printf("=== relational configuration ===\n%s\n",
              result->mapping.catalog().ToDdl().c_str());

  if (explain) {
    opt::Optimizer optimizer(result->mapping.catalog(),
                             *engine.mutable_cost_params());
    for (const auto& wq : engine.workload().queries) {
      auto rq = xlat::TranslateQuery(wq.query, result->mapping);
      if (!rq.ok()) continue;
      std::printf("=== %s ===\n%s\n", wq.name.c_str(), rq->ToSql(result->mapping.catalog()).c_str());
      auto planned = optimizer.PlanQuery(rq.value());
      if (planned.ok()) {
        for (size_t i = 0; i < planned->blocks.size(); ++i) {
          std::printf("%s", planned->blocks[i]
                                .plan->ToString(result->mapping.catalog(),
                                                rq->blocks[i])
                                .c_str());
        }
      }
      std::printf("\n");
    }
  }

  // --explain-analyze: shred a document into the chosen configuration and
  // run every workload query with per-operator profiling. Blobs collected
  // here land in the final metrics report.
  std::vector<std::pair<std::string, std::string>> explain_blobs;
  if (explain_analyze || serve_reps > 0) {
    StatusOr<xml::Document> doc = [&]() -> StatusOr<xml::Document> {
      if (!xml_path.empty()) {
        LEGODB_ASSIGN_OR_RETURN(std::string text, ReadFile(xml_path));
        return xml::ParseDocument(text);
      }
      if (demo == "imdb") return imdb::Generate(imdb::ImdbScale{});
      if (demo == "auction") return auction::Generate(auction::AuctionScale{});
      return Status::InvalidArgument(
          "execution needs a document: pass --xml FILE or use --demo");
    }();
    if (!doc.ok()) {
      std::fprintf(stderr, "error: %s: %s\n",
                   explain_analyze ? "--explain-analyze" : "--serve",
                   doc.status().ToString().c_str());
      return kExitConfigError;
    }
    // Demo parameter defaults; explicit --param bindings win.
    if (demo == "imdb") {
      params.emplace("c1", Value::Str("title1"));
      params.emplace("c2", Value::Str("title2"));
      params.emplace("c4", Value::Str("person3"));
    } else if (demo == "auction") {
      params.emplace("c1", Value::Str("person3"));
    }

    store::StorageOptions storage =
        disk ? store::StorageOptions::Paged(
                   static_cast<size_t>(std::max(512L, page_size)),
                   static_cast<size_t>(std::max(1L, pool_pages)))
             : store::StorageOptions::Memory();
    store::Database db(result->mapping.catalog(), storage);
    Status st = store::ShredDocument(doc.value(), result->mapping, &db);
    if (st.ok()) st = db.PrewarmIndexes();
    if (!st.ok()) {
      std::fprintf(stderr, "error: shred/prewarm: %s\n",
                   st.ToString().c_str());
      return kExitRuntimeError;
    }

    if (explain_analyze) {
      opt::Optimizer optimizer(result->mapping.catalog(),
                               *engine.mutable_cost_params());
      engine::ExecOptions exec_options;
      exec_options.collect_profile = true;
      engine::Executor exec(&db, params, exec_options);
      for (const auto& wq : engine.workload().queries) {
        auto rq = xlat::TranslateQuery(wq.query, result->mapping);
        if (!rq.ok()) {
          std::printf("=== EXPLAIN ANALYZE %s ===\n  (not executable: %s)\n\n",
                      wq.name.c_str(), rq.status().ToString().c_str());
          continue;
        }
        auto planned = optimizer.PlanQuery(rq.value());
        if (!planned.ok()) {
          std::fprintf(stderr, "error: plan %s: %s\n", wq.name.c_str(),
                       planned.status().ToString().c_str());
          return kExitRuntimeError;
        }
        std::vector<opt::PhysicalPlanPtr> plans;
        for (const auto& b : planned->blocks) plans.push_back(b.plan);
        auto rows = exec.ExecuteQuery(rq.value(), plans);
        if (!rows.ok()) {
          std::fprintf(stderr, "error: execute %s: %s\n", wq.name.c_str(),
                       rows.status().ToString().c_str());
          return kExitRuntimeError;
        }
        std::printf("=== EXPLAIN ANALYZE %s (%zu rows) ===\n%s\n",
                    wq.name.c_str(), rows->rows.size(),
                    engine::ExplainAnalyzeTable(exec.profile()).c_str());
        explain_blobs.emplace_back("explain_analyze." + wq.name,
                                   engine::ExplainAnalyzeJson(exec.profile()));
      }
    }

    // --serve N: every workload query through the prepared-plan cache. The
    // first request per query misses (parse/translate/optimize/compile);
    // the remaining N-1 bind parameters into the cached templates.
    if (serve_reps > 0) {
      // Serving goes through a versioned registry so --migrate-to can swap
      // the configuration underneath the loop. The initial version borrows
      // the stack-owned mapping/db (no-op deleters); migrated versions are
      // owned by the registry.
      store::DbRegistry registry(
          std::shared_ptr<const map::Mapping>(&result->mapping,
                                              [](const map::Mapping*) {}),
          std::shared_ptr<store::Database>(&db, [](store::Database*) {}));
      serving::QueryServer server(&registry);
      Status prewarm = server.Prewarm();
      if (!prewarm.ok()) {
        std::fprintf(stderr, "error: --serve prewarm: %s\n",
                     prewarm.ToString().c_str());
        return kExitRuntimeError;
      }

      // --migrate-to: shadow-shred / verify / swap on a background thread
      // while the serving loop below keeps answering queries.
      std::thread migration_thread;
      StatusOr<serving::MigrationReport> migration_report =
          Status::Unavailable("migration not run");
      serving::Migrator migrator(&registry, &doc.value());
      if (!migrate_to.empty()) {
        xs::Schema target = migrate_to == "si"
                                ? ps::AllInlined(result->search.best_schema)
                                : ps::AllOutlined(result->search.best_schema);
        std::vector<serving::MigrationQuery> verify_queries;
        for (const auto& [name, text] : query_texts) {
          verify_queries.push_back({name, text});
        }
        serving::MigrationOptions migration_options;
        migration_options.params = params;
        // Everything the thread reads is moved/copied in: the enclosing
        // block exits while the migration is still running. The ambient
        // obs registry is thread-local, so the thread re-installs the
        // run's registry (the core::ParallelFor worker pattern) — without
        // it every migration.* metric and migrate.* span would vanish.
        obs::Registry* run_registry_ptr = obs::Current();
        migration_thread = std::thread(
            [&migrator, &migration_report, run_registry_ptr,
             target = std::move(target),
             verify_queries = std::move(verify_queries),
             migration_options = std::move(migration_options)] {
              obs::ScopedRegistry scoped(run_registry_ptr);
              migration_report = migrator.MigrateTo(target, verify_queries,
                                                    migration_options);
            });
      }

      serving::RequestOptions request;
      request.params = params;
      std::printf("=== serving (%d requests per query) ===\n", serve_reps);
      std::printf("  %-10s %8s %6s %12s %12s\n", "query", "rows", "hits",
                  "first_ms", "cached_ms");
      for (const auto& wq : engine.workload().queries) {
        auto text_it = query_texts.find(wq.name);
        if (text_it == query_texts.end()) {
          std::printf("  %-10s (no source text; skipped)\n",
                      wq.name.c_str());
          continue;
        }
        size_t rows = 0;
        int hits = 0;
        double first_ms = 0, cached_ms = 0;
        bool failed = false;
        for (int r = 0; r < serve_reps && !failed; ++r) {
          int64_t t0 = obs::NowNanos();
          auto response = server.Serve(text_it->second, request);
          double ms = static_cast<double>(obs::NowNanos() - t0) / 1e6;
          if (!response.ok()) {
            std::printf("  %-10s (failed: %s)\n", wq.name.c_str(),
                        response.status().ToString().c_str());
            failed = true;
            break;
          }
          rows = response->result.rows.size();
          if (response->cache_hit) {
            ++hits;
            cached_ms += ms;
          } else {
            first_ms = ms;
          }
        }
        if (failed) continue;
        std::printf("  %-10s %8zu %6d %12.3f %12.3f\n", wq.name.c_str(),
                    rows, hits, first_ms,
                    hits == 0 ? 0 : cached_ms / hits);
      }
      if (migration_thread.joinable()) migration_thread.join();
      if (!migrate_to.empty()) {
        if (migration_report.ok()) {
          std::printf("=== migration (--migrate-to %s) ===\n%s\n",
                      migrate_to.c_str(),
                      migration_report->ToString().c_str());
        } else {
          std::printf(
              "=== migration (--migrate-to %s) ===\nrolled back: %s\n",
              migrate_to.c_str(),
              migration_report.status().ToString().c_str());
        }
        std::printf("serving generation now %llu\n",
                    static_cast<unsigned long long>(registry.generation()));
      }
      serving::PlanCache::Stats stats = server.CacheStats();
      std::printf(
          "plan cache: %zu entries, %lld hits / %lld misses (rate %.3f), "
          "%lld evictions, %lld collisions, %lld stale recompiles\n\n",
          stats.entries, static_cast<long long>(stats.hits),
          static_cast<long long>(stats.misses), stats.HitRate(),
          static_cast<long long>(stats.evictions),
          static_cast<long long>(stats.collisions),
          static_cast<long long>(stats.stale));
    }
  }

  // Final report: a fresh snapshot of the run registry sees the search
  // spans (FindBestConfiguration recorded into the ambient registry) plus
  // any execution spans from --explain-analyze.
  obs::Report report = run_registry.Snapshot();
  report.SetMeta("tool", "legodb_cli");
  if (!demo.empty()) report.SetMeta("workload", demo);
  for (auto& blob : explain_blobs) {
    report.AddBlob(blob.first, blob.second);
  }
  if (trace) {
    std::printf("\n=== trace ===\n%s\n=== metrics ===\n%s",
                report.SpanTable().c_str(), report.MetricsTable().c_str());
  }
  if (!metrics_out.empty()) {
    Status st = WriteFile(metrics_out, report.ToJson());
    if (!st.ok()) {
      std::fprintf(stderr, "error: metrics file %s: %s\n",
                   metrics_out.c_str(), st.ToString().c_str());
      return kExitRuntimeError;
    }
    std::printf("metrics report written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    Status st = WriteFile(trace_out, report.ToChromeTrace());
    if (!st.ok()) {
      std::fprintf(stderr, "error: trace file %s: %s\n", trace_out.c_str(),
                   st.ToString().c_str());
      return kExitRuntimeError;
    }
    std::printf("chrome trace written to %s (load in chrome://tracing)\n",
                trace_out.c_str());
  }
  return 0;
}
