// Concurrent serving benchmark: hammers the fig10 workload through
// serving::QueryServer from N client threads and reports steady-state
// latency quantiles and throughput per thread count.
//
// The run has three parts:
//
//  1. a correctness gate — every workload query is executed uncached
//     (parse/translate/optimize/execute, the pre-serving path) and served
//     twice (cache miss, then cache hit); all three row sets must be
//     bit-identical or the bench exits nonzero before timing anything;
//  2. a canonicalization check — literal-variant queries (same shape,
//     different comparison literals) must collapse into one cache entry;
//  3. the timed sweep — for each thread count, N client threads issue
//     `--requests` round-robin requests against a prewarmed server and the
//     merged per-request latencies yield exact p50/p99 plus QPS.
//
// Latencies also feed the obs serving.request_ms histogram, and the sweep
// results are exported as gauges (serving.tN.{p50_ms,p99_ms,qps}), so a
// JSON output path captures them in the `legodb --metrics-out` format.
//
// Requests rejected with Status::Unavailable (possible once
// --max-inflight bounds admission) are not dropped: they retry through
// serving::ServeWithRetry with bounded exponential backoff, and the sweep
// reports total retries in the serving.tN.retries gauges.
//
//   serving [--threads=1,4,8] [--requests=N] [--scale=N]
//           [--batch-size=N] [--cache-shards=N] [--cache-capacity=N]
//           [--max-inflight=N] [BENCH_out.json]
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "engine/executor.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "serving/retry.h"
#include "serving/server.h"
#include "storage/shredder.h"
#include "translate/translate.h"
#include "xquery/parser.h"

using namespace legodb;

namespace {

// The fig10 lookup + publish texts, plus literal variants of Q8 that must
// all canonicalize into one cached plan.
std::vector<std::string> WorkloadTexts() {
  std::vector<std::string> texts;
  for (const char* name :
       {"Q8", "Q9", "Q11", "Q12", "Q13", "Q15", "Q16", "Q17"}) {
    texts.push_back(imdb::QueryText(name));
  }
  for (int i = 1; i <= 4; ++i) {
    texts.push_back(
        "FOR $v IN document(\"imdbdata\")/imdb/actor WHERE $v/name = "
        "\"person" +
        std::to_string(i) + "\" RETURN $v/biography/birthday");
  }
  return texts;
}

std::map<std::string, Value> WorkloadParams() {
  return {{"c1", Value::Str("title1")},
          {"c2", Value::Str("title2")},
          {"c4", Value::Str("person3")}};
}

// The pre-serving path: full front end on every execution.
xq::ResultSet ExecuteUncached(store::Database* db, const map::Mapping& mapping,
                              const std::string& text,
                              const std::map<std::string, Value>& params,
                              const engine::ExecOptions& exec) {
  auto query = bench::Unwrap(xq::ParseQuery(text), "parse");
  auto rq = bench::Unwrap(xlat::TranslateQuery(query, mapping), "translate");
  opt::Optimizer optimizer(mapping.catalog());
  auto planned = bench::Unwrap(optimizer.PlanQuery(rq), "plan");
  std::vector<opt::PhysicalPlanPtr> plans;
  for (const auto& b : planned.blocks) plans.push_back(b.plan);
  engine::Executor executor(db, params, exec);
  return bench::Unwrap(executor.ExecuteQuery(rq, plans), "execute");
}

// Correctness gate: served results (miss and hit) must match the uncached
// path row for row. Runs before any timing; exits nonzero on mismatch.
void VerifyServing(store::Database* db, const map::Mapping& mapping,
                   const std::vector<std::string>& texts,
                   const engine::ExecOptions& exec) {
  serving::ServerOptions options;
  options.exec = exec;
  serving::QueryServer server(db, &mapping, options);
  bench::Check(server.Prewarm(), "prewarm");
  serving::RequestOptions request;
  request.params = WorkloadParams();
  for (const std::string& text : texts) {
    xq::ResultSet expected =
        ExecuteUncached(db, mapping, text, request.params, exec);
    auto miss = bench::Unwrap(server.Serve(text, request), "serve miss");
    auto hit = bench::Unwrap(server.Serve(text, request), "serve hit");
    if (!hit.cache_hit) {
      std::fprintf(stderr, "FATAL: second serve missed the plan cache\n");
      std::exit(1);
    }
    if (!(miss.result.rows == expected.rows) ||
        !(hit.result.rows == expected.rows)) {
      std::fprintf(stderr, "FATAL: served results differ from uncached\n");
      std::exit(1);
    }
  }
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs_session;
  std::vector<int> thread_counts = {1, 4, 8};
  int requests = 400;  // per client thread
  int scale = 1;
  size_t batch_size = 1024;
  size_t cache_shards = 8;
  size_t cache_capacity = 64;
  size_t max_inflight = 0;  // 0 = unbounded (no Unavailable, no retries)
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (bench::FlagValue(argv[i], "threads", &v)) {
      thread_counts.clear();
      for (const char* p = v; *p != '\0';) {
        thread_counts.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (bench::FlagValue(argv[i], "requests", &v)) {
      requests = std::atoi(v);
    } else if (bench::FlagValue(argv[i], "scale", &v)) {
      scale = std::atoi(v);
    } else if (bench::FlagValue(argv[i], "batch-size", &v)) {
      batch_size = static_cast<size_t>(std::atol(v));
    } else if (bench::FlagValue(argv[i], "cache-shards", &v)) {
      cache_shards = static_cast<size_t>(std::atol(v));
    } else if (bench::FlagValue(argv[i], "cache-capacity", &v)) {
      cache_capacity = static_cast<size_t>(std::atol(v));
    } else if (bench::FlagValue(argv[i], "max-inflight", &v)) {
      max_inflight = static_cast<size_t>(std::atol(v));
    } else {
      json_out = argv[i];
    }
  }
  if (requests < 1) requests = 1;
  if (scale < 1) scale = 1;
  if (batch_size == 0) batch_size = 1;

  engine::ExecOptions exec;
  exec.batch_size = batch_size;

  // Shred the fig10 database (all-inlined IMDB, micro_engine's scale).
  xs::Schema config = ps::AllInlined(bench::AnnotatedImdb());
  auto mapping = bench::Unwrap(map::MapSchema(config), "map");
  store::Database db(mapping.catalog());
  {
    imdb::ImdbScale data_scale;
    data_scale.shows = 300 * scale;
    data_scale.directors = 120 * scale;
    data_scale.actors = 400 * scale;
    xml::Document doc = imdb::Generate(data_scale);
    bench::Check(store::ShredDocument(doc, mapping, &db), "shred");
  }
  std::vector<std::string> texts = WorkloadTexts();

  VerifyServing(&db, mapping, texts, exec);
  std::printf(
      "serving bench: %zu workload texts, results bit-identical cached vs. "
      "uncached\n\n",
      texts.size());

  TablePrinter table({"threads", "requests", "p50_ms", "p99_ms", "qps",
                      "hit_rate", "fe_hit_us"});
  for (int nthreads : thread_counts) {
    if (nthreads < 1) continue;
    // Fresh server per thread count so the reported hit rate covers exactly
    // this sweep (one warmup pass populates the cache).
    serving::ServerOptions options;
    options.exec = exec;
    options.cache_shards = cache_shards;
    options.cache_capacity_per_shard = cache_capacity;
    options.max_inflight = max_inflight;
    serving::QueryServer server(&db, &mapping, options);
    bench::Check(server.Prewarm(), "prewarm");
    serving::RequestOptions request;
    request.params = WorkloadParams();
    for (const std::string& text : texts) {
      bench::Check(server.Serve(text, request).status(), "warmup");
    }

    std::vector<std::vector<double>> latencies(
        static_cast<size_t>(nthreads));
    std::vector<double> hit_front_end_ms(static_cast<size_t>(nthreads), 0);
    std::vector<int64_t> hit_counts(static_cast<size_t>(nthreads), 0);
    std::vector<serving::RetryStats> retry_stats(
        static_cast<size_t>(nthreads));
    int64_t sweep_start = obs::NowNanos();
    std::vector<std::thread> clients;
    for (int t = 0; t < nthreads; ++t) {
      clients.emplace_back([&, t] {
        // Share the session registry from every client thread so
        // histograms/counters aggregate across the whole fleet.
        obs::ScopedRegistry scoped(obs_session.registry());
        // Per-thread deterministic jitter stream: shed requests back off
        // instead of being dropped from the measurement.
        serving::RetryPolicy retry;
        retry.seed = static_cast<uint64_t>(t) + 1;
        std::vector<double>& lat = latencies[static_cast<size_t>(t)];
        lat.reserve(static_cast<size_t>(requests));
        for (int r = 0; r < requests; ++r) {
          const std::string& text =
              texts[static_cast<size_t>(t + r) % texts.size()];
          int64_t start = obs::NowNanos();
          auto response = serving::ServeWithRetry(
              &server, text, request, retry,
              &retry_stats[static_cast<size_t>(t)]);
          bench::Check(response.status(), "serve");
          lat.push_back(static_cast<double>(obs::NowNanos() - start) / 1e6);
          if (response->cache_hit) {
            hit_front_end_ms[static_cast<size_t>(t)] +=
                response->front_end_ms;
            ++hit_counts[static_cast<size_t>(t)];
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
    double sweep_s =
        static_cast<double>(obs::NowNanos() - sweep_start) / 1e9;

    std::vector<double> all;
    for (const auto& lat : latencies) {
      all.insert(all.end(), lat.begin(), lat.end());
    }
    std::sort(all.begin(), all.end());
    double p50 = Quantile(all, 0.50);
    double p99 = Quantile(all, 0.99);
    double qps = sweep_s == 0 ? 0 : static_cast<double>(all.size()) / sweep_s;
    serving::PlanCache::Stats stats = server.CacheStats();
    double fe_ms = 0;
    int64_t hits = 0;
    for (size_t t = 0; t < hit_counts.size(); ++t) {
      fe_ms += hit_front_end_ms[t];
      hits += hit_counts[t];
    }
    double fe_hit_us = hits == 0 ? 0 : fe_ms / static_cast<double>(hits) * 1e3;

    int64_t total_retries = 0;
    double total_backoff_ms = 0;
    for (const serving::RetryStats& rs : retry_stats) {
      total_retries += rs.retries;
      total_backoff_ms += rs.backoff_ms;
    }

    std::string prefix = "serving.t" + std::to_string(nthreads);
    obs::SetGauge(prefix + ".p50_ms", p50);
    obs::SetGauge(prefix + ".p99_ms", p99);
    obs::SetGauge(prefix + ".qps", qps);
    obs::SetGauge(prefix + ".hit_rate", stats.HitRate());
    obs::SetGauge(prefix + ".retries", static_cast<double>(total_retries));
    obs::SetGauge(prefix + ".retry_backoff_ms", total_backoff_ms);
    table.AddRow({std::to_string(nthreads), std::to_string(all.size()),
                  FormatDouble(p50, 3), FormatDouble(p99, 3),
                  FormatDouble(qps, 0), FormatDouble(stats.HitRate(), 3),
                  FormatDouble(fe_hit_us, 1)});
  }
  table.Print();
  std::printf(
      "\nfe_hit_us = mean front-end (canonicalize + cache lookup) per "
      "cache-hit request; parse/translate/optimize are skipped entirely on "
      "hits.\n");

  if (!json_out.empty()) obs_session.WriteJson(json_out);
  return 0;
}
