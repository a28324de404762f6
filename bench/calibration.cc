// Cost-model calibration: runs the paper's query workloads over synthetic
// IMDB and auction databases, executes every query with per-operator
// profiling enabled, and reports how the optimizer's estimates line up
// with what the pipelined engine actually measured:
//
//  - per operator: estimated vs. actual cardinality as a q-error
//    (max(est/act, act/est), 1.0 = perfect);
//  - per query: estimated plan cost vs. measured wall milliseconds;
//  - per domain: Spearman rank correlation between estimated cost and
//    measured time across the workload — the cost model only has to *rank*
//    alternatives correctly for the search to pick good configurations, so
//    rank correlation is the calibration figure of merit.
//
// The summary statistics are exported through the obs registry as gauges
// (calibration.<domain>.spearman, .median_qerror, .max_qerror) and the
// per-operator q-errors as a histogram (calibration.qerror), so a JSON
// output path captures the whole report in the same format as the other
// BENCH_*.json trajectories:
//
//   calibration [--batch-size=N] [--scale=N] [--reps=N] [--backend=mem|disk]
//               [--pool-pages=N] [--page-size=N] [--require-io]
//               [BENCH_out.json]
//
// --batch-size sets the engine's per-Next() batch size, --scale multiplies
// the synthetic data volume, --reps the timed executions per query.
//
// --backend=disk runs both workloads over the paged storage backend
// (--page-size bytes per page, --pool-pages buffer-pool frames) and sets
// CostParams::page_size to match, so a second calibration axis opens up:
// the optimizer's decomposed seek/byte estimates (PhysicalPlan::est_seeks /
// est_bytes) against the buffer pool's *measured* fault traffic, reported
// as q-errors and Spearman rank correlations per domain
// (calibration.<domain>.seeks_spearman / .bytes_spearman). --require-io
// makes a zero-measured-IO run a hard failure (exit 1) — the disk smoke
// check in tools/check.sh uses it to prove the counters are real.
//
// Both domains plan with statistics collected from the very document they
// execute over, so the figures measure the cost model, not a mismatch
// between planned and loaded data. That makes them a gate: the run exits 1
// when any domain's median cardinality q-error exceeds 2, or when on the
// memory backend its seeks or bytes Spearman falls below 0.95 (ctest runs
// it as calibration_gate). Cost-vs-ms Spearman is reported but not gated —
// wall times rank too noisily — and neither is disk IO, which low rep
// counts measure cold.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "auction/auction.h"
#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "engine/executor.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "storage/shredder.h"
#include "translate/translate.h"
#include "xquery/parser.h"
#include "xschema/stats_collector.h"

using namespace legodb;

namespace {

struct QuerySpec {
  std::string name;
  std::string text;
  std::map<std::string, Value> params;  // bindings for symbolic constants
};

// Tie-averaged ranks (1-based) of `v`.
std::vector<double> Ranks(const std::vector<double>& v) {
  std::vector<size_t> order(v.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return v[a] < v[b]; });
  std::vector<double> ranks(v.size(), 0);
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]]) ++j;
    double rank = (static_cast<double>(i) + static_cast<double>(j)) / 2 + 1;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = rank;
    i = j + 1;
  }
  return ranks;
}

// Spearman rank correlation: Pearson correlation of the tie-averaged ranks.
double Spearman(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 2) return 0;
  std::vector<double> ra = Ranks(a), rb = Ranks(b);
  double n = static_cast<double>(a.size());
  double ma = std::accumulate(ra.begin(), ra.end(), 0.0) / n;
  double mb = std::accumulate(rb.begin(), rb.end(), 0.0) / n;
  double cov = 0, va = 0, vb = 0;
  for (size_t i = 0; i < ra.size(); ++i) {
    cov += (ra[i] - ma) * (rb[i] - mb);
    va += (ra[i] - ma) * (ra[i] - ma);
    vb += (rb[i] - mb) * (rb[i] - mb);
  }
  if (va == 0 || vb == 0) return 0;
  return cov / std::sqrt(va * vb);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double QError(double est, double act) {
  double lo = std::min(est, act), hi = std::max(est, act);
  if (hi <= 0) return 1.0;
  if (lo <= 0) return hi;  // one side zero: report the magnitude
  return hi / lo;
}

// The figures of one domain's report that main() checks.
struct DomainReport {
  double io_total = 0;  // measured seeks + bytes across the workload
  double median_qerror = 0;
  double seeks_spearman = 0;
  double bytes_spearman = 0;
};

// Statistics of the document a domain executes over, for annotation.
xs::StatsSet CollectStats(const xml::Document& doc) {
  xs::StatsCollector collector;
  collector.AddDocument(doc);
  return collector.Finish();
}

// Runs one domain's workload and prints + exports its calibration report.
DomainReport RunDomain(const std::string& domain, const map::Mapping& mapping,
                       store::Database* db,
                       const std::vector<QuerySpec>& queries,
                       const opt::CostParams& cost_params, size_t batch_size,
                       int reps) {
  std::printf("== %s ==\n", domain.c_str());
  opt::Optimizer optimizer(mapping.catalog(), cost_params);

  TablePrinter ops_table(
      {"query", "operator", "est_rows", "rows", "q-err", "ms"});
  std::vector<double> est_costs, measured_ms, qerrors;
  std::vector<double> est_seeks, act_seeks, est_bytes, act_bytes;
  std::vector<std::string> qnames;

  for (const QuerySpec& q : queries) {
    auto parsed = xq::ParseQuery(q.text);
    bench::Check(parsed.status(), q.name.c_str());
    auto rq = xlat::TranslateQuery(parsed.value(), mapping);
    bench::Check(rq.status(), q.name.c_str());
    auto planned = optimizer.PlanQuery(rq.value());
    bench::Check(planned.status(), q.name.c_str());
    std::vector<opt::PhysicalPlanPtr> plans;
    double est_cost = 0, q_est_seeks = 0, q_est_bytes = 0;
    for (const auto& b : planned->blocks) {
      plans.push_back(b.plan);
      if (b.plan) {
        est_cost += b.plan->est_cost;
        q_est_seeks += b.plan->est_seeks;
        q_est_bytes += b.plan->est_bytes;
      }
    }

    engine::ExecOptions options;
    options.batch_size = batch_size;
    options.collect_profile = true;
    engine::Executor exec(db, q.params, options);

    // Timed executions; the profile of the last run feeds the q-errors
    // (cardinalities are deterministic, so any run's profile is the same).
    // ExecStats accumulate across runs, so the per-run measured IO is the
    // delta over the loop divided by reps. On the paged backend the first
    // run faults pages in cold and later runs hit the pool, so the average
    // reflects steady-state traffic, exactly what the cost model predicts
    // only when data exceeds the pool — use small --pool-pages to exercise
    // the eviction path.
    engine::ExecStats before = exec.stats();
    int64_t start_ns = obs::NowNanos();
    for (int r = 0; r < reps; ++r) {
      auto result = exec.ExecuteQuery(rq.value(), plans);
      bench::Check(result.status(), q.name.c_str());
    }
    double ms =
        static_cast<double>(obs::NowNanos() - start_ns) / 1e6 / reps;
    double q_act_seeks = (exec.stats().seeks - before.seeks) / reps;
    double q_act_bytes =
        (exec.stats().bytes_read - before.bytes_read) / reps;

    for (const engine::OpActual& op : exec.profile().ops) {
      double qerr = op.QError();
      qerrors.push_back(qerr);
      obs::Observe("calibration.qerror", qerr);
      std::string label(2 * static_cast<size_t>(op.depth), ' ');
      label += op.label;
      ops_table.AddRow({q.name, label, FormatDouble(op.est_rows, 0),
                        std::to_string(op.actual_rows),
                        FormatDouble(qerr, 2), FormatDouble(op.ms, 3)});
    }
    est_costs.push_back(est_cost);
    measured_ms.push_back(ms);
    est_seeks.push_back(q_est_seeks);
    act_seeks.push_back(q_act_seeks);
    est_bytes.push_back(q_est_bytes);
    act_bytes.push_back(q_act_bytes);
    qnames.push_back(q.name);
  }
  ops_table.Print();

  TablePrinter summary({"query", "est_cost", "ms", "est_rank", "ms_rank",
                        "est_seeks", "seeks", "est_bytes", "bytes"});
  std::vector<double> cost_ranks = Ranks(est_costs);
  std::vector<double> ms_ranks = Ranks(measured_ms);
  for (size_t i = 0; i < qnames.size(); ++i) {
    summary.AddRow({qnames[i], FormatDouble(est_costs[i], 1),
                    FormatDouble(measured_ms[i], 3),
                    FormatDouble(cost_ranks[i], 1),
                    FormatDouble(ms_ranks[i], 1),
                    FormatDouble(est_seeks[i], 0),
                    FormatDouble(act_seeks[i], 0),
                    FormatDouble(est_bytes[i], 0),
                    FormatDouble(act_bytes[i], 0)});
    obs::Observe("calibration." + domain + ".query_ms", measured_ms[i]);
  }
  summary.Print();

  double rho = Spearman(est_costs, measured_ms);
  double med_q = Median(qerrors);
  double max_q = qerrors.empty()
                     ? 0
                     : *std::max_element(qerrors.begin(), qerrors.end());
  obs::SetGauge("calibration." + domain + ".spearman", rho);
  obs::SetGauge("calibration." + domain + ".median_qerror", med_q);
  obs::SetGauge("calibration." + domain + ".max_qerror", max_q);

  // IO calibration: the optimizer's decomposed seek/byte predictions
  // against what the engine measured — real buffer-pool fault traffic on
  // the paged backend, the modeled per-operator charges on memory.
  double seeks_rho = Spearman(est_seeks, act_seeks);
  double bytes_rho = Spearman(est_bytes, act_bytes);
  std::vector<double> seeks_qerrs, bytes_qerrs;
  DomainReport report;
  for (size_t i = 0; i < qnames.size(); ++i) {
    seeks_qerrs.push_back(QError(est_seeks[i], act_seeks[i]));
    bytes_qerrs.push_back(QError(est_bytes[i], act_bytes[i]));
    report.io_total += act_seeks[i] + act_bytes[i];
  }
  obs::SetGauge("calibration." + domain + ".seeks_spearman", seeks_rho);
  obs::SetGauge("calibration." + domain + ".bytes_spearman", bytes_rho);
  obs::SetGauge("calibration." + domain + ".seeks_median_qerror",
                Median(seeks_qerrs));
  obs::SetGauge("calibration." + domain + ".bytes_median_qerror",
                Median(bytes_qerrs));
  std::printf(
      "spearman(est_cost, measured_ms) = %.3f over %zu queries; "
      "cardinality q-error median %.2f, max %.2f\n"
      "spearman(est_seeks, seeks) = %.3f, spearman(est_bytes, bytes) = %.3f; "
      "seek q-error median %.2f, byte q-error median %.2f\n\n",
      rho, qnames.size(), med_q, max_q, seeks_rho, bytes_rho,
      Median(seeks_qerrs), Median(bytes_qerrs));
  report.median_qerror = med_q;
  report.seeks_spearman = seeks_rho;
  report.bytes_spearman = bytes_rho;
  return report;
}

// The calibration gate (see the file comment); prints each violation.
bool PassesGate(const std::string& domain, const DomainReport& r, bool disk) {
  bool ok = true;
  auto fail = [&](const char* what, double value, const char* bound) {
    std::fprintf(stderr, "calibration gate: %s %s = %.3f, want %s\n",
                 domain.c_str(), what, value, bound);
    ok = false;
  };
  if (r.median_qerror > 2) {
    fail("median cardinality q-error", r.median_qerror, "<= 2");
  }
  if (!disk && r.seeks_spearman < 0.95) {
    fail("seeks spearman", r.seeks_spearman, ">= 0.95");
  }
  if (!disk && r.bytes_spearman < 0.95) {
    fail("bytes spearman", r.bytes_spearman, ">= 0.95");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs_session("calibration");
  size_t batch_size = 1024;
  int scale = 1;
  int reps = 20;
  bool disk = false;
  bool require_io = false;
  size_t pool_pages = 16;
  size_t page_size = 4096;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (bench::FlagValue(argv[i], "batch-size", &v)) {
      batch_size = static_cast<size_t>(std::atol(v));
    } else if (bench::FlagValue(argv[i], "scale", &v)) {
      scale = std::atoi(v);
    } else if (bench::FlagValue(argv[i], "reps", &v)) {
      reps = std::atoi(v);
    } else if (bench::FlagValue(argv[i], "backend", &v)) {
      disk = std::strcmp(v, "disk") == 0;
    } else if (bench::FlagValue(argv[i], "pool-pages", &v)) {
      pool_pages = static_cast<size_t>(std::atol(v));
    } else if (bench::FlagValue(argv[i], "page-size", &v)) {
      page_size = static_cast<size_t>(std::atol(v));
    } else if (std::strcmp(argv[i], "--require-io") == 0) {
      require_io = true;
    } else {
      json_out = argv[i];
    }
  }
  if (batch_size == 0) batch_size = 1;
  if (scale < 1) scale = 1;
  if (reps < 1) reps = 1;
  if (pool_pages == 0) pool_pages = 1;
  store::StorageOptions storage =
      disk ? store::StorageOptions::Paged(page_size, pool_pages)
           : store::StorageOptions::Memory();
  opt::CostParams cost_params;
  if (disk) cost_params.page_size = static_cast<double>(page_size);
  {
    engine::ExecOptions options;
    options.batch_size = batch_size;
    bench::StampEngineMeta(&obs_session, options);
  }
  obs_session.SetMeta("backend", disk ? "disk" : "mem");
  std::printf(
      "Cost-model calibration: estimated vs. measured per operator and per\n"
      "query (batch_size=%zu, scale=%d, reps=%d, backend=%s",
      batch_size, scale, reps, disk ? "disk" : "mem");
  if (disk) {
    std::printf(", page_size=%zu, pool_pages=%zu", page_size, pool_pages);
  }
  std::printf(").\n\n");
  double measured_io = 0;
  bool gate_ok = true;

  // --- IMDB: the fig10 lookup + publish and fig13 workload queries. -------
  {
    imdb::ImdbScale data_scale;
    data_scale.shows = 120 * scale;
    data_scale.directors = 50 * scale;
    data_scale.actors = 150 * scale;
    xml::Document doc = imdb::Generate(data_scale);
    xs::Schema config = ps::AllInlined(
        xs::AnnotateSchema(bench::RawImdb(), CollectStats(doc)));
    auto mapping = bench::Unwrap(map::MapSchema(config), "map imdb");
    store::Database db(mapping.catalog(), storage);
    bench::Check(store::ShredDocument(doc, mapping, &db), "shred imdb");
    bench::Check(db.PrewarmIndexes(), "prewarm imdb");

    std::map<std::string, Value> params = {
        {"c1", Value::Str("title1")},
        {"c2", Value::Str("title2")},
        {"c4", Value::Str("person3")},
    };
    std::vector<QuerySpec> queries;
    for (const char* name : {"Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q11",
                             "Q12", "Q13", "Q15", "Q16", "Q17"}) {
      queries.push_back({name, imdb::QueryText(name), params});
    }
    // Q11 compares c1 with played/character, so bind it to a character.
    for (QuerySpec& q : queries) {
      if (q.name == "Q11") q.params["c1"] = Value::Str("character1");
    }
    DomainReport report = RunDomain("imdb", mapping, &db, queries,
                                    cost_params, batch_size, reps);
    measured_io += report.io_total;
    gate_ok &= PassesGate("imdb", report, disk);
  }

  // --- Auction: the bidding + export workload queries. --------------------
  {
    auction::AuctionScale data_scale;
    data_scale.people = 150 * scale;
    data_scale.open_auctions = 90 * scale;
    data_scale.closed_auctions = 60 * scale;
    xml::Document doc = auction::Generate(data_scale);
    auto schema = bench::Unwrap(auction::Schema(), "auction schema");
    xs::Schema config =
        ps::AllInlined(xs::AnnotateSchema(schema, CollectStats(doc)));
    auto mapping = bench::Unwrap(map::MapSchema(config), "map auction");
    store::Database db(mapping.catalog(), storage);
    bench::Check(store::ShredDocument(doc, mapping, &db), "shred auction");
    bench::Check(db.PrewarmIndexes(), "prewarm auction");

    // A3 and A5 look up auction/category ids, the rest person ids, so the
    // shared parameter c1 is bound per query.
    std::vector<QuerySpec> queries;
    for (const char* name : {"A1", "A2", "A3", "A4", "A5", "A6", "A7",
                             "A8"}) {
      std::map<std::string, Value> params = {{"c1", Value::Str("person3")}};
      if (std::strcmp(name, "A3") == 0) params["c1"] = Value::Str("open2");
      if (std::strcmp(name, "A5") == 0) {
        params["c1"] = Value::Str("category2");
      }
      queries.push_back({name, auction::QueryText(name), params});
    }
    DomainReport report = RunDomain("auction", mapping, &db, queries,
                                    cost_params, batch_size, reps);
    measured_io += report.io_total;
    gate_ok &= PassesGate("auction", report, disk);
  }

  if (!json_out.empty()) obs_session.WriteJson(json_out);
  if (require_io && measured_io <= 0) {
    std::fprintf(stderr,
                 "--require-io: no IO was measured across the workloads "
                 "(seeks + bytes == 0); storage counters are not wired up\n");
    return 1;
  }
  return gate_ok ? 0 : 1;
}
