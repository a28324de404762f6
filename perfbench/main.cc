// LegoDB benchmark program.
//
//   legobench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: design-search, serve-mixed, load-publish-paged (see
// BENCHMARK.json for why each exists). Every workload runs with an
// obs::Registry installed, as `legodb --serve` does, builds its inputs from
// the seed alone, checks every output it times, and prints as its last
// stdout line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics of a separate traced run. Lines before the last one
// are "config ..." and "detail ..." records for humans and ledgers.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <thread>

#include "bench.h"

namespace legobench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports untraced. The unit
// operation is one pass of the four searches (design-search), one request
// (serve-mixed), or one load + publish iteration (load-publish-paged);
// p50_ms is the median of the operation class that holds most of the
// workload's time (serve-mixed: joins).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"p50_ms", "ms"},
    {"cpu_ms_per_op", "ms"},
    {"rss_mb", "MB"},
};

// The per-layer metrics every traced run reports; a layer a workload does
// not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"search.iterations", "count"},
    {"search.candidates", "count"},
    {"search.dedup_hits", "count"},
    {"search.optimizer_calls", "count"},
    {"search.cost_cache_hits", "count"},
    {"search.cost_cache_hit_ratio", "ratio"},
    {"search.concurrency", "ratio"},
    {"core.enumerate_ms", "ms"},
    {"core.apply_ms", "ms"},
    {"core.cost_schema_ms", "ms"},
    {"mapping.map_ms", "ms"},
    {"xquery.parse_ms", "ms"},
    {"translate.ms", "ms"},
    {"optimizer.plan_ms", "ms"},
    {"serving.canonicalize_us", "us"},
    {"serving.front_end_us", "us"},
    {"serving.hit_rate", "ratio"},
    {"serving.miss_ms", "ms"},
    {"engine.lookup.exec_ms", "ms"},
    {"engine.join.exec_ms", "ms"},
    {"engine.publish.exec_ms", "ms"},
    {"engine.lookup.rows_examined_per_row", "ratio"},
    {"engine.join.rows_examined_per_row", "ratio"},
    {"engine.publish.rows_examined_per_row", "ratio"},
    {"obs.overhead_frac", "ratio"},
    {"xml.parse_ms", "ms"},
    {"storage.shred_ms", "ms"},
    {"storage.flush_ms", "ms"},
    {"storage.prewarm_ms", "ms"},
    {"storage.reconstruct_ms", "ms"},
    {"storage.pool_faults", "count"},
    {"storage.pool_hit_rate", "ratio"},
    {"storage.pool_evictions", "count"},
    {"storage.bytes_read", "B"},
    {"storage.bytes_written", "B"},
    {"storage.pages", "count"},
    {"trace.coverage", "ratio"},
    {"trace.unreconciled", "count"},
    {"trace.overhead_frac", "ratio"},
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "legobench: %s\nusage: legobench --workload "
               "design-search|serve-mixed|load-publish-paged --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

}  // namespace

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void Check(const legodb::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "legobench: %s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Quantile(v, 0.5);
}

void RunResult::DetailTiming(const std::string& name,
                             const std::vector<double>& ms) {
  Summary s = Summarize(ms);
  Detail(name + ".p50_ms", s.p50, "ms");
  if (s.tail_q > 0) {
    char q[16];
    std::snprintf(q, sizeof(q), "%g", s.tail_q * 100);
    Detail(name + ".p" + q + "_ms", s.tail, "ms");
  }
  Detail(name + ".samples", static_cast<double>(s.count), "count");
}

}  // namespace legobench

int main(int argc, char** argv) {
  using namespace legobench;
  RunOptions options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      options.trace = value == "1";
      have_trace = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty() || !have_trace) {
    Usage("--workload and --trace are required");
  }

  RunResult result;
  if (options.workload == "design-search") {
    result = RunDesignSearch(options);
  } else if (options.workload == "serve-mixed") {
    result = RunServeMixed(options);
  } else if (options.workload == "load-publish-paged") {
    result = RunLoadPublishPaged(options);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }

  std::printf("config workload=%s seed=%llu seconds=%g trace=%d nproc=%u\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, std::thread::hardware_concurrency());
  for (const auto& [key, value] : result.config) {
    std::printf("config %s=%s\n", key.c_str(), value.c_str());
  }
  result.Detail("failed_frac",
                result.attempted == 0
                    ? 1.0
                    : static_cast<double>(result.failed) /
                          static_cast<double>(result.attempted),
                "ratio");
  for (const auto& [name, m] : result.details) {
    std::printf("detail %s %s %s\n", name.c_str(), JsonNumber(m.value).c_str(),
                m.unit.c_str());
  }

  // The traced run reports every per-layer metric (0 for a layer the
  // workload does not exercise); the untraced run must report every
  // end-to-end one. A name BENCHMARK.json does not list is a bug here.
  std::span<const MetricSpec> specs =
      options.trace ? std::span<const MetricSpec>(kPerLayer)
                    : std::span<const MetricSpec>(kEndToEnd);
  for (const auto& [name, m] : result.metrics) {
    bool listed = false;
    for (const MetricSpec& spec : specs) {
      listed = listed || (name == spec.name && m.unit == spec.unit);
    }
    if (!listed) {
      std::fprintf(stderr, "legobench: unlisted metric %s [%s]\n",
                   name.c_str(), m.unit.c_str());
      return 1;
    }
  }
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end() && !options.trace) {
      std::fprintf(stderr, "legobench: workload did not report %s\n",
                   spec.name);
      return 1;
    }
    double value = it == result.metrics.end() ? 0 : it->second.value;
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(spec.name) + ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(spec.unit) + "}";
  }
  bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  return 0;
}
