#ifndef LEGOBENCH_BENCH_H_
#define LEGOBENCH_BENCH_H_

// Shared plumbing of the three benchmark workloads: run options, the
// result record printed as the final JSON line, a single-threaded span
// recorder, and process-level measurements (peak RSS, CPU time).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/obs.h"
#include "stats.h"

namespace legobench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

// Everything one run reports. `metrics` are the names BENCHMARK.json lists
// (end-to-end ones untraced, per-layer ones traced); `details` are the
// workload-specific figures printed above the final line; `config` records
// what the run was made of.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, Metric>> details;
  std::vector<std::pair<std::string, std::string>> config;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    details.emplace_back(name, Metric{value, unit});
  }
  void Config(const std::string& key, const std::string& value) {
    config.emplace_back(key, value);
  }
  // Counts one operation; `ok` false counts it as failed.
  void Attempt(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  // Median + tail of a timing, with its sample count, as details.
  void DetailTiming(const std::string& name, const std::vector<double>& ms);
};

inline int64_t NowNanos() { return legodb::obs::NowNanos(); }

inline double MillisBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

// Peak resident set size of this process, MB.
double PeakRssMb();
// User + system CPU seconds consumed by this process so far.
double CpuSeconds();

// Aborts the run (no result line) on an error outside any measured
// operation: set-up, oracle construction.
void Check(const legodb::Status& st, const char* what);
template <typename T>
T Unwrap(legodb::StatusOr<T> v, const char* what) {
  Check(v.status(), what);
  return std::move(v).value();
}

// Records spans on one thread: Begin/End nest, each new span's parent is
// the innermost open one.
class Tracer {
 public:
  int Begin(const char* name) {
    spans_.push_back(SpanRecord{name, NowNanos(), 0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void End(int index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNanos();
    open_ = spans_[static_cast<size_t>(index)].parent;
  }
  // A finished span measured elsewhere, attached under `parent`.
  void Add(const char* name, int64_t start_ns, int64_t end_ns, int parent) {
    spans_.push_back(SpanRecord{name, start_ns, end_ns, parent});
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  int open_ = -1;
};

// RAII span on a tracer; a null tracer records nothing, so one code path
// serves the traced and the untraced run.
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~Scoped() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};


// Median of a sample vector (0 when empty).
double Median(std::vector<double> v);

// Runs one workload.
RunResult RunDesignSearch(const RunOptions& options);
RunResult RunServeMixed(const RunOptions& options);
RunResult RunLoadPublishPaged(const RunOptions& options);

}  // namespace legobench

#endif  // LEGOBENCH_BENCH_H_
