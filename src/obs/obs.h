#ifndef LEGODB_OBS_OBS_H_
#define LEGODB_OBS_OBS_H_

// Header-light tracing + metrics library for the mapping engine.
//
// Four primitives, all recorded into an obs::Registry:
//  - Span: RAII scoped timer with parent/child nesting (per thread); the
//    finished spans form the trace of a run (search iterations, phases).
//  - Counter: monotonically increasing integer (candidates evaluated,
//    cache hits, rows produced).
//  - Gauge: last-value-wins double for computed results (calibration
//    correlations, q-error summaries).
//  - Histogram: count/sum/min/max aggregate of observed values (per-query
//    planning milliseconds, memo sizes).
//
// Instrumented code does not pass a registry around: it records against the
// thread-local *ambient* registry installed by obs::ScopedRegistry. When no
// registry is installed every primitive is a no-op (no clock reads, no
// locks), so instrumentation in hot paths costs nothing by default.
//
//   obs::Registry registry;
//   {
//     obs::ScopedRegistry scoped(&registry);
//     obs::Span span("search");             // nests under enclosing spans
//     obs::Count("search.cache_hits");      // ambient counter
//     obs::Observe("optimizer.memo_size", 42);
//     obs::ScopedTimer t("optimizer.plan_ms");  // histogram of elapsed ms
//   }
//   obs::Report report = registry.Snapshot();
//   std::cout << report.SpanTable() << report.MetricsTable();
//   std::string json = report.ToJson();     // same as --metrics-out
//
// Registry, Counter, Gauge and Histogram are thread-safe; span parent/child
// nesting is tracked per thread (spans opened on different threads attach
// to that thread's innermost open span, or become roots).

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"

namespace legodb::obs {

// Monotonic clock, nanoseconds.
int64_t NowNanos();

// --- Histogram bucket layout ----------------------------------------------
//
// Every histogram shares one fixed log-spaced bucket layout, so bucket
// boundaries are stable across runs and histograms from different runs can
// be merged/compared bucket by bucket:
//
//   bucket 0                          values <= 10^kHistogramMinExp (and
//                                     everything non-positive / NaN)
//   bucket i in [1, kSpan]            (bound(i-1), bound(i)] with
//                                     bound(i) = 10^(kMinExp + i/kPerDecade)
//   bucket kSpan+1 (= kNumBuckets-1)  values > 10^kHistogramMaxExp
//
// Eight buckets per decade gives a worst-case relative quantile error of
// 10^(1/8) ~ 1.33x over the 10^-9 .. 10^9 range (sub-nanosecond to ~11 days
// when the unit is milliseconds).
inline constexpr int kHistogramBucketsPerDecade = 8;
inline constexpr int kHistogramMinExp = -9;
inline constexpr int kHistogramMaxExp = 9;
inline constexpr int kHistogramNumBuckets =
    (kHistogramMaxExp - kHistogramMinExp) * kHistogramBucketsPerDecade + 2;

// Bucket index for a value, in [0, kHistogramNumBuckets).
int HistogramBucketIndex(double value);
// Inclusive upper bound of a bucket (+infinity for the overflow bucket).
double HistogramBucketUpperBound(int bucket);
// Exclusive lower bound of a bucket (0 for the underflow bucket).
double HistogramBucketLowerBound(int bucket);

class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-value-wins metric for computed results (calibration correlations,
// q-error summaries): unlike a Counter it holds a double, unlike a
// Histogram it keeps only the most recent value.
class Gauge {
 public:
  void Set(double value) {
    std::lock_guard<std::mutex> lock(mu_);
    value_ = value;
  }
  double value() const {
    std::lock_guard<std::mutex> lock(mu_);
    return value_;
  }

 private:
  mutable std::mutex mu_;
  double value_ = 0;
};

// One finished (or still-open at snapshot time) span.
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;      // relative to the registry's epoch
  int64_t duration_ns = -1;  // -1 while the span is open
  int parent = -1;           // index into the span list; -1 for roots
  int depth = 0;
  int tid = 0;               // registry-local id of the owning thread
};

// Immutable snapshot of a registry: the trace plus all metrics. Exportable
// as JSON (machines) or aligned tables (humans).
struct Report {
  struct CounterEntry {
    std::string name;
    int64_t value = 0;
  };
  struct BucketCount {
    int bucket = 0;
    int64_t count = 0;
  };
  struct HistogramEntry {
    std::string name;
    int64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    // Sparse nonzero bucket counts, sorted by bucket index.
    std::vector<BucketCount> buckets;

    // Quantile estimate from the log-spaced buckets, clamped to [min, max]
    // (so a single observation is exact and q=0/1 return min/max). `q` is
    // clamped to [0, 1]; returns 0 on an empty histogram. A nonempty entry
    // must carry its buckets, as every Registry::Snapshot entry does.
    double Quantile(double q) const;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0;
  };

  std::vector<SpanRecord> spans;
  std::vector<CounterEntry> counters;      // sorted by name
  std::vector<GaugeEntry> gauges;          // sorted by name
  std::vector<HistogramEntry> histograms;  // sorted by name
  // Free-form string annotations (the producing tool, the demo workload,
  // a bench's storage backend) and named raw-JSON sub-documents (EXPLAIN
  // ANALYZE blocks), both in insertion order.
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<std::pair<std::string, std::string>> blobs;
  int64_t dropped_spans = 0;               // spans beyond the registry cap

  std::string ToJson() const;
  // Chrome-trace ("traceEvents") JSON loadable by chrome://tracing and
  // Perfetto: one complete slice per span on its owning thread's track,
  // still-open spans closed at the report's end time.
  std::string ToChromeTrace() const;
  // Indented span tree with start/duration columns.
  std::string SpanTable() const;
  // Counters then histograms (count/mean/min/max/sum).
  std::string MetricsTable() const;

  // Lookup helpers; zero / nullptr when absent.
  int64_t CounterValue(std::string_view name) const;
  double GaugeValue(std::string_view name) const;
  const HistogramEntry* FindHistogram(std::string_view name) const;
  // Total duration (ms) of all spans with this name.
  double SpanTotalMillis(std::string_view name) const;

  // Meta annotations: last SetMeta for a key wins.
  void SetMeta(std::string_view key, std::string_view value);

  // Attaches a named raw-JSON document, emitted verbatim under "blobs".
  // `raw_json` must be a valid JSON value (see ValidateJsonText); an
  // invalid blob would corrupt ToJson output, so it is stored as a quoted
  // error string instead. Last AddBlob for a name wins.
  void AddBlob(std::string_view name, std::string raw_json);
  const std::string* FindBlob(std::string_view name) const;
};

// Validates that `text` is exactly one well-formed JSON value (with
// optional surrounding whitespace). Used to gate Report blobs and to check
// exporter output in tests.
Status ValidateJsonText(const std::string& text);

class Histogram {
 public:
  void Observe(double value);
  // Consistent copy of the aggregate, reported under `name`.
  Report::HistogramEntry Entry(std::string name) const;

 private:
  mutable std::mutex mu_;
  int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::array<int64_t, kHistogramNumBuckets> buckets_{};
};

class Registry {
 public:
  Registry() : epoch_ns_(NowNanos()) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Finds or creates; returned pointers stay valid for the registry's life.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  Report Snapshot() const;

  // Caps the recorded trace; further spans are counted as dropped. Guards
  // against unbounded growth when spans are (mis)used in per-tuple paths.
  void set_max_spans(size_t n) { max_spans_ = n; }

  // Span bookkeeping (used by obs::Span). Returns -1 when at the cap.
  int BeginSpan(const char* name, int parent, int depth, int64_t start_ns);
  void EndSpan(int index, int64_t end_ns);

 private:
  const int64_t epoch_ns_;
  mutable std::mutex mu_;
  size_t max_spans_ = 65536;
  int64_t dropped_spans_ = 0;
  // Registry-local ids for span-owning threads, in first-span order (the
  // Chrome-trace exporter groups slices by these).
  std::map<std::thread::id, int> thread_ids_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// The calling thread's ambient registry (nullptr when none installed).
Registry* Current();

// Installs `registry` as the ambient registry for this thread, restoring
// the previous one on destruction. Scopes nest.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry* registry);
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* prev_;
};

// RAII scoped timer recording one SpanRecord, nested under the thread's
// innermost open span. `name` must outlive the span (string literals).
class Span {
 public:
  explicit Span(const char* name) : Span(name, Current()) {}
  Span(const char* name, Registry* registry);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Registry* registry_;
  int index_ = -1;
  int64_t start_ns_ = 0;
};

// Ambient conveniences: no-ops when no registry is installed.
inline void Count(std::string_view name, int64_t delta = 1) {
  if (Registry* r = Current()) r->counter(name)->Add(delta);
}
inline void Observe(std::string_view name, double value) {
  if (Registry* r = Current()) r->histogram(name)->Observe(value);
}
inline void SetGauge(std::string_view name, double value) {
  if (Registry* r = Current()) r->gauge(name)->Set(value);
}

// RAII timer observing elapsed milliseconds into an ambient histogram —
// cheaper than a Span for hot paths called thousands of times (no trace
// entry, just an aggregate).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* histogram_name)
      : registry_(Current()),
        name_(histogram_name),
        start_ns_(registry_ ? NowNanos() : 0) {}
  ~ScopedTimer() {
    if (registry_) {
      registry_->histogram(name_)->Observe(
          static_cast<double>(NowNanos() - start_ns_) / 1e6);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Registry* registry_;
  const char* name_;
  int64_t start_ns_;
};

}  // namespace legodb::obs

#endif  // LEGODB_OBS_OBS_H_
