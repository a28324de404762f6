#ifndef LEGOBENCH_STATS_H_
#define LEGOBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles with the "at least ten
// samples beyond" rule, per-class latency splits, and span self time.
// Kept free of LegoDB headers so legobench_selftest can check it alone.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace legobench {

// Linear-interpolated quantile of an ascending sample vector; q in [0, 1].
// 0 for an empty vector.
double Quantile(const std::vector<double>& sorted, double q);

// Samples that lie beyond percentile q of n samples: floor(n * (1 - q)),
// computed in integer permille so that p99 of 1000 samples has exactly 10.
size_t SamplesBeyond(size_t n, double q);

// A timing summary: the median plus the highest of the standard
// percentiles (p99.9, p99, p95, p90, p75) that has at least `min_beyond`
// samples beyond it. tail_q is 0 when no percentile qualifies (then tail is
// the median too).
struct Summary {
  size_t count = 0;
  double p50 = 0;
  double tail_q = 0;
  double tail = 0;
};
Summary Summarize(std::vector<double> samples, size_t min_beyond = 10);

// Splits latencies by the class of the operation that produced them:
// latencies[i] belongs to classes[i]. Sizes must match.
std::map<std::string, std::vector<double>> SplitByClass(
    const std::vector<double>& latencies,
    const std::vector<std::string>& classes);

// One recorded span: [start_ns, end_ns) with the index of the span that
// caused it (-1 for a root).
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

// Nanoseconds of [lo, hi) covered by the union of `intervals` (each clipped
// to [lo, hi); overlaps counted once).
int64_t CoveredNanos(std::vector<std::pair<int64_t, int64_t>> intervals,
                     int64_t lo, int64_t hi);

// Self time of every span: its duration minus the part of it that its
// direct children cover.
std::vector<int64_t> SelfNanos(const std::vector<SpanRecord>& spans);

// Per-layer aggregates of a trace. Spans whose name starts with "phase."
// group work for the benchmark and belong to no layer; every other name is
// a layer ("xml.parse", "storage.shred", ...). For each root span (one
// request, one candidate, one iteration) the layer self times below it are
// summed and divided by the root's duration: its coverage. The trace
// reconciles when the layers cover at least 90% of all root time together
// (Reconciled()); single roots below 90% are counted, since one preempted
// request can miss on a shared host.
struct LayerTotals {
  std::map<std::string, std::vector<double>> self_ms;  // per call
  std::vector<double> coverage;                        // per root
  int64_t unreconciled = 0;  // roots whose coverage is below 0.9
  int64_t layer_ns = 0;      // layer self time under all roots
  int64_t root_ns = 0;       // duration of all roots
  double Coverage() const {
    return root_ns <= 0 ? 1.0
                        : static_cast<double>(layer_ns) /
                              static_cast<double>(root_ns);
  }
  bool Reconciled() const { return Coverage() >= 0.9 && Coverage() <= 1.0; }
};
LayerTotals AggregateLayers(const std::vector<SpanRecord>& spans);

}  // namespace legobench

#endif  // LEGOBENCH_STATS_H_
