#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace legobench {

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

size_t SamplesBeyond(size_t n, double q) {
  auto permille_beyond =
      static_cast<size_t>(std::llround((1.0 - q) * 1000.0));
  return n * permille_beyond / 1000;
}

Summary Summarize(std::vector<double> samples, size_t min_beyond) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.count = samples.size();
  s.p50 = Quantile(samples, 0.5);
  s.tail = s.p50;
  for (double q : {0.999, 0.99, 0.95, 0.90, 0.75}) {
    if (SamplesBeyond(samples.size(), q) >= min_beyond) {
      s.tail_q = q;
      s.tail = Quantile(samples, q);
      break;
    }
  }
  return s;
}

std::map<std::string, std::vector<double>> SplitByClass(
    const std::vector<double>& latencies,
    const std::vector<std::string>& classes) {
  if (latencies.size() != classes.size()) {
    throw std::invalid_argument("SplitByClass: size mismatch");
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < latencies.size(); ++i) {
    out[classes[i]].push_back(latencies[i]);
  }
  return out;
}

int64_t CoveredNanos(std::vector<std::pair<int64_t, int64_t>> intervals,
                     int64_t lo, int64_t hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (const auto& [begin, end] : intervals) {
    int64_t from = std::max(begin, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

std::vector<int64_t> SelfNanos(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = (spans[i].end_ns - spans[i].start_ns) -
              CoveredNanos(children[i], spans[i].start_ns, spans[i].end_ns);
  }
  return self;
}

LayerTotals AggregateLayers(const std::vector<SpanRecord>& spans) {
  std::vector<int64_t> self = SelfNanos(spans);
  std::vector<int> root(spans.size());
  std::vector<int64_t> layer_ns(spans.size(), 0);  // per root
  LayerTotals totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    int p = spans[i].parent;
    root[i] = p < 0 ? static_cast<int>(i) : root[static_cast<size_t>(p)];
    if (spans[i].name.rfind("phase.", 0) == 0) continue;
    totals.self_ms[spans[i].name].push_back(static_cast<double>(self[i]) /
                                            1e6);
    layer_ns[static_cast<size_t>(root[i])] += self[i];
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    int64_t dur = spans[i].end_ns - spans[i].start_ns;
    double cov = dur <= 0 ? 1.0
                          : static_cast<double>(layer_ns[i]) /
                                static_cast<double>(dur);
    totals.coverage.push_back(cov);
    if (cov < 0.9) ++totals.unreconciled;
    totals.layer_ns += layer_ns[i];
    totals.root_ns += dur;
  }
  return totals;
}

}  // namespace legobench
