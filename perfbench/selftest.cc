// Checks the benchmark's own arithmetic (stats.h): percentiles and the
// "at least ten samples beyond" rule, the per-class split of latencies,
// and self time as span duration minus child coverage. Exits 1 on the
// first failed check. perfbench/run.py runs it before every benchmark run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "stats.h"

namespace legobench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(int n) {  // 1, 2, ..., n in shuffled order
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(static_cast<double>((i * 7) % n + 1));
  return v;
}

void TestQuantile() {
  Expect(Quantile({}, 0.5) == 0, "quantile of nothing is 0");
  Expect(Near(Quantile({1, 2, 3, 4}, 0.5), 2.5), "median interpolates");
  Expect(Near(Quantile({1, 2, 3, 4}, 0.0), 1), "q=0 is the minimum");
  Expect(Near(Quantile({1, 2, 3, 4}, 1.0), 4), "q=1 is the maximum");
  Expect(Near(Quantile({5}, 0.99), 5), "single sample");
}

void TestTailRule() {
  Expect(SamplesBeyond(1000, 0.99) == 10, "p99 of 1000 has 10 beyond");
  Expect(SamplesBeyond(999, 0.99) == 9, "p99 of 999 has 9 beyond");
  Expect(SamplesBeyond(10000, 0.999) == 10, "p99.9 of 10000 has 10 beyond");
  Expect(SamplesBeyond(100, 0.90) == 10, "p90 of 100 has 10 beyond");

  Summary s = Summarize(Ramp(1000));
  Expect(s.count == 1000, "count");
  Expect(Near(s.p50, 500.5), "median of 1..1000");
  Expect(Near(s.tail_q, 0.99), "1000 samples: p99 is the highest tail");
  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  Expect(Near(s.tail, Quantile(sorted, 0.99)), "tail value is the p99");

  Expect(Near(Summarize(Ramp(10000)).tail_q, 0.999), "10000: p99.9");
  Expect(Near(Summarize(Ramp(999)).tail_q, 0.95), "999: p99 too thin, p95");
  Expect(Near(Summarize(Ramp(100)).tail_q, 0.90), "100: p90");
  Expect(Near(Summarize(Ramp(40)).tail_q, 0.75), "40: p75");
  Summary few = Summarize(Ramp(8));
  Expect(few.tail_q == 0 && Near(few.tail, few.p50),
         "8 samples: no tail, falls back to the median");
}

void TestSplit() {
  auto split = SplitByClass({1, 2, 3, 4, 5},
                            {"lookup", "join", "lookup", "publish", "join"});
  Expect(split.size() == 3, "three classes");
  Expect(split["lookup"] == std::vector<double>({1, 3}), "lookup samples");
  Expect(split["join"] == std::vector<double>({2, 5}), "join samples");
  Expect(split["publish"] == std::vector<double>({4}), "publish samples");
  bool threw = false;
  try {
    SplitByClass({1, 2}, {"lookup"});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  Expect(threw, "size mismatch is refused");
}

void TestSelfTime() {
  Expect(CoveredNanos({{0, 10}, {5, 15}}, 0, 100) == 15, "overlap once");
  Expect(CoveredNanos({{-5, 10}, {90, 120}}, 0, 100) == 20, "clipped");
  Expect(CoveredNanos({{20, 30}, {0, 5}}, 0, 100) == 15, "unsorted");
  Expect(CoveredNanos({}, 0, 100) == 0, "no children");

  // root [0,100): children A [10,40) and B [30,60) overlapping; A has a
  // child [15,25). Root self = 100 - 50; A self = 30 - 10; B self = 30.
  std::vector<SpanRecord> spans = {
      {"phase.request", 0, 100, -1},
      {"a", 10, 40, 0},
      {"b", 30, 60, 0},
      {"c", 15, 25, 1},
  };
  std::vector<int64_t> self = SelfNanos(spans);
  Expect(self[0] == 50, "root self time");
  Expect(self[1] == 20, "child minus grandchild");
  Expect(self[2] == 30, "leaf self time is its duration");
  Expect(self[3] == 10, "grandchild");

  // Layer totals: "phase." spans group and belong to no layer. Under root
  // 0 the layers a, b, c cover 20 + 30 + 10 of 100; under root 4, 50 of 100.
  spans.push_back({"phase.request", 200, 300, -1});
  spans.push_back({"a", 200, 250, 4});
  LayerTotals t = AggregateLayers(spans);
  Expect(t.coverage.size() == 2, "one coverage per root");
  Expect(Near(t.coverage[0], 0.6), "root 0: layers cover 60 of 100");
  Expect(Near(t.coverage[1], 0.5), "root 4: layers cover 50 of 100");
  Expect(t.unreconciled == 2, "both roots below 0.9");
  Expect(Near(t.Coverage(), 110.0 / 200.0) && !t.Reconciled(),
         "aggregate coverage 110 of 200 does not reconcile");
  Expect(t.self_ms["a"].size() == 2 && t.self_ms.count("phase.request") == 0,
         "self times per layer call, none for phase spans");
  std::vector<SpanRecord> covered = {{"phase.request", 0, 100, -1},
                                     {"serving.front_end", 0, 5, 0},
                                     {"engine.lookup", 8, 100, 0}};
  LayerTotals full = AggregateLayers(covered);
  Expect(Near(full.coverage[0], 0.97) && full.unreconciled == 0 &&
             full.Reconciled(),
         "97% coverage reconciles");
}

}  // namespace
}  // namespace legobench

int main() {
  legobench::TestQuantile();
  legobench::TestTailRule();
  legobench::TestSplit();
  legobench::TestSelfTime();
  if (legobench::failures > 0) return 1;
  std::fprintf(stderr, "selftest ok\n");
  return 0;
}
