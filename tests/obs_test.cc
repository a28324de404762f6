// Tests for the observability subsystem: span nesting, counter/histogram
// aggregation, registry snapshots, and the JSON / Chrome-trace exporters of
// obs::Report.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace legodb::obs {
namespace {

// Burns a little CPU so nested spans get strictly positive durations
// without sleeping.
void Work() {
  volatile double x = 1.0;
  for (int i = 0; i < 1000; ++i) x = x * 1.0000001 + 0.1;
}

TEST(SpanTest, NestedSpansRecordParentAndDepth) {
  Registry registry;
  {
    Span outer("outer", &registry);
    Work();
    {
      Span inner("inner", &registry);
      Work();
      { Span leaf("leaf", &registry); Work(); }
    }
    { Span sibling("sibling", &registry); Work(); }
  }
  Report report = registry.Snapshot();
  ASSERT_EQ(report.spans.size(), 4u);

  const SpanRecord& outer = report.spans[0];
  const SpanRecord& inner = report.spans[1];
  const SpanRecord& leaf = report.spans[2];
  const SpanRecord& sibling = report.spans[3];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent, -1);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.parent, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(leaf.parent, 1);
  EXPECT_EQ(leaf.depth, 2);
  EXPECT_EQ(sibling.name, "sibling");
  EXPECT_EQ(sibling.parent, 0);
  EXPECT_EQ(sibling.depth, 1);

  // Timing: children start no earlier than their parent, fit inside it,
  // and every duration is positive.
  for (const SpanRecord& s : report.spans) {
    EXPECT_GT(s.duration_ns, 0) << s.name;
  }
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.duration_ns,
            outer.start_ns + outer.duration_ns);
  EXPECT_GE(outer.duration_ns,
            inner.duration_ns + sibling.duration_ns);
  EXPECT_GE(inner.duration_ns, leaf.duration_ns);
  // Sibling starts after inner finished.
  EXPECT_GE(sibling.start_ns, inner.start_ns + inner.duration_ns);
}

TEST(SpanTest, NoRegistryIsANoOp) {
  ASSERT_EQ(Current(), nullptr);
  Span span("orphan");  // must not crash or record anywhere
  Count("orphan.counter");
  Observe("orphan.histogram", 1.0);
  ScopedTimer timer("orphan.timer");
}

TEST(SpanTest, AmbientRegistryNestsAndRestores) {
  Registry a, b;
  EXPECT_EQ(Current(), nullptr);
  {
    ScopedRegistry sa(&a);
    EXPECT_EQ(Current(), &a);
    Count("hits");
    {
      ScopedRegistry sb(&b);
      EXPECT_EQ(Current(), &b);
      Count("hits");
      Count("hits");
    }
    EXPECT_EQ(Current(), &a);
  }
  EXPECT_EQ(Current(), nullptr);
  EXPECT_EQ(a.Snapshot().CounterValue("hits"), 1);
  EXPECT_EQ(b.Snapshot().CounterValue("hits"), 2);
}

TEST(SpanTest, SpanCapDropsButStaysBalanced) {
  Registry registry;
  registry.set_max_spans(2);
  {
    ScopedRegistry scoped(&registry);
    Span a("a");
    Span b("b");
    Span c("c");  // dropped
    Span d("d");  // dropped
  }
  Report report = registry.Snapshot();
  EXPECT_EQ(report.spans.size(), 2u);
  EXPECT_EQ(report.dropped_spans, 2);
  // A fresh span after the dropped ones still nests correctly.
  registry.set_max_spans(100);
  {
    ScopedRegistry scoped(&registry);
    Span e("e");
  }
  report = registry.Snapshot();
  ASSERT_EQ(report.spans.size(), 3u);
  EXPECT_EQ(report.spans[2].parent, -1);
}

TEST(CounterTest, ConcurrentAddsAreExact) {
  Registry registry;
  constexpr int kThreads = 4;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Each thread installs the registry as its own ambient registry.
      ScopedRegistry scoped(&registry);
      for (int i = 0; i < kAdds; ++i) Count("parallel.adds");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.Snapshot().CounterValue("parallel.adds"),
            kThreads * kAdds);
}

TEST(HistogramTest, AggregatesCountSumMinMax) {
  Registry registry;
  ScopedRegistry scoped(&registry);
  for (double v : {4.0, 1.0, 9.0, 2.0}) Observe("h", v);
  Report report = registry.Snapshot();
  const Report::HistogramEntry* h = report.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4);
  EXPECT_DOUBLE_EQ(h->sum, 16.0);
  EXPECT_DOUBLE_EQ(h->min, 1.0);
  EXPECT_DOUBLE_EQ(h->max, 9.0);
  EXPECT_EQ(report.FindHistogram("missing"), nullptr);
}

TEST(HistogramTest, ScopedTimerObservesMilliseconds) {
  Registry registry;
  {
    ScopedRegistry scoped(&registry);
    ScopedTimer timer("timed.ms");
    Work();
  }
  Report report = registry.Snapshot();
  const auto* h = report.FindHistogram("timed.ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1);
  EXPECT_GT(h->sum, 0.0);
}

Report MakeSampleReport() {
  Registry registry;
  ScopedRegistry scoped(&registry);
  {
    Span outer("phase \"one\"");  // quote exercises JSON escaping
    Span inner("phase.inner");
    Count("candidates", 42);
    Count("cache_hits", 7);
    SetGauge("calibration.spearman", 0.75);
    SetGauge("calibration.spearman", 0.875);  // last value wins
    Observe("plan_ms", 0.125);
    Observe("plan_ms", 3.5);
    Observe("memo_size", 17);
  }
  return registry.Snapshot();
}

TEST(ReportTest, ToJsonGoldenOutput) {
  Report report;
  report.spans.push_back({"phase \"one\"", 1'000, 2'000, -1, 0, 0});
  report.counters.push_back({"candidates", 42});
  // JSON has no non-finite literals: they are written as strings.
  report.gauges.push_back({"inf", std::numeric_limits<double>::infinity()});
  report.gauges.push_back({"nan", std::nan("")});
  report.gauges.push_back(
      {"neg_inf", -std::numeric_limits<double>::infinity()});
  // Observations 0.5, 0.5, 4: only the two nonzero buckets are written.
  report.histograms.push_back(
      {"plan_ms", 3, 5.0, 0.5, 4.0, {{70, 2}, {77, 1}}});
  report.SetMeta("tool", "first");
  report.SetMeta("tool", "obs_test");  // last write wins
  report.AddBlob("explain.Q1", "[{\"op\": \"SeqScan\", \"rows\": 3}]");
  report.dropped_spans = 2;
  std::string json = report.ToJson();
  EXPECT_EQ(json,
            "{\n"
            "  \"spans\": [\n"
            "    {\"name\": \"phase \\\"one\\\"\", \"start_ns\": 1000, "
            "\"duration_ns\": 2000, \"parent\": -1, \"depth\": 0, \"tid\": 0}\n"
            "  ],\n"
            "  \"counters\": {\n"
            "    \"candidates\": 42\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"inf\": \"Infinity\",\n"
            "    \"nan\": \"NaN\",\n"
            "    \"neg_inf\": \"-Infinity\"\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"plan_ms\": {\"count\": 3, \"sum\": 5, \"min\": 0.5, "
            "\"max\": 4, \"buckets\": {\"70\": 2, \"77\": 1}}\n"
            "  },\n"
            "  \"meta\": {\n"
            "    \"tool\": \"obs_test\"\n"
            "  },\n"
            "  \"blobs\": {\n"
            "    \"explain.Q1\": [{\"op\": \"SeqScan\", \"rows\": 3}]\n"
            "  },\n"
            "  \"dropped_spans\": 2\n"
            "}\n");
  EXPECT_TRUE(ValidateJsonText(json).ok()) << json;

  EXPECT_EQ(Report().ToJson(),
            "{\n"
            "  \"spans\": [],\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {},\n"
            "  \"dropped_spans\": 0\n"
            "}\n");
}

TEST(ReportTest, LookupHelpersAndTables) {
  Report report = MakeSampleReport();
  EXPECT_EQ(report.CounterValue("candidates"), 42);
  EXPECT_EQ(report.CounterValue("cache_hits"), 7);
  EXPECT_EQ(report.CounterValue("nonexistent"), 0);
  EXPECT_DOUBLE_EQ(report.GaugeValue("calibration.spearman"), 0.875);
  EXPECT_DOUBLE_EQ(report.GaugeValue("nonexistent"), 0.0);
  EXPECT_GT(report.SpanTotalMillis("phase \"one\""), 0.0);
  EXPECT_DOUBLE_EQ(report.SpanTotalMillis("nonexistent"), 0.0);

  std::string spans = report.SpanTable();
  EXPECT_NE(spans.find("phase.inner"), std::string::npos);
  std::string metrics = report.MetricsTable();
  EXPECT_NE(metrics.find("candidates"), std::string::npos);
  EXPECT_NE(metrics.find("calibration.spearman"), std::string::npos);
  EXPECT_NE(metrics.find("plan_ms"), std::string::npos);
}

TEST(ReportTest, SnapshotClosesOpenSpans) {
  Registry registry;
  Span open("still.open", &registry);
  Work();
  Report report = registry.Snapshot();
  ASSERT_EQ(report.spans.size(), 1u);
  EXPECT_GT(report.spans[0].duration_ns, 0);
}

// --- Quantile buckets ------------------------------------------------------

TEST(HistogramBucketTest, IndexAndBoundsAgree) {
  // Buckets are half-open on the left: bucket b covers (lower(b),
  // upper(b)]. Interior values must land in a regular bucket whose bounds
  // bracket them.
  for (double v : {2.5e-7, 0.0015, 0.999, 1.5, 42.0, 1.1e4, 9.9e8}) {
    int b = HistogramBucketIndex(v);
    EXPECT_GT(b, 0) << v;
    EXPECT_LT(b, kHistogramNumBuckets - 1) << v;
    EXPECT_LT(HistogramBucketLowerBound(b), v) << v;
    EXPECT_GE(HistogramBucketUpperBound(b), v) << v;
  }
  // A value exactly on a boundary belongs to the bucket it closes.
  for (int b : {1, 8, 72, kHistogramNumBuckets - 2}) {
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketUpperBound(b)), b);
  }
  // Underflow bucket: zero, negatives, NaN, and anything at or below the
  // smallest bound.
  EXPECT_EQ(HistogramBucketIndex(0.0), 0);
  EXPECT_EQ(HistogramBucketIndex(-5.0), 0);
  EXPECT_EQ(HistogramBucketIndex(1e-12), 0);
  EXPECT_EQ(HistogramBucketIndex(std::nan("")), 0);
  // Overflow bucket: anything above the largest bound.
  EXPECT_EQ(HistogramBucketIndex(2e9), kHistogramNumBuckets - 1);
  EXPECT_EQ(HistogramBucketIndex(1e300), kHistogramNumBuckets - 1);
  EXPECT_EQ(HistogramBucketIndex(std::numeric_limits<double>::infinity()),
            kHistogramNumBuckets - 1);
  EXPECT_TRUE(std::isinf(
      HistogramBucketUpperBound(kHistogramNumBuckets - 1)));
  // Buckets tile the range: adjacent bounds coincide and grow strictly.
  for (int b = 1; b < kHistogramNumBuckets - 1; ++b) {
    EXPECT_DOUBLE_EQ(HistogramBucketUpperBound(b),
                     HistogramBucketLowerBound(b + 1));
    EXPECT_LT(HistogramBucketLowerBound(b), HistogramBucketUpperBound(b));
  }
}

TEST(HistogramBucketTest, QuantilesWithinOneBucket) {
  Registry registry;
  ScopedRegistry scoped(&registry);
  // 1..1000 uniformly: exact p-quantile (rank ceil(p*n)) is just the rank.
  for (int i = 1; i <= 1000; ++i) Observe("latency", static_cast<double>(i));
  Report report = registry.Snapshot();
  const Report::HistogramEntry* h = report.FindHistogram("latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1000);
  // One log bucket spans a 10^(1/8) ~ 1.334x ratio, so the estimate must be
  // within that factor of the exact order statistic.
  for (auto [q, exact] : {std::pair<double, double>{0.5, 500.0},
                          {0.95, 950.0},
                          {0.99, 990.0}}) {
    double est = h->Quantile(q);
    double ratio = est > exact ? est / exact : exact / est;
    EXPECT_LE(ratio, 1.34) << "q=" << q << " est=" << est;
  }
  // Extremes are exact: clamped to the observed min/max.
  EXPECT_DOUBLE_EQ(h->Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 1000.0);
  // Monotone in q.
  double prev = 0;
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    double v = h->Quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(HistogramBucketTest, SingleObservationIsExactAndEmptyIsZero) {
  Registry registry;
  ScopedRegistry scoped(&registry);
  Observe("one", 7.3);
  Report report = registry.Snapshot();
  const Report::HistogramEntry* h = report.FindHistogram("one");
  ASSERT_NE(h, nullptr);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h->Quantile(q), 7.3) << q;
  }
  Report::HistogramEntry empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
}

// --- Open spans (satellite) ------------------------------------------------

TEST(ReportTest, SpanTableRendersOpenSpans) {
  Report report;
  report.spans.push_back({"finished", 0, 5'000'000, -1, 0, 0});
  report.spans.push_back({"still.going", 1'000'000, -1, 0, 1, 0});
  std::string table = report.SpanTable();
  EXPECT_NE(table.find("open"), std::string::npos) << table;
  EXPECT_EQ(table.find("-0.0"), std::string::npos) << table;
}

// --- Chrome trace ----------------------------------------------------------

TEST(ChromeTraceTest, GoldenOutput) {
  Report report;
  report.spans.push_back({"outer \"q\"", 1'000, 10'000, -1, 0, 0});
  report.spans.push_back({"inner", 2'000, 3'000, 0, 1, 0});
  report.spans.push_back({"worker", 4'000, -1, -1, 0, 1});  // open, thread 1
  std::string trace = report.ToChromeTrace();
  EXPECT_EQ(trace,
            "{\"traceEvents\": [\n"
            "  {\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": "
            "\"process_name\", \"args\": {\"name\": \"legodb\"}},\n"
            "  {\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": "
            "\"thread_name\", \"args\": {\"name\": \"thread 0\"}},\n"
            "  {\"ph\": \"M\", \"pid\": 0, \"tid\": 1, \"name\": "
            "\"thread_name\", \"args\": {\"name\": \"thread 1\"}},\n"
            "  {\"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"name\": "
            "\"outer \\\"q\\\"\", \"cat\": \"span\", \"ts\": 1, \"dur\": 10, "
            "\"args\": {\"depth\": 0}},\n"
            "  {\"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"name\": \"inner\", "
            "\"cat\": \"span\", \"ts\": 2, \"dur\": 3, "
            "\"args\": {\"depth\": 1}},\n"
            "  {\"ph\": \"X\", \"pid\": 0, \"tid\": 1, \"name\": \"worker\", "
            "\"cat\": \"span\", \"ts\": 4, \"dur\": 7, "
            "\"args\": {\"depth\": 0}}\n"
            "], \"displayTimeUnit\": \"ms\"}\n");
  EXPECT_TRUE(ValidateJsonText(trace).ok());
}

TEST(ChromeTraceTest, LiveSnapshotNestsSlices) {
  Registry registry;
  {
    Span outer("outer", &registry);
    Work();
    Span inner("inner", &registry);
    Work();
  }
  Report report = registry.Snapshot();
  std::string trace = report.ToChromeTrace();
  ASSERT_TRUE(ValidateJsonText(trace).ok()) << trace;
  // The inner slice must sit inside the outer one on the timeline.
  ASSERT_EQ(report.spans.size(), 2u);
  const SpanRecord& outer = report.spans[0];
  const SpanRecord& inner = report.spans[1];
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.duration_ns,
            outer.start_ns + outer.duration_ns);
}

TEST(ChromeTraceTest, ThreadsGetDistinctTrackIds) {
  Registry registry;
  {
    ScopedRegistry scoped(&registry);
    Span main_span("main.work");
    std::thread worker([&registry] {
      ScopedRegistry worker_scope(&registry);
      Span span("worker.work");
      Work();
    });
    worker.join();
  }
  Report report = registry.Snapshot();
  ASSERT_EQ(report.spans.size(), 2u);
  EXPECT_NE(report.spans[0].tid, report.spans[1].tid);
}

// --- Blobs -----------------------------------------------------------------

TEST(ReportTest, InvalidBlobIsDroppedNotEmitted) {
  Report report;
  report.AddBlob("bad", "{not json");
  std::string json = report.ToJson();
  EXPECT_TRUE(ValidateJsonText(json).ok()) << json;
  const std::string* blob = report.FindBlob("bad");
  ASSERT_NE(blob, nullptr);
  EXPECT_NE(blob->find("invalid blob"), std::string::npos);
}

TEST(ValidateJsonTextTest, AcceptsValuesRejectsGarbage) {
  EXPECT_TRUE(ValidateJsonText("{\"a\": [1, 2.5, null, true, \"x\"]}").ok());
  EXPECT_TRUE(ValidateJsonText("[]").ok());
  EXPECT_FALSE(ValidateJsonText("{\"a\": }").ok());
  EXPECT_FALSE(ValidateJsonText("{} trailing").ok());
  EXPECT_FALSE(ValidateJsonText("").ok());
  // String escapes: the JSON set is accepted, anything else rejected.
  EXPECT_TRUE(ValidateJsonText("\"a\\r\\b\\f\\/\\u00e9\"").ok());
  EXPECT_FALSE(ValidateJsonText("\"\\x\"").ok());
  EXPECT_FALSE(ValidateJsonText("\"\\uZZZZ\"").ok());
  EXPECT_FALSE(ValidateJsonText("\"\\u12\"").ok());
  EXPECT_FALSE(ValidateJsonText("\"unterminated").ok());
}

}  // namespace
}  // namespace legodb::obs
