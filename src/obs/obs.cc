#include "obs/obs.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <thread>

#include "common/table_printer.h"

namespace legodb::obs {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Histogram -----------------------------------------------------------

namespace {

// Inclusive upper bounds of the underflow bucket and every regular bucket,
// computed once so HistogramBucketIndex and the bound accessors can never
// disagree. bounds[i] is the upper bound of bucket i, for i in
// [0, kHistogramNumBuckets - 1); the overflow bucket is unbounded.
const std::array<double, kHistogramNumBuckets - 1>& BucketBounds() {
  static const auto* bounds = [] {
    auto* b = new std::array<double, kHistogramNumBuckets - 1>;
    for (int i = 0; i < kHistogramNumBuckets - 1; ++i) {
      (*b)[i] = std::pow(
          10.0, kHistogramMinExp +
                    static_cast<double>(i) / kHistogramBucketsPerDecade);
    }
    return b;
  }();
  return *bounds;
}

}  // namespace

int HistogramBucketIndex(double value) {
  if (std::isnan(value)) return 0;
  const auto& bounds = BucketBounds();
  auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  return static_cast<int>(it - bounds.begin());
}

double HistogramBucketUpperBound(int bucket) {
  const auto& bounds = BucketBounds();
  if (bucket < 0) bucket = 0;
  if (bucket >= static_cast<int>(bounds.size())) {
    return std::numeric_limits<double>::infinity();
  }
  return bounds[static_cast<size_t>(bucket)];
}

double HistogramBucketLowerBound(int bucket) {
  return bucket <= 0 ? 0.0 : HistogramBucketUpperBound(bucket - 1);
}

void Histogram::Observe(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[static_cast<size_t>(HistogramBucketIndex(value))];
}

Report::HistogramEntry Histogram::Entry(std::string name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Report::HistogramEntry entry{std::move(name), count_, sum_, min_, max_, {}};
  for (int i = 0; i < kHistogramNumBuckets; ++i) {
    if (buckets_[static_cast<size_t>(i)] != 0) {
      entry.buckets.push_back({i, buckets_[static_cast<size_t>(i)]});
    }
  }
  return entry;
}

// ---- Registry ------------------------------------------------------------

Counter* Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

int Registry::BeginSpan(const char* name, int parent, int depth,
                        int64_t start_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= max_spans_) {
    ++dropped_spans_;
    return -1;
  }
  auto [it, unused] = thread_ids_.emplace(
      std::this_thread::get_id(), static_cast<int>(thread_ids_.size()));
  SpanRecord record;
  record.name = name;
  record.start_ns = start_ns - epoch_ns_;
  record.parent = parent;
  record.depth = depth;
  record.tid = it->second;
  spans_.push_back(std::move(record));
  return static_cast<int>(spans_.size()) - 1;
}

void Registry::EndSpan(int index, int64_t end_ns) {
  if (index < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& record = spans_[static_cast<size_t>(index)];
  record.duration_ns = end_ns - epoch_ns_ - record.start_ns;
}

Report Registry::Snapshot() const {
  int64_t now = NowNanos();
  Report report;
  std::lock_guard<std::mutex> lock(mu_);
  report.spans = spans_;
  for (SpanRecord& s : report.spans) {
    // Close still-open spans at snapshot time.
    if (s.duration_ns < 0) s.duration_ns = now - epoch_ns_ - s.start_ns;
  }
  for (const auto& [name, counter] : counters_) {
    report.counters.push_back({name, counter->value()});
  }
  for (const auto& [name, gauge] : gauges_) {
    report.gauges.push_back({name, gauge->value()});
  }
  for (const auto& [name, hist] : histograms_) {
    report.histograms.push_back(hist->Entry(name));
  }
  report.dropped_spans = dropped_spans_;
  return report;
}

// ---- ambient registry & spans --------------------------------------------

namespace {

thread_local Registry* tls_registry = nullptr;

struct ActiveSpan {
  Registry* registry;
  int index;
  int depth;
};
// The thread's stack of open spans (each entry pushed by a Span ctor).
thread_local std::vector<ActiveSpan> tls_span_stack;

}  // namespace

Registry* Current() { return tls_registry; }

ScopedRegistry::ScopedRegistry(Registry* registry) : prev_(tls_registry) {
  tls_registry = registry;
}

ScopedRegistry::~ScopedRegistry() { tls_registry = prev_; }

Span::Span(const char* name, Registry* registry) : registry_(registry) {
  if (!registry_) return;
  int parent = -1;
  int depth = 0;
  if (!tls_span_stack.empty() &&
      tls_span_stack.back().registry == registry_) {
    parent = tls_span_stack.back().index;
    depth = tls_span_stack.back().depth + 1;
  }
  start_ns_ = NowNanos();
  index_ = registry_->BeginSpan(name, parent, depth, start_ns_);
  // Dropped spans (index -1) still push so nesting stays balanced.
  tls_span_stack.push_back({registry_, index_, depth});
}

Span::~Span() {
  if (!registry_) return;
  registry_->EndSpan(index_, NowNanos());
  tls_span_stack.pop_back();
}

// ---- Report: lookups -----------------------------------------------------

int64_t Report::CounterValue(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double Report::GaugeValue(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

const Report::HistogramEntry* Report::FindHistogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

double Report::SpanTotalMillis(std::string_view name) const {
  double total_ns = 0;
  for (const auto& s : spans) {
    if (s.name == name) total_ns += static_cast<double>(s.duration_ns);
  }
  return total_ns / 1e6;
}

double Report::HistogramEntry::Quantile(double q) const {
  if (count <= 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  // The extreme order statistics are tracked exactly; only interior
  // quantiles need the bucket estimate.
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // The observation with 1-based rank ceil(q * count), by bucket walk.
  int64_t rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(count)));
  rank = std::max<int64_t>(1, std::min(rank, count));
  int64_t seen = 0;
  int bucket = buckets.back().bucket;
  for (const BucketCount& b : buckets) {
    seen += b.count;
    if (seen >= rank) {
      bucket = b.bucket;
      break;
    }
  }
  double lo = HistogramBucketLowerBound(bucket);
  double hi = HistogramBucketUpperBound(bucket);
  // Geometric bucket midpoint; the unbounded edges fall back to the finite
  // side and the final clamp to the observed range.
  double result;
  if (!std::isfinite(hi)) {
    result = lo;
  } else if (lo <= 0) {
    result = hi;
  } else {
    result = std::sqrt(lo * hi);
  }
  return std::min(max, std::max(min, result));
}

void Report::SetMeta(std::string_view key, std::string_view value) {
  for (auto& [k, v] : meta) {
    if (k == key) {
      v = std::string(value);
      return;
    }
  }
  meta.emplace_back(std::string(key), std::string(value));
}

void Report::AddBlob(std::string_view name, std::string raw_json) {
  if (!ValidateJsonText(raw_json).ok()) {
    raw_json = "\"(invalid blob JSON dropped)\"";
  }
  for (auto& [n, v] : blobs) {
    if (n == name) {
      v = std::move(raw_json);
      return;
    }
  }
  blobs.emplace_back(std::string(name), std::move(raw_json));
}

const std::string* Report::FindBlob(std::string_view name) const {
  for (const auto& [n, v] : blobs) {
    if (n == name) return &v;
  }
  return nullptr;
}

// ---- Report: human tables ------------------------------------------------

std::string Report::SpanTable() const {
  TablePrinter table({"span", "start_ms", "ms"});
  for (const auto& s : spans) {
    std::string name(2 * static_cast<size_t>(s.depth), ' ');
    name += s.name;
    // A negative duration marks a span still open when the report was made
    // (hand-written reports; Registry::Snapshot closes its own open spans).
    table.AddRow({name, FormatDouble(static_cast<double>(s.start_ns) / 1e6, 3),
                  s.duration_ns < 0
                      ? "open"
                      : FormatDouble(
                            static_cast<double>(s.duration_ns) / 1e6, 3)});
  }
  if (dropped_spans > 0) {
    table.AddRow({"(dropped " + std::to_string(dropped_spans) + " spans)",
                  "", ""});
  }
  return table.ToString();
}

std::string Report::MetricsTable() const {
  TablePrinter table({"metric", "count", "mean", "min", "max", "sum"});
  for (const auto& c : counters) {
    table.AddRow({c.name, std::to_string(c.value), "", "", "", ""});
  }
  for (const auto& g : gauges) {
    table.AddRow({g.name, "", FormatDouble(g.value, 3), "", "", ""});
  }
  for (const auto& h : histograms) {
    double mean = h.count == 0 ? 0 : h.sum / static_cast<double>(h.count);
    table.AddRow({h.name, std::to_string(h.count), FormatDouble(mean, 3),
                  FormatDouble(h.min, 3), FormatDouble(h.max, 3),
                  FormatDouble(h.sum, 3)});
  }
  return table.ToString();
}

// ---- Report: JSON --------------------------------------------------------

namespace {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonDouble(double v) {
  // JSON has no literals for non-finite doubles; encode them as strings
  // (a NaN calibration gauge must not corrupt the file).
  if (std::isnan(v)) return "\"NaN\"";
  if (std::isinf(v)) return v > 0 ? "\"Infinity\"" : "\"-Infinity\"";
  // Round-trippable without drowning the file in digits.
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::string Report::ToJson() const {
  std::string out = "{\n  \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    AppendJsonString(&out, s.name);
    out += ", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"duration_ns\": " + std::to_string(s.duration_ns) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"depth\": " + std::to_string(s.depth) +
           ", \"tid\": " + std::to_string(s.tid) + "}";
  }
  out += spans.empty() ? "],\n" : "\n  ],\n";
  out += "  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(&out, counters[i].name);
    out += ": " + std::to_string(counters[i].value);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(&out, gauges[i].name);
    out += ": " + JsonDouble(gauges[i].value);
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramEntry& h = histograms[i];
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(&out, h.name);
    out += ": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + JsonDouble(h.sum) +
           ", \"min\": " + JsonDouble(h.min) +
           ", \"max\": " + JsonDouble(h.max);
    if (!h.buckets.empty()) {
      out += ", \"buckets\": {";
      for (size_t b = 0; b < h.buckets.size(); ++b) {
        if (b > 0) out += ", ";
        out += "\"" + std::to_string(h.buckets[b].bucket) +
               "\": " + std::to_string(h.buckets[b].count);
      }
      out += "}";
    }
    out += "}";
  }
  out += histograms.empty() ? "},\n" : "\n  },\n";
  if (!meta.empty()) {
    out += "  \"meta\": {";
    for (size_t i = 0; i < meta.size(); ++i) {
      out += i == 0 ? "\n    " : ",\n    ";
      AppendJsonString(&out, meta[i].first);
      out += ": ";
      AppendJsonString(&out, meta[i].second);
    }
    out += "\n  },\n";
  }
  if (!blobs.empty()) {
    out += "  \"blobs\": {";
    for (size_t i = 0; i < blobs.size(); ++i) {
      out += i == 0 ? "\n    " : ",\n    ";
      AppendJsonString(&out, blobs[i].first);
      out += ": " + blobs[i].second;
    }
    out += "\n  },\n";
  }
  out += "  \"dropped_spans\": " + std::to_string(dropped_spans) + "\n}\n";
  return out;
}

// ---- Report: Chrome trace ------------------------------------------------

std::string Report::ToChromeTrace() const {
  // End of the traced run: the latest finished-span end time. Still-open
  // spans (negative duration) are closed here so every slice has a
  // non-negative "dur".
  int64_t end_ns = 0;
  for (const SpanRecord& s : spans) {
    end_ns = std::max(end_ns,
                      s.start_ns + std::max<int64_t>(s.duration_ns, 0));
  }
  std::string out = "{\"traceEvents\": [\n";
  out += "  {\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"legodb\"}}";
  int max_tid = -1;
  for (const SpanRecord& s : spans) max_tid = std::max(max_tid, s.tid);
  for (int t = 0; t <= max_tid; ++t) {
    out += ",\n  {\"ph\": \"M\", \"pid\": 0, \"tid\": " + std::to_string(t) +
           ", \"name\": \"thread_name\", \"args\": {\"name\": \"thread " +
           std::to_string(t) + "\"}}";
  }
  for (const SpanRecord& s : spans) {
    int64_t dur_ns =
        s.duration_ns >= 0 ? s.duration_ns
                           : std::max<int64_t>(0, end_ns - s.start_ns);
    out += ",\n  {\"ph\": \"X\", \"pid\": 0, \"tid\": " +
           std::to_string(s.tid) + ", \"name\": ";
    AppendJsonString(&out, s.name);
    out += ", \"cat\": \"span\", \"ts\": " +
           JsonDouble(static_cast<double>(s.start_ns) / 1e3) +
           ", \"dur\": " + JsonDouble(static_cast<double>(dur_ns) / 1e3) +
           ", \"args\": {\"depth\": " + std::to_string(s.depth) + "}}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

// ---- JSON validation -----------------------------------------------------

namespace {

// Minimal recursive-descent JSON scanner: accepts exactly one well-formed
// value (objects, arrays, strings, numbers, true/false/null).
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  Status ValidateWhole() {
    LEGODB_RETURN_IF_ERROR(SkipValue(0));
    SkipWs();
    if (pos_ != text_.size()) return Err("trailing characters");
    return Status::OK();
  }

 private:
  Status Err(const std::string& msg) const {
    return Status::InvalidArgument("JSON: " + msg + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.compare(pos_, lit.size(), lit) == 0) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Status ParseString() {
    if (!Consume('"')) return Err("expected string");
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') continue;
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      if (esc == 'u') {
        if (pos_ + 4 > text_.size()) return Err("bad \\u escape");
        for (size_t k = 0; k < 4; ++k) {
          if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + k]))) {
            return Err("bad \\u escape");
          }
        }
        pos_ += 4;
      } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                 std::string_view::npos) {
        return Err("bad escape");
      }
    }
    return Err("unterminated string");
  }

  Status ParseNumber() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected number");
    return Status::OK();
  }

  Status SkipValue(int depth) {
    if (depth > 256) return Err("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Err("expected value");
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      char close = c == '{' ? '}' : ']';
      ++pos_;
      bool first = true;
      while (true) {
        SkipWs();
        if (Consume(close)) return Status::OK();
        if (!first && !Consume(',')) return Err("expected ','");
        first = false;
        SkipWs();
        if (close == '}') {
          LEGODB_RETURN_IF_ERROR(ParseString());
          SkipWs();
          if (!Consume(':')) return Err("expected ':'");
        }
        LEGODB_RETURN_IF_ERROR(SkipValue(depth + 1));
      }
    }
    if (c == '"') return ParseString();
    if (ConsumeLiteral("true") || ConsumeLiteral("false") ||
        ConsumeLiteral("null")) {
      return Status::OK();
    }
    return ParseNumber();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Status ValidateJsonText(const std::string& text) {
  return JsonValidator(text).ValidateWhole();
}

}  // namespace legodb::obs
