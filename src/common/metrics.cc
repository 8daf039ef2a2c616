#include "common/metrics.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <shared_mutex>

#include "common/logging.h"
#include "common/strings.h"

namespace seraph {

namespace {

// Index of the bucket holding `value`: floor(log2(max(value, 1))).
int BucketIndex(int64_t value) {
  if (value < 1) value = 1;
  int index = 0;
  while (value > 1 && index < Histogram::kBuckets - 1) {
    value >>= 1;
    ++index;
  }
  return index;
}

int64_t BucketLow(int index) { return int64_t{1} << index; }

// Escapes a Prometheus label value: backslash, double quote, newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderLabels(const MetricLabels& labels,
                         const MetricLabels& extra) {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto* set : {&labels, &extra}) {
    for (const auto& [key, value] : *set) {
      if (!first) out += ",";
      first = false;
      out += key + "=\"" + EscapeLabelValue(value) + "\"";
    }
  }
  out += "}";
  return out;
}

std::string JsonLabelsObject(const MetricLabels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(key, &out);
    out += ":";
    AppendJsonString(value, &out);
  }
  out += "}";
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

namespace {

// Percentile over a copied bucket array (so one consistent view feeds all
// the derived fields of a snapshot).
int64_t PercentileFrom(const std::array<int64_t, kHistogramBuckets>& buckets,
                       int64_t count, int64_t min, int64_t max, double p) {
  if (count == 0) return 0;
  double target = p * static_cast<double>(count);
  int64_t seen = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (static_cast<double>(seen + buckets[i]) >= target) {
      // Linear interpolation within the bucket [2^i, 2^(i+1)).
      double into = (target - static_cast<double>(seen)) /
                    static_cast<double>(buckets[i]);
      double low = static_cast<double>(BucketLow(i));
      int64_t estimate = static_cast<int64_t>(low + into * low);
      return std::clamp(estimate, min, max);
    }
    seen += buckets[i];
  }
  return max;
}

// Recomputes mean and the percentile fields from count/sum/buckets.
void DeriveSnapshotFields(HistogramSnapshot* snap) {
  snap->mean = snap->count == 0 ? 0.0
                                : static_cast<double>(snap->sum) /
                                      static_cast<double>(snap->count);
  snap->p50 = PercentileFrom(snap->buckets, snap->count, snap->min,
                             snap->max, 0.50);
  snap->p90 = PercentileFrom(snap->buckets, snap->count, snap->min,
                             snap->max, 0.90);
  snap->p99 = PercentileFrom(snap->buckets, snap->count, snap->min,
                             snap->max, 0.99);
  snap->p999 = PercentileFrom(snap->buckets, snap->count, snap->min,
                              snap->max, 0.999);
}

}  // namespace

void Histogram::Record(int64_t value) {
  // Single-writer: plain load+store (no RMW) keeps the hot path at
  // ordinary-store cost while staying data-race-free against concurrent
  // Snapshot() readers (a live /metrics scrape).
  if (value < 0) value = 0;
  const int index = BucketIndex(value);
  buckets_[index].store(buckets_[index].load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  const int64_t count = count_.load(std::memory_order_relaxed);
  if (count == 0 || value < min_.load(std::memory_order_relaxed)) {
    min_.store(value, std::memory_order_relaxed);
  }
  if (count == 0 || value > max_.load(std::memory_order_relaxed)) {
    max_.store(value, std::memory_order_relaxed);
  }
  sum_.store(sum_.load(std::memory_order_relaxed) + value,
             std::memory_order_relaxed);
  count_.store(count + 1, std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (int i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  DeriveSnapshotFields(&snap);
  return snap;
}

int64_t HistogramSnapshot::BucketUpperBound(int index) {
  return (int64_t{1} << (index + 1)) - 1;
}

void MergeHistogramSnapshot(HistogramSnapshot* into,
                            const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (into->count == 0) {
    into->min = other.min;
    into->max = other.max;
  } else {
    into->min = std::min(into->min, other.min);
    into->max = std::max(into->max, other.max);
  }
  for (int i = 0; i < kHistogramBuckets; ++i) {
    into->buckets[i] += other.buckets[i];
  }
  into->count += other.count;
  into->sum += other.sum;
  DeriveSnapshotFields(into);
}

std::string HistogramSnapshot::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "count=%lld mean=%.1f min=%lld p50=%lld p90=%lld p99=%lld "
                "p999=%lld max=%lld",
                static_cast<long long>(count), mean,
                static_cast<long long>(min), static_cast<long long>(p50),
                static_cast<long long>(p90), static_cast<long long>(p99),
                static_cast<long long>(p999), static_cast<long long>(max));
  return buf;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

std::string RenderMetricName(const std::string& name,
                             const MetricLabels& labels,
                             const MetricLabels& extra) {
  return name + RenderLabels(labels, extra);
}

MetricsRegistry::Series* MetricsRegistry::SeriesFor(
    const std::string& name, const MetricLabels& labels, Kind kind) {
  std::string key = RenderLabels(labels, {});
  {
    // Fast path: the series almost always exists already (handles are
    // resolved once and cached), so a shared lock suffices and *For calls
    // never serialize against exposition or each other.
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto fit = families_.find(name);
    if (fit != families_.end()) {
      SERAPH_CHECK(fit->second.kind == kind)
          << "metric family '" << name << "' registered with two kinds";
      auto sit = fit->second.series.find(key);
      if (sit != fit->second.series.end()) return &sit->second;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [fit, created] = families_.try_emplace(name);
  Family& family = fit->second;
  if (created) family.kind = kind;
  SERAPH_CHECK(family.kind == kind)
      << "metric family '" << name << "' registered with two kinds";
  auto [sit, series_created] = family.series.try_emplace(std::move(key));
  Series& series = sit->second;
  if (series_created) {
    series.labels = labels;
    switch (kind) {
      case Kind::kCounter:
        series.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        series.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        series.histogram = std::make_unique<Histogram>();
        break;
    }
  }
  return &series;
}

const MetricsRegistry::Series* MetricsRegistry::FindSeries(
    const std::string& name, const MetricLabels& labels, Kind kind) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto fit = families_.find(name);
  if (fit == families_.end() || fit->second.kind != kind) return nullptr;
  auto sit = fit->second.series.find(RenderLabels(labels, {}));
  return sit == fit->second.series.end() ? nullptr : &sit->second;
}

Counter* MetricsRegistry::CounterFor(const std::string& name,
                                     const MetricLabels& labels) {
  return SeriesFor(name, labels, Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GaugeFor(const std::string& name,
                                 const MetricLabels& labels) {
  return SeriesFor(name, labels, Kind::kGauge)->gauge.get();
}

Histogram* MetricsRegistry::HistogramFor(const std::string& name,
                                         const MetricLabels& labels) {
  return SeriesFor(name, labels, Kind::kHistogram)->histogram.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name,
                                            const MetricLabels& labels) const {
  const Series* s = FindSeries(name, labels, Kind::kCounter);
  return s == nullptr ? nullptr : s->counter.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name,
                                        const MetricLabels& labels) const {
  const Series* s = FindSeries(name, labels, Kind::kGauge);
  return s == nullptr ? nullptr : s->gauge.get();
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name, const MetricLabels& labels) const {
  const Series* s = FindSeries(name, labels, Kind::kHistogram);
  return s == nullptr ? nullptr : s->histogram.get();
}

void MetricsRegistry::Reset() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& [name, family] : families_) {
    for (auto& [key, series] : family.series) {
      if (series.counter != nullptr) series.counter->Reset();
      if (series.gauge != nullptr) series.gauge->Reset();
      if (series.histogram != nullptr) series.histogram->Reset();
    }
  }
}

size_t MetricsRegistry::series_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [name, family] : families_) n += family.series.size();
  return n;
}

std::string MetricsRegistry::ToPrometheusText() const {
  // Shared: a scrape must not stall workers resolving series.
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    switch (family.kind) {
      case Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        break;
      case Kind::kHistogram:
        out += "# TYPE " + name + " histogram\n";
        break;
    }
    for (const auto& [key, series] : family.series) {
      if (family.kind == Kind::kCounter) {
        out += name + key + " " + std::to_string(series.counter->value()) +
               "\n";
      } else if (family.kind == Kind::kGauge) {
        out += name + key + " " + std::to_string(series.gauge->value()) +
               "\n";
      } else {
        HistogramSnapshot snap = series.histogram->Snapshot();
        // Summary-style quantile series, kept alongside the native
        // buckets for human eyes and pre-existing tooling.
        for (auto [q, v] : {std::pair<const char*, int64_t>{"0.5", snap.p50},
                            {"0.9", snap.p90},
                            {"0.99", snap.p99},
                            {"0.999", snap.p999}}) {
          out += RenderMetricName(name, series.labels,
                                  {{"quantile", q}}) +
                 " " + std::to_string(v) + "\n";
        }
        // Native cumulative buckets, trimmed past the highest non-empty
        // bucket. `le` boundaries are the buckets' exact inclusive upper
        // bounds for integer samples (2^(i+1)-1), so aggregation across
        // scrapes is sound.
        int highest = -1;
        for (int i = 0; i < kHistogramBuckets; ++i) {
          if (snap.buckets[i] != 0) highest = i;
        }
        int64_t cumulative = 0;
        for (int i = 0; i <= highest; ++i) {
          cumulative += snap.buckets[i];
          out += RenderMetricName(
                     name + "_bucket", series.labels,
                     {{"le", std::to_string(
                                 HistogramSnapshot::BucketUpperBound(i))}}) +
                 " " + std::to_string(cumulative) + "\n";
        }
        out += RenderMetricName(name + "_bucket", series.labels,
                                {{"le", "+Inf"}}) +
               " " + std::to_string(snap.count) + "\n";
        out += name + "_sum" + key + " " + std::to_string(snap.sum) + "\n";
        out += name + "_count" + key + " " + std::to_string(snap.count) +
               "\n";
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::string counters, gauges, histograms;
  for (const auto& [name, family] : families_) {
    for (const auto& [key, series] : family.series) {
      std::string entry = "{\"name\":";
      AppendJsonString(name, &entry);
      entry += ",\"labels\":" + JsonLabelsObject(series.labels);
      switch (family.kind) {
        case Kind::kCounter:
          if (!counters.empty()) counters += ",";
          counters += entry + ",\"value\":" +
                      std::to_string(series.counter->value()) + "}";
          break;
        case Kind::kGauge:
          if (!gauges.empty()) gauges += ",";
          gauges += entry + ",\"value\":" +
                    std::to_string(series.gauge->value()) + "}";
          break;
        case Kind::kHistogram: {
          HistogramSnapshot snap = series.histogram->Snapshot();
          if (!histograms.empty()) histograms += ",";
          histograms += entry + ",\"count\":" + std::to_string(snap.count) +
                        ",\"sum\":" + std::to_string(snap.sum) +
                        ",\"min\":" + std::to_string(snap.min) +
                        ",\"max\":" + std::to_string(snap.max) +
                        ",\"mean\":" + FormatDouble(snap.mean) +
                        ",\"p50\":" + std::to_string(snap.p50) +
                        ",\"p90\":" + std::to_string(snap.p90) +
                        ",\"p99\":" + std::to_string(snap.p99) +
                        ",\"p999\":" + std::to_string(snap.p999) + "}";
          break;
        }
      }
    }
  }
  return "{\"counters\":[" + counters + "],\"gauges\":[" + gauges +
         "],\"histograms\":[" + histograms + "]}";
}

}  // namespace seraph
