#include "telemetry/metrics.h"

#include <algorithm>

#include "common/check.h"
#include "telemetry/json.h"

namespace cowbird::telemetry {

namespace {

bool LegalAtom(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c == '{' || c == '}' || c == ',' || c == '=' || c == '"') return false;
  }
  return true;
}

}  // namespace

// Unbound handles hold nullptr rather than a shared dummy cell, so two
// unbound handles never alias one word.
Counter::Counter() : cell_(nullptr) {}
Histogram::Histogram() : cell_(nullptr) {}

Counter::Counter(std::uint64_t* cell) : cell_(cell) {}
Histogram::Histogram(LogHistogram* cell) : cell_(cell) {}

std::string CanonicalMetricKey(std::string_view name, const Labels& labels) {
  COWBIRD_CHECK(LegalAtom(name));
  std::string key(name);
  if (labels.empty()) return key;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    COWBIRD_CHECK(LegalAtom(sorted[i].first));
    COWBIRD_CHECK(LegalAtom(sorted[i].second));
    if (i > 0) {
      COWBIRD_CHECK(sorted[i].first != sorted[i - 1].first);  // no dup keys
      key += ',';
    }
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

Counter MetricRegistry::GetCounter(std::string_view name,
                                   const Labels& labels) {
  return Counter(&counters_[CanonicalMetricKey(name, labels)]);
}

Histogram MetricRegistry::GetHistogram(std::string_view name,
                                       const Labels& labels) {
  return Histogram(&histograms_[CanonicalMetricKey(name, labels)]);
}

void CallbackGauges::Register(MetricRegistry& registry, std::string_view name,
                              const Labels& labels,
                              std::function<std::int64_t()> fn) {
  COWBIRD_CHECK(fn != nullptr);
  COWBIRD_CHECK(registry_ == nullptr || registry_ == &registry);
  registry_ = &registry;
  std::string key = CanonicalMetricKey(name, labels);
  const std::uint64_t id = ++registry.last_gauge_id_;
  registry.gauges_[key] = {std::move(fn), id};
  held_.push_back({std::move(key), id});
}

void CallbackGauges::Clear() {
  if (registry_ == nullptr) return;
  auto& gauges = registry_->gauges_;
  for (const Held& held : held_) {
    const auto it = gauges.find(held.key);
    if (it != gauges.end() && it->second.id == held.id) gauges.erase(it);
  }
  held_.clear();
  registry_ = nullptr;
}

Snapshot MetricRegistry::TakeSnapshot() const {
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [key, value] : counters_) {
    snap.counters.push_back({key, value});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, gauge] : gauges_) {
    snap.gauges.push_back({key, gauge.fn()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, hist] : histograms_) {
    Snapshot::HistogramEntry entry;
    entry.key = key;
    entry.count = hist.count();
    entry.p50 = hist.QuantileUpperBound(0.5);
    entry.p99 = hist.QuantileUpperBound(0.99);
    for (int i = 0; i < LogHistogram::kBuckets; ++i) {
      if (hist.bucket(i) != 0) entry.buckets.emplace_back(i, hist.bucket(i));
    }
    snap.histograms.push_back(std::move(entry));
  }
  return snap;
}

std::optional<std::uint64_t> Snapshot::CounterValue(
    std::string_view key) const {
  for (const auto& entry : counters) {
    if (entry.key == key) return entry.value;
  }
  return std::nullopt;
}

std::optional<std::int64_t> Snapshot::GaugeValue(std::string_view key) const {
  for (const auto& entry : gauges) {
    if (entry.key == key) return entry.value;
  }
  return std::nullopt;
}

const Snapshot::HistogramEntry* Snapshot::FindHistogram(
    std::string_view key) const {
  for (const auto& entry : histograms) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

std::string Snapshot::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& entry : counters) {
    w.Key(entry.key);
    w.Uint(entry.value);
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& entry : gauges) {
    w.Key(entry.key);
    w.Int(entry.value);
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& entry : histograms) {
    w.Key(entry.key);
    w.BeginObject();
    w.Key("count");
    w.Uint(entry.count);
    w.Key("p50");
    w.Uint(entry.p50);
    w.Key("p99");
    w.Uint(entry.p99);
    w.Key("buckets");
    w.BeginObject();
    for (const auto& [bucket, count] : entry.buckets) {
      w.Key(std::to_string(bucket));
      w.Uint(count);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

}  // namespace cowbird::telemetry
