// Metric registry: labeled counters, log-histograms and callback gauges
// with near-zero hot-path cost.
//
// Design:
//
//   * Handles are raw pointers into registry-owned cells. A Counter is one
//     `std::uint64_t*`; `Add()` is a single increment through it, with no
//     lock or lookup on the hot path. A default-constructed (unbound) handle
//     holds nullptr and its writes are no-ops — one perfectly predicted
//     test-and-skip, so components built without a telemetry hub pay nothing
//     and never share a cell. (An earlier shared "throwaway word" design made
//     unbound handles constructed on one thread and exercised on another
//     race with each other.)
//   * The registry stores cells in `std::map` keyed by the canonical series
//     key ("name{k=v,...}" with label keys sorted), which gives pointer
//     stability for handles and sorted — hence deterministic — snapshots.
//   * Gauges are callbacks evaluated only at snapshot time. They are how
//     pre-existing member counters (net::Link fault counts, QP retransmits,
//     engine queue depths) surface through the registry without adding any
//     cost to the code that maintains them. The object a gauge reads owns
//     it through a CallbackGauges member, so the series leaves the registry
//     when the object dies and nothing else has to name it again.
//
// Each registry is single-threaded, like the event loop it observes. Every
// handle is one pointer and the registry has one layout in every build mode,
// so code compiled with and without NDEBUG can share a registry.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace cowbird::telemetry {

// Label set for one metric series, e.g. {{"engine","p4"},{"instance","1"}}.
// Order does not matter; keys are sorted during canonicalization.
using Labels = std::vector<std::pair<std::string, std::string>>;

// "name" or "name{k1=v1,k2=v2}" with keys sorted; the identity of a series.
// Names/labels must not contain '{', '}', ',', '=' or '"'.
std::string CanonicalMetricKey(std::string_view name, const Labels& labels);

class MetricRegistry;

// Monotonically increasing counter handle.
class Counter {
 public:
  Counter();  // unbound: Add is a no-op
  void Add(std::uint64_t delta = 1) const {
    if (cell_ == nullptr) return;
    *cell_ += delta;
  }
  std::uint64_t value() const { return cell_ != nullptr ? *cell_ : 0; }

 private:
  friend class MetricRegistry;
  explicit Counter(std::uint64_t* cell);
  std::uint64_t* cell_;
};

// Power-of-two histogram handle (see common/stats.h LogHistogram).
class Histogram {
 public:
  Histogram();  // unbound: Observe is a no-op
  void Observe(std::uint64_t value) const {
    if (cell_ == nullptr) return;
    cell_->Add(value);
  }
  const LogHistogram& histogram() const {
    static const LogHistogram kEmpty;
    return cell_ != nullptr ? *cell_ : kEmpty;
  }

 private:
  friend class MetricRegistry;
  explicit Histogram(LogHistogram* cell);
  LogHistogram* cell_;
};

// Point-in-time copy of every series in a registry, sorted by canonical key.
// Two snapshots of identical runs serialize to identical JSON.
struct Snapshot {
  struct CounterEntry {
    std::string key;
    std::uint64_t value;
  };
  struct GaugeEntry {
    std::string key;
    std::int64_t value;
  };
  struct HistogramEntry {
    std::string key;
    std::uint64_t count;
    std::uint64_t p50;
    std::uint64_t p99;
    // (bucket index, count) for non-empty buckets only.
    std::vector<std::pair<int, std::uint64_t>> buckets;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  std::optional<std::uint64_t> CounterValue(std::string_view key) const;
  std::optional<std::int64_t> GaugeValue(std::string_view key) const;
  const HistogramEntry* FindHistogram(std::string_view key) const;

  // {"counters":{...},"gauges":{...},"histograms":{...}} with keys in
  // canonical (sorted) order. Deterministic byte-for-byte.
  std::string ToJson() const;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Get-or-create. Repeated calls with the same name+labels return handles
  // to the same cell (label-set dedup).
  Counter GetCounter(std::string_view name, const Labels& labels = {});
  Histogram GetHistogram(std::string_view name, const Labels& labels = {});

  // Evaluates every gauge; gauges are registered through CallbackGauges.
  Snapshot TakeSnapshot() const;

 private:
  friend class CallbackGauges;
  struct GaugeCell {
    std::function<std::int64_t()> fn;
    // Which registration holds the series: a later one replaces the
    // callback, and only the holder may remove it.
    std::uint64_t id;
  };

  // std::map: node-based, so cell addresses are stable across inserts.
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, LogHistogram> histograms_;
  std::map<std::string, GaugeCell> gauges_;
  std::uint64_t last_gauge_id_ = 0;
};

// The gauges one object registers, removed when the object dies. An owner
// holds one as a member, registers every series it surfaces through it, and
// never names them again:
//
//   void Link::BindTelemetry(MetricRegistry& registry, const Labels& labels) {
//     gauges_.Clear();  // a second bind replaces the first
//     gauges_.Register(registry, "link_packets_delivered", labels,
//                      [this] { return std::int64_t(packets_delivered_); });
//   }
//
// Registering a series another set holds takes it over (an instance
// re-attached after migration); the earlier holder then leaves it alone.
// One set registers in one registry, and must not outlive it.
class CallbackGauges {
 public:
  CallbackGauges() = default;
  CallbackGauges(const CallbackGauges&) = delete;
  CallbackGauges& operator=(const CallbackGauges&) = delete;
  ~CallbackGauges() { Clear(); }

  // Gauge `name{labels}`, evaluated by `fn` at TakeSnapshot(); zero cost
  // until then.
  void Register(MetricRegistry& registry, std::string_view name,
                const Labels& labels, std::function<std::int64_t()> fn);
  // Removes every series this set still holds. Idempotent.
  void Clear();

 private:
  struct Held {
    std::string key;
    std::uint64_t id;
  };
  MetricRegistry* registry_ = nullptr;
  std::vector<Held> held_;
};

}  // namespace cowbird::telemetry
