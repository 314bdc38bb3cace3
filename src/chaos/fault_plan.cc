#include "chaos/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/rng.h"

namespace cowbird::chaos {
namespace {

std::string FormatRate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

const char* CongestionScenarioName(CongestionScenario scenario) {
  switch (scenario) {
    case CongestionScenario::kNone: return "none";
    case CongestionScenario::kIncast: return "incast";
    case CongestionScenario::kVictim: return "victim";
    case CongestionScenario::kPauseStorm: return "pause_storm";
  }
  return "none";
}

std::optional<CongestionScenario> ParseCongestionScenario(
    std::string_view name) {
  for (const CongestionScenario scenario :
       {CongestionScenario::kNone, CongestionScenario::kIncast,
        CongestionScenario::kVictim, CongestionScenario::kPauseStorm}) {
    if (name == CongestionScenarioName(scenario)) return scenario;
  }
  return std::nullopt;
}

std::string FaultPlan::Serialize() const {
  std::ostringstream out;
  out << "drop=" << FormatRate(drop_rate)
      << " dup=" << FormatRate(duplicate_rate)
      << " reorder=" << FormatRate(reorder_rate)
      << " delay=" << FormatRate(delay_rate) << " delay_min=" << delay_min
      << " delay_max=" << delay_max << " reorder_delay=" << reorder_delay
      << " max_dup=" << max_duplicates;
  out << " partitions=";
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    if (i > 0) out << ',';
    out << partitions[i].start << '-' << partitions[i].end;
  }
  out << " crashes=";
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    if (i > 0) out << ',';
    out << crashes[i];
  }
  // Emitted only when set: pre-congestion traces stay byte-identical.
  if (congestion != CongestionScenario::kNone) {
    out << " congestion=" << CongestionScenarioName(congestion);
  }
  // Same opt-in rule for the migration scenario.
  if (migrate) {
    out << " migrate=1 migrate_start=" << migrate_start;
  }
  return out.str();
}

bool FaultPlan::Valid() const {
  double rate_sum = 0;
  for (const double rate :
       {drop_rate, duplicate_rate, reorder_rate, delay_rate}) {
    if (!(rate >= 0 && rate <= 1)) return false;  // NaN fails too
    rate_sum += rate;
  }
  if (rate_sum > 1) return false;
  if (delay_min < 0 || delay_min > delay_max || reorder_delay < 0) {
    return false;
  }
  if (max_duplicates < 1 || max_duplicates > 16) return false;
  for (const Partition& p : partitions) {
    if (p.start < 0 || p.start > p.end) return false;
  }
  for (const Nanos when : crashes) {
    if (when < 0) return false;
  }
  return migrate_start >= 0;
}

std::optional<FaultPlan> FaultPlan::Parse(std::string_view line) {
  // Calls `item` on each comma-separated piece; an empty list has none.
  const auto each_item = [](std::string_view list, const auto& item) {
    if (list.empty()) return true;
    for (;;) {
      const auto comma = list.find(',');
      if (!item(list.substr(0, comma))) return false;
      if (comma == std::string_view::npos) return true;
      list.remove_prefix(comma + 1);
    }
  };
  FaultPlan plan;
  std::istringstream in{std::string(line)};
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = token.substr(0, eq);
    const std::string_view value = std::string_view(token).substr(eq + 1);
    bool ok = false;
    if (key == "drop") {
      ok = ParseWhole(value, plan.drop_rate);
    } else if (key == "dup") {
      ok = ParseWhole(value, plan.duplicate_rate);
    } else if (key == "reorder") {
      ok = ParseWhole(value, plan.reorder_rate);
    } else if (key == "delay") {
      ok = ParseWhole(value, plan.delay_rate);
    } else if (key == "delay_min") {
      ok = ParseWhole(value, plan.delay_min);
    } else if (key == "delay_max") {
      ok = ParseWhole(value, plan.delay_max);
    } else if (key == "reorder_delay") {
      ok = ParseWhole(value, plan.reorder_delay);
    } else if (key == "max_dup") {
      ok = ParseWhole(value, plan.max_duplicates);
    } else if (key == "partitions") {
      ok = each_item(value, [&plan](std::string_view item) {
        const auto dash = item.find('-');
        Partition p;
        if (dash == std::string_view::npos ||
            !ParseWhole(item.substr(0, dash), p.start) ||
            !ParseWhole(item.substr(dash + 1), p.end)) {
          return false;
        }
        plan.partitions.push_back(p);
        return true;
      });
    } else if (key == "crashes") {
      ok = each_item(value, [&plan](std::string_view item) {
        Nanos when = 0;
        if (!ParseWhole(item, when)) return false;
        plan.crashes.push_back(when);
        return true;
      });
    } else if (key == "congestion") {
      const auto scenario = ParseCongestionScenario(value);
      ok = scenario.has_value();
      if (ok) plan.congestion = *scenario;
    } else if (key == "migrate") {
      int migrate = 0;
      ok = ParseWhole(value, migrate) && (migrate == 0 || migrate == 1);
      plan.migrate = migrate == 1;
    } else if (key == "migrate_start") {
      ok = ParseWhole(value, plan.migrate_start);
    }
    // An unknown key is refused too: never half-parse a trace.
    if (!ok) return std::nullopt;
  }
  if (!plan.Valid()) return std::nullopt;
  return plan;
}

FaultPlan FaultPlan::FromSeed(std::uint64_t seed, int crash_count) {
  // Derive from a distinct stream so the plan does not correlate with the
  // injector's per-packet draws or the workload's operation mix.
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC0FFEE);
  FaultPlan plan;
  plan.drop_rate = rng.NextDouble() * 0.02;
  plan.duplicate_rate = rng.NextDouble() * 0.02;
  plan.reorder_rate = rng.NextDouble() * 0.02;
  plan.delay_rate = rng.NextDouble() * 0.05;
  if (rng.Bernoulli(0.3)) {
    // One short partition, well under the Go-Back-N give-up horizon but
    // long enough to force retransmission timeouts (timeout is 100us).
    const Nanos start = static_cast<Nanos>(rng.Between(50'000, 250'000));
    const Nanos len = static_cast<Nanos>(rng.Between(10'000, 50'000));
    plan.partitions.push_back(Partition{start, start + len});
  }
  for (int i = 0; i < crash_count; ++i) {
    plan.crashes.push_back(
        static_cast<Nanos>(rng.Between(100'000, 400'000)));
  }
  std::sort(plan.crashes.begin(), plan.crashes.end());
  return plan;
}

}  // namespace cowbird::chaos
