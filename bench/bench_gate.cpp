// CI perf-regression gate over committed bench baselines.
//
// Compares the BENCH_<name>.json documents a CI run just produced against
// the checked-in medians under bench/baselines/, using the repo's own JSON
// parser — no python in the loop. Per metric the gate knows the failure
// direction:
//
//   * *_wall metrics          — wall-clock throughput/speedups; shared CI
//                               runners make these too noisy to gate by
//                               default, so they are informational unless
//                               --gate-wall is passed (then they fail LOW
//                               only).
//   * allocations_per_op      — datapath heap discipline; fails HIGH only,
//                               with an absolute slack (--alloc-slack, 0.01
//                               by default): one allocation per 100 ops
//                               fails.
//   * events_per_op           — simulator events per retired op; fails HIGH
//                               only, with no slack and whatever the
//                               --tolerance: it is deterministic, so any
//                               rise is a real extra event on the datapath.
//   * mops / latency / etc.   — simulated outcomes, bit-deterministic by
//                               construction; fail on drift in EITHER
//                               direction (a drift here is a behavior
//                               change, not a slow machine).
//   * ops / wall_ms / jobs / alloc_bytes_per_op — informational, never
//                               gated.
//
// Medians are taken across reps (rows whose params differ only in "rep").
// Exit 0 = within tolerance, 1 = regression, 2 = usage/parse error.
//
// Refreshing baselines after an intentional perf change:
//   ./bench/sim_throughput && ./bench/fig08_hash_throughput &&
//   ./bench/fig13_latency && ./bench/bench_gate --write-baseline
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.h"

namespace cowbird::bench {
namespace {

namespace fs = std::filesystem;
using telemetry::JsonValue;
using telemetry::ParseJson;

enum class Direction {
  kLowerFails,        // throughput-like
  kHigherFails,       // cost-like
  kHigherFailsExact,  // deterministic cost: any rise fails
  kBothFail,          // deterministic simulated outcome
  kIgnored,
};

bool IsWallMetric(const std::string& metric) {
  const std::string suffix = "_wall";
  return metric.size() > suffix.size() &&
         metric.compare(metric.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

Direction DirectionFor(const std::string& metric, bool gate_wall) {
  if (IsWallMetric(metric)) {
    return gate_wall ? Direction::kLowerFails : Direction::kIgnored;
  }
  if (metric == "allocations_per_op") return Direction::kHigherFails;
  if (metric == "events_per_op") return Direction::kHigherFailsExact;
  if (metric == "ops" || metric == "wall_ms" ||
      metric == "alloc_bytes_per_op" || metric == "samples" ||
      metric == "jobs") {
    return Direction::kIgnored;
  }
  return Direction::kBothFail;
}

// (group key, metric) → samples across reps. The group key is the params
// object minus "rep", rendered canonically (params are insertion-ordered
// and emitted in a fixed order by BenchJson, so string keys are stable).
using MetricTable = std::map<std::pair<std::string, std::string>,
                             std::vector<double>>;

std::optional<MetricTable> LoadBench(const fs::path& path,
                                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path.string();
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  const auto doc = ParseJson(buffer.str(), &parse_error);
  if (!doc.has_value()) {
    *error = path.string() + ": " + parse_error;
    return std::nullopt;
  }
  const JsonValue* rows = doc->Find("rows");
  if (rows == nullptr || !rows->IsArray()) {
    *error = path.string() + ": missing rows array";
    return std::nullopt;
  }
  MetricTable table;
  for (const JsonValue& row : rows->array) {
    const JsonValue* params = row.Find("params");
    const JsonValue* metrics = row.Find("metrics");
    if (params == nullptr || metrics == nullptr) continue;
    std::string key;
    for (const auto& [name, value] : params->object) {
      if (name == "rep") continue;
      key += name + "=" + value.string + ",";
    }
    for (const auto& [name, value] : metrics->object) {
      if (value.IsNumber()) table[{key, name}].push_back(value.number);
    }
  }
  return table;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct GateArgs {
  fs::path baseline_dir;
  fs::path candidate_dir = ".";
  double tolerance = 0.10;
  double alloc_slack = 0.01;  // absolute allocations/op headroom
  bool write_baseline = false;
  bool gate_wall = false;  // opt-in gating of *_wall metrics
};

int CompareOne(const fs::path& baseline_path, const fs::path& candidate_path,
               const GateArgs& args) {
  std::string error;
  const auto baseline = LoadBench(baseline_path, &error);
  if (!baseline.has_value()) {
    std::fprintf(stderr, "bench_gate: %s\n", error.c_str());
    return 2;
  }
  const auto candidate = LoadBench(candidate_path, &error);
  if (!candidate.has_value()) {
    std::fprintf(stderr, "bench_gate: %s\n", error.c_str());
    return 2;
  }

  int failures = 0;
  int checked = 0;
  for (const auto& [key, samples] : *baseline) {
    const auto& [group, metric] = key;
    const Direction dir = DirectionFor(metric, args.gate_wall);
    if (dir == Direction::kIgnored) continue;
    const auto it = candidate->find(key);
    if (it == candidate->end()) {
      std::fprintf(stderr, "  FAIL %s%s: present in baseline, missing from "
                   "candidate\n", group.c_str(), metric.c_str());
      ++failures;
      continue;
    }
    const double base = Median(samples);
    const double cand = Median(it->second);
    const double slack = std::abs(base) * args.tolerance +
                         (metric == "allocations_per_op" ? args.alloc_slack
                                                         : 0.0);
    bool ok = true;
    switch (dir) {
      case Direction::kLowerFails: ok = cand >= base - slack; break;
      case Direction::kHigherFails: ok = cand <= base + slack; break;
      case Direction::kHigherFailsExact: ok = cand <= base; break;
      case Direction::kBothFail: ok = std::abs(cand - base) <= slack; break;
      case Direction::kIgnored: break;
    }
    ++checked;
    if (!ok) {
      char bound[64];
      if (dir == Direction::kHigherFailsExact) {
        std::snprintf(bound, sizeof(bound), "no rise allowed");
      } else {
        std::snprintf(bound, sizeof(bound), "tolerance %.0f%%%s",
                      args.tolerance * 100,
                      metric == "allocations_per_op" ? " + slack" : "");
      }
      std::fprintf(stderr, "  FAIL %s%s: baseline median %.6f, candidate "
                   "%.6f (%s)\n",
                   group.c_str(), metric.c_str(), base, cand, bound);
      ++failures;
    }
  }
  std::printf("bench_gate: %s — %d metrics checked, %d regressions\n",
              baseline_path.filename().string().c_str(), checked, failures);
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
#ifdef COWBIRD_SOURCE_DIR
  GateArgs args{.baseline_dir = fs::path(COWBIRD_SOURCE_DIR) / "bench" /
                                "baselines"};
#else
  GateArgs args{.baseline_dir = "bench/baselines"};
#endif
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline-dir") == 0 && i + 1 < argc) {
      args.baseline_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--candidate-dir") == 0 && i + 1 < argc) {
      args.candidate_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      args.tolerance = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--alloc-slack") == 0 && i + 1 < argc) {
      args.alloc_slack = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--write-baseline") == 0) {
      args.write_baseline = true;
    } else if (std::strcmp(argv[i], "--gate-wall") == 0) {
      args.gate_wall = true;
    } else {
      std::printf(
          "usage: %s [--baseline-dir D] [--candidate-dir D] [--tolerance F]"
          " [--alloc-slack F] [--write-baseline] [--gate-wall]\n", argv[0]);
      return 2;
    }
  }

  if (args.write_baseline) {
    fs::create_directories(args.baseline_dir);
    int written = 0;
    for (const auto& entry : fs::directory_iterator(args.candidate_dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json")
        continue;
      fs::path dest = args.baseline_dir /
                      (entry.path().stem().string() + ".baseline.json");
      fs::copy_file(entry.path(), dest, fs::copy_options::overwrite_existing);
      std::printf("bench_gate: wrote %s\n", dest.string().c_str());
      ++written;
    }
    if (written == 0) {
      std::fprintf(stderr, "bench_gate: no BENCH_*.json in %s\n",
                   args.candidate_dir.string().c_str());
      return 2;
    }
    return 0;
  }

  if (!fs::is_directory(args.baseline_dir)) {
    std::fprintf(stderr, "bench_gate: baseline dir %s not found\n",
                 args.baseline_dir.string().c_str());
    return 2;
  }
  int rc = 0;
  int compared = 0;
  for (const auto& entry : fs::directory_iterator(args.baseline_dir)) {
    const std::string name = entry.path().filename().string();
    const std::string suffix = ".baseline.json";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    const fs::path candidate =
        args.candidate_dir /
        (name.substr(0, name.size() - suffix.size()) + ".json");
    rc = std::max(rc, CompareOne(entry.path(), candidate, args));
    ++compared;
  }
  if (compared == 0) {
    std::fprintf(stderr, "bench_gate: no *.baseline.json under %s\n",
                 args.baseline_dir.string().c_str());
    return 2;
  }
  return rc;
}

}  // namespace
}  // namespace cowbird::bench

int main(int argc, char** argv) { return cowbird::bench::Main(argc, argv); }
