// Shared output helpers for the figure/table benchmarks.
//
// Every bench prints (a) a header identifying the paper artifact it
// regenerates, (b) a gnuplot-friendly data table (series as columns), and
// (c) a short "shape check" comparing the measured relationships with what
// the paper reports. Absolute numbers are simulator-calibrated, not testbed
// numbers — the shapes are the reproduction target (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sim/parallel.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"

namespace cowbird::bench {

// The --jobs N flag every sweep driver grew its own copy of. Call Consume
// once per argv position inside the driver's flag loop; it returns true when
// it recognized (and consumed, including the value operand) the flag. A
// missing value flips ok() to false — the driver prints Usage() and exits,
// same as for an unknown flag.
class ParallelFlags {
 public:
  bool Consume(int argc, char** argv, int& i) {
    if (std::strcmp(argv[i], "--jobs") != 0) return false;
    if (i + 1 >= argc) {
      ok_ = false;
    } else {
      jobs = std::atoi(argv[++i]);
    }
    return true;
  }

  bool ok() const { return ok_; }
  const char* Usage() const { return "[--jobs N]"; }
  // Resolved sweep width: the explicit --jobs value or hardware concurrency.
  int Jobs() const { return jobs > 0 ? jobs : sim::MaxParallelism(); }

  int jobs = 0;  // 0 → hardware concurrency

 private:
  bool ok_ = true;
};

inline void Banner(const char* artifact, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact, description);
  std::printf("==============================================================\n");
}

class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void Row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

  void Print() const {
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      widths[c] = columns_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < columns_.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]),
                    c < cells.size() ? cells[c].c_str() : "");
      }
      std::printf("\n");
    };
    print_row(columns_);
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline void ShapeCheck(bool ok, const char* claim) {
  std::printf("  [%s] %s\n", ok ? "ok" : "MISMATCH", claim);
}

// Machine-readable companion to the printed tables: collects the measured
// data points, the shape-check verdicts, and the run's telemetry snapshot,
// then writes BENCH_<name>.json next to the binary. The document is
// re-parsed before it is written, so a bench can never publish a file the
// repo's own JSON tooling would reject.
//
// Schema:
//   { "schema_version": N, "bench": <name>, "artifact": <figure/table>,
//     "rows": [ { "params": {k: string}, "metrics": {k: number} }, ... ],
//     "shape_checks": [ { "claim": string, "ok": bool }, ... ],
//     "telemetry": <telemetry::Snapshot::ToJson object> }
//
// Version 1 is the original layout. Version 2 (sim_throughput) keeps the
// same structure but adds aggregate/parallel rows whose wall metrics are
// named *_wall; a schema bump marks the row-set change so stale baselines
// are caught by inspection, not by silent drift. Version 3 (sim_throughput)
// adds the split-scaling rows: the 16-node rack workload partitioned one
// PDES domain per topology node, swept across worker counts (params gain a
// "workers" key; deterministic scale_ops is gated, wall curves stay *_wall).
// Version 4 (sim_throughput) adds the fabric-scaling rows: a 128-client
// two-tier fabric swept across worker counts and split scopes (params gain
// "scope"), plus the horizon A/B rows comparing per-edge against global-min
// epoch horizons (deterministic fabric_ops / epochs / epochs_per_sim_ms are
// gated, wall metrics stay *_wall informational). Version 5 (sim_throughput)
// drops every split row with the intra-run PDES engine they measured: the
// two-domain split rows, the scale worker sweep (the serial scale row
// stays) and the fabric and horizon rows.
class BenchJson {
 public:
  using Params = std::vector<std::pair<std::string, std::string>>;
  using Metrics = std::vector<std::pair<std::string, double>>;

  BenchJson(std::string name, std::string artifact,
            unsigned schema_version = 1)
      : name_(std::move(name)),
        artifact_(std::move(artifact)),
        schema_version_(schema_version) {}

  void Row(Params params, Metrics metrics) {
    rows_.push_back({std::move(params), std::move(metrics)});
  }

  // Records the verdict AND prints it like the free ShapeCheck.
  void ShapeCheck(bool ok, const char* claim) {
    bench::ShapeCheck(ok, claim);
    checks_.push_back({claim, ok});
  }

  void SetTelemetry(const telemetry::Snapshot& snapshot) {
    telemetry_json_ = snapshot.ToJson();
  }

  std::string ToJson() const {
    telemetry::JsonWriter w;
    w.BeginObject();
    w.Key("schema_version");
    w.Uint(schema_version_);
    w.Key("bench");
    w.String(name_);
    w.Key("artifact");
    w.String(artifact_);
    w.Key("rows");
    w.BeginArray();
    for (const auto& row : rows_) {
      w.BeginObject();
      w.Key("params");
      w.BeginObject();
      for (const auto& [k, v] : row.params) {
        w.Key(k);
        w.String(v);
      }
      w.EndObject();
      w.Key("metrics");
      w.BeginObject();
      for (const auto& [k, v] : row.metrics) {
        w.Key(k);
        w.Double(v);
      }
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.Key("shape_checks");
    w.BeginArray();
    for (const auto& check : checks_) {
      w.BeginObject();
      w.Key("claim");
      w.String(check.claim);
      w.Key("ok");
      w.Bool(check.ok);
      w.EndObject();
    }
    w.EndArray();
    w.Key("telemetry");
    w.RawNumber(telemetry_json_.empty() ? "null" : telemetry_json_);
    w.EndObject();
    return w.TakeString();
  }

  // Validates, writes BENCH_<name>.json in the working directory, and
  // reports. Returns false (and writes nothing) if self-validation fails.
  bool WriteFile() const {
    const std::string doc = ToJson();
    std::string error;
    const auto parsed = telemetry::ParseJson(doc, &error);
    if (!parsed.has_value() || parsed->Find("rows") == nullptr ||
        parsed->Find("telemetry") == nullptr) {
      std::printf("  [MISMATCH] BENCH_%s.json failed self-validation: %s\n",
                  name_.c_str(), error.c_str());
      return false;
    }
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::printf("  [MISMATCH] cannot open %s for writing\n", path.c_str());
      return false;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("  [ok] wrote %s (%zu bytes, schema v%u, %zu rows)\n",
                path.c_str(), doc.size(), schema_version_, rows_.size());
    return true;
  }

 private:
  struct RowData {
    Params params;
    Metrics metrics;
  };
  struct Check {
    std::string claim;
    bool ok;
  };

  std::string name_;
  std::string artifact_;
  unsigned schema_version_ = 1;
  std::vector<RowData> rows_;
  std::vector<Check> checks_;
  std::string telemetry_json_;  // empty until SetTelemetry
};

}  // namespace cowbird::bench
