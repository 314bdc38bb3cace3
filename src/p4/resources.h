// RMT pipeline resource model (Table 5).
//
// The Cowbird-P4 logic is laid out as match-action stages below; the
// estimator sums the resources each stage declares, with table/register
// sizes derived from the paper's worst case — all 32 ports driving Cowbird,
// 16 threads each, the engine's in-flight budget. Running
// `bench/table5_resources` for the paper's program (no range table)
// reproduces the Table 5 row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace cowbird::p4 {

struct P4StageSpec {
  std::string name;
  std::uint64_t sram_bits = 0;
  std::uint64_t tcam_bits = 0;
  int vliw_instructions = 0;
  int stateful_alus = 0;
};

struct P4PipelineSpec {
  // PHV allocation is pipeline-wide: headers + bridged metadata.
  struct PhvField {
    std::string name;
    int bits;
  };
  std::vector<PhvField> phv;
  std::vector<P4StageSpec> stages;

  struct Totals {
    int phv_bits = 0;
    double sram_kib = 0;
    double tcam_kib = 0;
    int stages = 0;
    int vliw_instructions = 0;
    int stateful_alus = 0;
  };

  Totals Sum() const {
    Totals t;
    for (const auto& f : phv) t.phv_bits += f.bits;
    for (const auto& s : stages) {
      t.sram_kib += static_cast<double>(s.sram_bits) / 8.0 / 1024.0;
      t.tcam_kib += static_cast<double>(s.tcam_bits) / 8.0 / 1024.0;
      t.vliw_instructions += s.vliw_instructions;
      t.stateful_alus += s.stateful_alus;
    }
    t.stages = static_cast<int>(stages.size());
    return t;
  }
};

// In-flight operations per thread the pending "hash table" can hold: the
// engine's admission bound and the size of the ig7 pending table.
inline constexpr std::size_t kMaxInflightPerThread = 64;

struct P4SpecParams {
  // Elastic-pool range-translation entries per instance (the
  // ig3_range_translate TCAM stage, DESIGN.md §14). The default covers a
  // region split across a handful of servers; single-server identity
  // tables need one entry per region. 0 is the paper's program: no range
  // table, so no ig3 stage.
  int translation_ranges = 4;
};

// Builds the stage-by-stage layout of the Cowbird-P4 program.
P4PipelineSpec BuildCowbirdP4Spec(const P4SpecParams& params);

}  // namespace cowbird::p4
