// Table 5: data-plane resource usage of the Cowbird-P4 program on a 32-port
// L3-forwarding Tofino switch (worst case: all ports drive Cowbird). The
// totals are computed by summing what each match-action stage declares.
//
// The paper's program has no range table; that is what Table 5 measures.
// The elastic-pool extension (DESIGN.md §14) adds the ig3_range_translate
// stage on top, so its cost is printed on its own row and checked against
// nothing in the paper.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "p4/resources.h"

using namespace cowbird;

namespace {

std::vector<std::string> TotalsRow(const std::string& name,
                                   const p4::P4PipelineSpec::Totals& t,
                                   const char* sign = "") {
  return {name,
          sign + std::to_string(t.phv_bits) + " b",
          sign + bench::Fmt(t.sram_kib, 1) + " KB",
          sign + bench::Fmt(t.tcam_kib, 2) + " KB",
          sign + std::to_string(t.stages),
          sign + std::to_string(t.vliw_instructions),
          sign + std::to_string(t.stateful_alus)};
}

}  // namespace

int main() {
  bench::Banner("Table 5", "Cowbird-P4 data-plane resource usage");

  // 32 instances x 16 threads, worst case.
  const p4::P4PipelineSpec paper_program =
      p4::BuildCowbirdP4Spec(p4::P4SpecParams{.translation_ranges = 0});
  const p4::P4PipelineSpec full = p4::BuildCowbirdP4Spec(p4::P4SpecParams{});

  std::printf("\nPHV allocation:\n");
  bench::Table phv({"field", "bits"});
  for (const auto& f : full.phv) phv.Row({f.name, std::to_string(f.bits)});
  phv.Print();

  std::printf("\nStage layout (full pipeline; ig3 is the elastic-pool "
              "extension):\n");
  bench::Table stages({"stage", "SRAM(KiB)", "TCAM(KiB)", "VLIW", "sALU"});
  for (const auto& s : full.stages) {
    stages.Row({s.name, bench::Fmt(s.sram_bits / 8.0 / 1024.0, 1),
                bench::Fmt(s.tcam_bits / 8.0 / 1024.0, 2),
                std::to_string(s.vliw_instructions),
                std::to_string(s.stateful_alus)});
  }
  stages.Print();

  const auto totals = paper_program.Sum();
  const auto full_totals = full.Sum();
  p4::P4PipelineSpec::Totals extension;
  extension.phv_bits = full_totals.phv_bits - totals.phv_bits;
  extension.sram_kib = full_totals.sram_kib - totals.sram_kib;
  extension.tcam_kib = full_totals.tcam_kib - totals.tcam_kib;
  extension.stages = full_totals.stages - totals.stages;
  extension.vliw_instructions =
      full_totals.vliw_instructions - totals.vliw_instructions;
  extension.stateful_alus = full_totals.stateful_alus - totals.stateful_alus;

  std::printf("\nTotals (computed vs paper Table 5):\n");
  bench::Table cmp(
      {"program", "PHV", "SRAM", "TCAM", "Stages", "VLIW", "sALU"});
  cmp.Row({"paper Table 5", "1085 b", "1424 KB", "1.28 KB", "12", "38", "11"});
  cmp.Row(TotalsRow("Cowbird-P4 (no range table)", totals));
  cmp.Row(TotalsRow("elastic-pool extension (ig3)", extension, "+"));
  cmp.Row(TotalsRow("full pipeline", full_totals));
  cmp.Print();
  std::printf(
      "\nThe full pipeline needs %d stages, one more than a Tofino pipe: a\n"
      "hardware build would merge the range match into the region-table\n"
      "stage or recirculate.\n",
      full_totals.stages);

  std::printf("\nShape checks vs the paper:\n");
  bench::ShapeCheck(totals.phv_bits == 1085, "PHV allocation matches");
  bench::ShapeCheck(totals.stages == 12, "fits 12 stages, no recirculation");
  bench::ShapeCheck(std::abs(totals.sram_kib - 1424) < 30,
                    "SRAM within 2% of the reported 1424 KB");
  bench::ShapeCheck(totals.stateful_alus == 11 &&
                        totals.vliw_instructions == 38,
                    "sALU / VLIW budgets match");
  return 0;
}
