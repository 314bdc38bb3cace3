#include "p4/resources.h"

namespace cowbird::p4 {

namespace {
constexpr std::uint64_t kInstances = 32;  // worst case: every port
constexpr std::uint64_t kThreads = 16;    // hardware threads per compute node
}  // namespace

P4PipelineSpec BuildCowbirdP4Spec(const P4SpecParams& p) {
  P4PipelineSpec spec;

  // --- PHV: parsed headers + bridged metadata ------------------------------
  // Headers the parser extracts (Table 4 plus encapsulation).
  spec.phv = {
      {"ethernet", 112},
      {"ipv4", 160},
      {"udp", 64},
      {"bth", 96},
      {"reth", 128},
      {"aeth", 32},
      // Bridged/ingress metadata: instance id, thread id, op kind, pending
      // slot index, PSN scratch, cursor scratch, recycle opcode map, flags.
      {"md.instance", 16},
      {"md.thread", 16},
      {"md.kind", 8},
      {"md.pending_slot", 32},
      {"md.psn_scratch", 48},
      {"md.cursor_scratch", 64},
      {"md.addr_scratch", 128},
      {"md.len_scratch", 32},
      {"md.counter_scratch", 128},
      {"md.flags", 21},
  };

  constexpr std::uint64_t iq = kInstances;
  constexpr std::uint64_t tq = kThreads;
  constexpr std::uint64_t fq = kMaxInflightPerThread;
  const auto rq = static_cast<std::uint64_t>(p.translation_ranges);

  // --- Stages --------------------------------------------------------------
  // Entry sizes (bits) for the stateful structures.
  constexpr std::uint64_t kQpnMapEntry = 96;       // qpn → instance/role
  constexpr std::uint64_t kRegionEntry = 160;      // region → node/rkey/base
  constexpr std::uint64_t kPendingEntry = 288;     // rebuild + progress state
  constexpr std::uint64_t kCounterBlock = 5 * 64;  // red-block registers
  constexpr std::uint64_t kTailBlock = 3 * 64;     // probe-side cursors
  constexpr std::uint64_t kQpState = 256;          // PSNs per switch QP
  // Range translation (elastic pool): the match key is region id + vaddr;
  // a range match compiles to ~2 TCAM prefixes per entry, and the action
  // data rewrites {server, rkey, remote offset}.
  constexpr std::uint64_t kRangeKey = 80;      // region(16) + vaddr(64)
  constexpr std::uint64_t kRangeAction = 160;  // node/rkey/base rewrite

  spec.stages = {
      // Ingress.
      {"ig0_port_and_roce_classify", /*sram=*/32 * 1024 * 8,
       /*tcam=*/static_cast<std::uint64_t>(1.25 * 1024 * 8), /*vliw=*/3, /*salu=*/0},
      {"ig1_qpn_to_instance", iq * 128 * kQpnMapEntry, 0, 3, 0},
      {"ig2_region_table", iq * 64 * kRegionEntry, 0, 2, 0},
      {"ig4_probe_tail_compare", iq * tq * kTailBlock, 0, 3, 2},
      {"ig5_meta_cursor_update", iq * tq * kTailBlock, 0, 3, 1},
      {"ig6_write_fence", iq * tq * 64, 0, 2, 1},
      {"ig7_pending_table_lookup", iq * tq * fq * kPendingEntry, 0, 4, 2},
      // Egress.
      {"eg0_psn_allocate", iq * 2 * kQpState, 0, 4, 2},
      {"eg1_opcode_rewrite", 16 * 1024 * 8, 0, 5, 0},
      {"eg2_header_rebuild", 8 * 1024 * 8, 0, 5, 0},
      {"eg3_progress_counters", iq * tq * kCounterBlock, 0, 2, 2},
      {"eg4_tdm_and_ack", iq * 64 + 64 * 1024 * 8, 0, 2, 1},
  };
  if (rq > 0) {
    // Elastic pool (DESIGN.md §14): range-match the virtual pool address
    // to the owning memory server and rewrite raddr/rkey in the PHV.
    const P4StageSpec ig3{"ig3_range_translate", iq * rq * kRangeAction,
                          iq * rq * kRangeKey * 2, 3, 0};
    spec.stages.insert(spec.stages.begin() + 3, ig3);
  }

  return spec;
}

}  // namespace cowbird::p4
