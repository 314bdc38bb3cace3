// Cowbird-P4 offload engine (Section 5).
//
// The engine lives inside the switch's packet pipeline (net::PacketProcessor)
// and *recycles* RDMA packets instead of running a host stack:
//
//   Probe (Phase II)  — a packet generator emits lowest-priority RDMA read
//     requests for the packed green-block region; the response's payload is
//     parsed in the pipeline and compared against tail registers.
//   Fetch             — a moved tail recycles the probe response into a read
//     of the request-metadata ring (bounded entries per fetch — what fits
//     in the PHV).
//   Execute (Phase III) — read ops: a read request is sent to the memory
//     pool; each response packet is rewritten header-only (READ_RESP_* →
//     WRITE_*) toward the compute node's response ring, payload untouched.
//     Write ops: the payload is fetched from the compute data ring and the
//     response packets are rewritten into WRITE_* toward the pool.
//   Complete (Phase IV) — the ACK returning from the payload write is
//     recycled into a single RDMA write of the packed red block (pointers +
//     progress counters).
//
// Consistency: the pipeline is the serialization point. Within a type,
// execution follows metadata order. Across types, the engine *pauses all
// newly probed reads* while any write of that thread is in flight — RMT
// pipelines cannot do range comparisons over in-flight sets, so the paper's
// Cowbird-P4 conservatively fences everything (Section 5.3); contrast with
// the exact range check in spot/agent.h.
//
// Fault tolerance: per-QP Go-Back-N. Every request the switch makes is held
// in a pending FIFO with enough register state to rebuild it. On timeout or
// NAK, the switch resets its send PSN to the committed boundary and re-walks
// the FIFO in order; payload writes (whose bytes the switch never stores)
// are rebuilt by re-issuing the idempotent pool read and re-converting the
// responses onto their original, reserved PSN span.
//
// QP layout per instance: switch-generated read requests and recycled write
// streams never share a QP, on the compute side and toward every memory
// server alike. A write stream mid-conversion blocks everything behind it in
// PSN order, so putting the reads that *feed* conversions on the same QP
// deadlocks under loss: each QP's front write waits for a re-fetch read
// stuck behind the other QP's front write. Read-only QPs always drain, so
// the recovery re-fetch is always emittable.
//
// Multiple instances are probed in a time-division round-robin (Section
// 5.4); a QPN→instance mapping resolves all non-probe packets.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/pool.h"
#include "common/units.h"
#include "core/instance.h"
#include "core/request.h"
#include "net/switch.h"
#include "offload/hazard_tracker.h"
#include "offload/probe_scheduler.h"
#include "offload/progress.h"
#include "rdma/device.h"
#include "rdma/qp.h"
#include "p4/resources.h"
#include "rdma/wire.h"
#include "sim/simulation.h"
#include "telemetry/hub.h"

namespace cowbird::p4 {

// The switch's own fabric address: the RDMA endpoint identity every host QP
// of the engine connects to. Other traffic addressed to it is dropped.
inline constexpr net::NodeId kSwitchAddress = 100;

// Host-side endpoint the switch speaks RDMA with (established in Phase I,
// ConnectP4Engine).
struct HostEndpoint {
  net::NodeId node = 0;
  std::uint32_t host_qpn = 0;    // QP on the host, responder role
  std::uint32_t switch_qpn = 0;  // QPN the host believes it is talking to
  std::uint32_t start_psn = 0;   // switch's initial send PSN toward the host
};

// The QPs Phase I establishes per instance. Requests and recycled write
// streams are deliberately separate (see the fault-tolerance note above).
// Elastic pool (DESIGN.md §14): every memory server gets one (pool-read,
// pool-write) endpoint pair; the in-switch translation table picks the pair
// per operation.
struct P4Connection {
  struct MemoryEndpoints {
    HostEndpoint read;   // pool reads
    HostEndpoint write;  // recycled pool writes (write-op data)
  };
  HostEndpoint compute;     // metadata / data-ring reads (compute node)
  HostEndpoint probe;       // lowest-priority green-region probes
  HostEndpoint wr_compute;  // recycled payload writes + red writes
  std::vector<MemoryEndpoints> memory;  // one per memory server, first first
  // Go-Back-N timeout of the switch's side of every QP: the fabric's, as
  // the compute NIC is configured (NicConfig::retransmit_timeout).
  Nanos retransmit_timeout = 0;
  // Whether the fabric runs DCQCN (NicConfig::dcqcn.enabled): the
  // instance's switch-generated data packets are then stamped ECT(0) so
  // congested egress queues can CE-mark them. The RMT pipeline keeps no
  // per-flow rate state, so CNPs that come back are *reflected* to the
  // memory host's endpoint (see ConsumeRdma) — the host NIC's DCQCN does
  // the pacing.
  bool ecn_capable = false;
};

class CowbirdP4Engine : public net::PacketProcessor {
 public:
  // TDM selection now lives in the shared offload core (Section 5.4).
  using ProbePolicy = offload::ProbeSelection;

  // Section 5.2 ramp-up ceiling: an adaptive probe interval doubles after
  // idle probes up to this.
  static constexpr Nanos kProbeIntervalMax = Micros(64);
  // Metadata entries fetched per read: limited by what the parser can
  // walk through the PHV (Section 5.2 fetches head→tail; the PHV bounds
  // one packet's parsed entries).
  static constexpr std::uint64_t kMetaEntriesPerFetch = 8;

  struct Config {
    Nanos probe_interval = Micros(2);  // 1 probe / 2 us (Section 5.2)
    ProbePolicy probe_policy = ProbePolicy::kRoundRobin;
    // Section 5.2 ramp-up: back off while idle, snap back on activity.
    bool adaptive_probe = false;
    // TEST-ONLY: disables the pause-all-reads write fence (Section 5.3).
    // Exists so the chaos harness can prove its linearizability checker
    // catches a real consistency bug; never enable outside tests.
    bool chaos_unsafe_skip_hazards = false;
    // Optional telemetry hub: op lifecycle phases (parsed/execute/done),
    // probe spans, per-instance queue-depth gauges, and engine counters.
    // nullptr = telemetry off.
    telemetry::Hub* telemetry = nullptr;
  };

  CowbirdP4Engine(net::Switch& sw, Config config);

  // Phase I (called by workload::Cluster::Attach): registers an instance
  // with its descriptor and established QPs, laid out as one QPN block
  // (ConnectP4Engine). Every memory server the descriptor's translation
  // table references must have an endpoint pair in conn.memory — checked
  // here, not on the data path. When `resume` is non-null the instance
  // continues from a progress snapshot exported by another engine (a
  // re-attach) instead of starting fresh.
  void AddInstance(const core::InstanceDescriptor& descriptor,
                   const P4Connection& conn,
                   const offload::InstanceProgress* resume = nullptr);

  // Tears down an instance (called by workload::Cluster::Detach). Returns
  // false if the instance id is unknown.
  bool RemoveInstance(std::uint32_t instance_id);

  // Red-block counters for every thread of an instance — the snapshot a
  // detach hands to the engine taking over. Exported
  // counters only cover *completed* work; a drained instance (no in-flight
  // ops) resumes losslessly, an undrained one re-executes the tail
  // idempotently on the new engine.
  std::optional<offload::InstanceProgress> ExportProgress(
      std::uint32_t instance_id) const;

  // Stops the probe generator (engine decommission). In-flight operations
  // keep completing through the pipeline; no new probes are emitted.
  void StopProbing() { probing_stopped_ = true; }

  void Start();

  // net::PacketProcessor: every packet entering the switch.
  void Process(net::Switch& sw, int ingress_port, net::Packet packet,
               std::vector<net::ForwardAction>& out) override;

  // Counters.
  std::uint64_t probes_sent() const { return probes_sent_; }
  std::uint64_t packets_recycled() const { return packets_recycled_; }
  std::uint64_t ops_completed() const { return ops_completed_; }
  std::uint64_t reads_paused_by_writes() const {
    return reads_paused_by_writes_;
  }
  std::uint64_t recoveries() const { return recoveries_; }
  std::uint64_t cnps_reflected() const { return cnps_reflected_; }
  // RoCE packets to the switch endpoint too short for the headers they
  // name, or read responses longer than their request still expects,
  // dropped.
  std::uint64_t malformed_dropped() const { return malformed_dropped_; }

 public:
  enum class PendingKind : std::uint8_t {
    kProbe,           // read of the green region
    kMetaFetch,       // read of request-metadata entries
    kWriteDataFetch,  // read of the compute data ring (write op payload)
    kPoolRead,        // read of the pool (read op data)
    kPayloadWrite,    // write of read-op data toward the compute node
    kPoolWrite,       // write of write-op data toward the pool
    kRedWrite,        // Phase IV bookkeeping write
  };

  struct Op {
    core::RequestMetadata meta;
    std::uint64_t seq = 0;
    bool is_write = false;
    bool done = false;
    // Set when a conversion chunk had to be discarded before its
    // destination stream existed; the probe-periodic sweep re-fetches.
    bool refetch_needed = false;
    // Hazard-window handle for writes (pause-all-reads fence).
    offload::HazardTracker::Ticket hazard_ticket = 0;
  };

  struct Pending {
    PendingKind kind;
    std::uint32_t first_psn = 0;
    std::uint32_t segments = 1;
    std::uint32_t bytes_done = 0;   // read-response progress
    bool emitted = false;           // request sent since last (re)walk
    bool done = false;              // response/ack received
    int thread = 0;
    std::uint64_t seq = 0;          // op sequence (per type)
    bool is_write_op = false;
    // Rebuild info for reads the switch originates.
    std::uint64_t raddr = 0;
    std::uint32_t rkey = 0;
    std::uint32_t length = 0;
    // kMetaFetch: ring cursor + entry count.
    std::uint64_t fetch_cursor = 0;
    std::uint32_t fetch_count = 0;
    // kPayloadWrite: conversion progress (bytes of payload re-emitted).
    std::uint32_t bytes_sent = 0;
    bool pool_reissue_needed = false;
  };

  struct SwitchQp {
    HostEndpoint host;
    std::uint32_t next_psn = 0;       // next request PSN to assign
    std::uint32_t committed_psn = 0;  // everything below is fully done
    // Invariant: `pending` is in PSN order AND emission order. Entries are
    // admitted (PSN assigned) only when everything before them is fully on
    // the wire; switch-generated requests that arrive while a conversion
    // stream is mid-flight wait in `deferred`.
    FixedDeque<Pending> pending;
    FixedDeque<Pending> deferred;
    int unemitted = 0;
    sim::TimerHandle timer;
  };

  struct ThreadState {
    std::uint64_t tail_seen = 0;
    std::uint64_t fetch_cursor = 0;   // metadata entries fetched
    // Red-block counters (meta_head, data_head, resp_tail, progress seqs):
    // the completed boundary published in Phase IV.
    core::RedBlock progress;
    std::uint64_t next_read_seq = 0;
    std::uint64_t next_write_seq = 0;
    // Last write that took a PSN span on its server's write QP: a thread's
    // writes take spans in sequence order (DESIGN.md §12 note 2).
    std::uint64_t pool_write_seq = 0;
    // Section 5.3 pause-all-reads fence, via the shared hazard core.
    offload::HazardTracker hazards{
        offload::HazardTracker::Policy::kFenceAllReads};
    FixedDeque<Op> inflight;          // fetch order
    bool meta_fetch_inflight = false;
  };

  // One memory server's QP pair.
  struct MemoryPath {
    SwitchQp read;   // pool reads (never blocks)
    SwitchQp write;  // recycled pool writes (write-op data)
  };

  struct Instance {
    core::InstanceDescriptor descriptor;
    // In-switch translation mirror (the ig3_range_translate stage): every
    // pool access range-matches (region, vaddr) to {server, rkey, offset}.
    // Copied from the descriptor at attach, never mutated while attached.
    core::TranslationTable translation;
    std::uint64_t activity_credit = 0;  // recent tail movement (TDM weight)
    SwitchQp to_compute;  // metadata + data-ring reads (never blocks)
    SwitchQp to_probe;    // dedicated QP for lowest-priority probes: probe
                          // packets may be overtaken by higher classes, so
                          // they cannot share a PSN space with data
    // Recycled write streams: a conversion mid-stream stalls its QP until
    // fed, so writes get QPs of their own — the reads that feed them (and
    // rebuild them after Go-Back-N) stay emittable. See the header comment.
    SwitchQp wr_compute;  // payload writes (read delivery) + red writes
    // One pair per memory server, in connection order. Sized once at
    // attach: the retransmission timers capture SwitchQp addresses.
    std::vector<MemoryPath> memory;
    Nanos gbn_timeout = 0;     // P4Connection::retransmit_timeout
    bool ecn_capable = false;  // P4Connection::ecn_capable
    std::vector<ThreadState> threads;
    bool probe_inflight = false;
    // Telemetry: probe round-trip span, precomputed track name, and the
    // queue-depth gauges (removed with the instance).
    telemetry::SpanTracer::SpanHandle probe_span;
    std::string probe_track;
    telemetry::CallbackGauges gauges;

    // The QPs by their offset in the instance's QPN block: compute +0,
    // probe +1, payload write +2, server i's read +3+2i and write +4+2i.
    std::uint32_t qp_count() const {
      return 3 + 2 * static_cast<std::uint32_t>(memory.size());
    }
    SwitchQp& qp(std::uint32_t slot);
  };

  // --- probe generator ---
 private:
  void ProbeTick();
  void EmitProbe(Instance& inst);

  // --- pipeline packet handling ---
  void ConsumeRdma(net::Packet packet);
  void HandleReadResponse(Instance& inst, SwitchQp& qp,
                          const rdma::RdmaMessageView& view);
  void HandleAck(Instance& inst, SwitchQp& qp,
                 const rdma::RdmaMessageView& view);

  // --- pending completion effects ---
  void OnProbeData(Instance& inst, const rdma::RdmaMessageView& view);
  void OnMetaData(Instance& inst, Pending& pending,
                  const rdma::RdmaMessageView& view);
  void OnSourceChunk(Instance& inst, Pending& pending,
                     const rdma::RdmaMessageView& view,
                     std::uint32_t chunk_offset);
  void OnConversionAcked(Instance& inst, const Pending& pending);
  void CompleteOpsInOrder(Instance& inst, int thread);
  void EmitRedWrite(Instance& inst, int thread);

  // --- request scheduling with ordered emission (GBN-safe) ---
  Pending& AppendPending(SwitchQp& qp, Pending pending);
  void Admit(Instance& inst, SwitchQp& qp, Pending pending);
  bool IsFrontier(const SwitchQp& qp, const Pending& pending) const;
  void WalkAndEmit(Instance& inst, SwitchQp& qp);
  void EmitRequestPacket(Instance& inst, SwitchQp& qp, Pending& pending);
  void PopDonePendings(SwitchQp& qp);
  void MaybeFetchMetadata(Instance& inst, int thread);
  void RefetchOrphans(Instance& inst);

  // The idempotent read that feeds an op's conversion, and the QP it goes
  // out on: the compute node's data ring for a write, the translated pool
  // range for a read.
  struct SourceFetch {
    SwitchQp* qp;
    Pending pending;
  };
  static SourceFetch SourceFetchFor(Instance& inst, int thread, const Op& op);

  // The QP pair toward `node` (translation output).
  static MemoryPath& PoolPath(Instance& inst, net::NodeId node);

  // --- fault tolerance ---
  void ArmTimer(Instance& inst, SwitchQp& qp);
  void Recover(Instance& inst, SwitchQp& qp);

  void SendPacket(net::Packet packet);
  net::Packet BuildRequest(const Instance& inst, const SwitchQp& qp,
                           rdma::Opcode opcode, std::uint32_t psn,
                           bool ack_request, const rdma::Reth* reth,
                           std::span<const std::uint8_t> payload,
                           net::Priority priority);

  // --- telemetry ---
  telemetry::Labels EngineLabels() const;
  telemetry::Labels InstanceLabels(std::uint32_t instance_id) const;
  void RegisterInstanceTelemetry(Instance& inst);
  void RecordOpPhase(const Instance& inst, int thread, bool is_write,
                     std::uint64_t seq, telemetry::OpPhase phase) {
    if (config_.telemetry != nullptr) {
      config_.telemetry->tracer.RecordOp(
          telemetry::OpKey{inst.descriptor.instance_id,
                           static_cast<std::uint32_t>(thread), is_write, seq},
          phase);
    }
  }

  Instance* InstanceForQpn(std::uint32_t switch_qpn, SwitchQp** qp);

  net::Switch* sw_;
  sim::Simulation* sim_;
  Config config_;
  std::vector<std::unique_ptr<Instance>> instances_;
  offload::ProbeScheduler scheduler_;  // TDM + adaptive ramp (shared core)
  // ProbeTick's scratch, reused so a tick does not allocate.
  std::vector<offload::ProbeScheduler::Candidate> probe_candidates_;
  bool started_ = false;
  bool probing_stopped_ = false;

  std::uint64_t probes_sent_ = 0;
  std::uint64_t packets_recycled_ = 0;
  std::uint64_t ops_completed_ = 0;
  std::uint64_t reads_paused_by_writes_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t cnps_reflected_ = 0;
  std::uint64_t malformed_dropped_ = 0;
  telemetry::CallbackGauges gauges_;  // with a hub: the engine_* series
};

// Phase I helper: creates responder QPs on the hosts and wires them to the
// switch endpoint identity, as one block of 3 + 2 * memories.size() switch
// QPNs from qpn_base in Instance::qp order. Server i's PSNs start 100 * i
// above the first server's, keeping every stream disjoint.
P4Connection ConnectP4Engine(rdma::Device& compute,
                             std::span<rdma::Device* const> memories,
                             std::uint32_t qpn_base);

}  // namespace cowbird::p4
