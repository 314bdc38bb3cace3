// Cowbird-Spot offload engine (Section 6).
//
// An event-driven agent on a harvested/spot node executes the compute
// node's transfers through ordinary verbs:
//
//   Probe    — every probe_interval, one RDMA read fetches *all* threads'
//              green blocks (the packed layout makes this a single message,
//              requirement R3).
//   Fetch    — when a thread's metadata tail has advanced, RDMA-read the new
//              24-byte entries (two reads when the ring wraps).
//   Execute  — reads: RDMA-read the pool into local staging; writes:
//              RDMA-read the payload from the compute data ring, then
//              RDMA-write it to the pool.
//   Deliver  — staged read results are flushed to the compute node's
//              response ring; consecutive results whose destinations are
//              contiguous are coalesced into a single RDMA write of up to
//              batch_size results (the BATCH_SIZE batching of Section 6).
//   Complete — progress counters and ring heads are written back to the
//              red block, all five fields in one RDMA write (Phase IV).
//
// Consistency: per-type FIFO per thread is preserved end-to-end (pool QPs
// are RC, and delivery/batching is performed in sequence order). For the
// read-after-write hazard the agent does an exact overlapping-range check —
// unlike Cowbird-P4, only reads that truly overlap an in-flight write are
// stalled (Section 5.3).
//
// All verbs the agent issues charge *its own* SimThread (a spot core), never
// the compute node — that asymmetry is the entire point of Cowbird.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/pool.h"
#include "common/sparse_memory.h"
#include "core/instance.h"
#include "core/request.h"
#include "offload/hazard_tracker.h"
#include "offload/probe_scheduler.h"
#include "offload/progress.h"
#include "rdma/device.h"
#include "rdma/params.h"
#include "rdma/qp.h"
#include "rdma/verbs.h"
#include "sim/sync.h"
#include "sim/thread.h"
#include "spot/setup.h"
#include "spot/staging_arena.h"
#include "telemetry/hub.h"

namespace cowbird::spot {

class SpotAgent {
 public:
  // Ceiling of the adaptive probe interval (Config::adaptive_probe).
  static constexpr Nanos kProbeIntervalMax = Micros(64);
  // Flush a non-empty batch after this long even if not full.
  static constexpr Nanos kBatchTimeout = Micros(2);
  // Staging memory on the spot node: agent k of the host stages in
  // [kStagingStride * (k + 1), + Config::staging_capacity).
  static constexpr std::uint64_t kStagingStride = 0x4000'0000;
  static constexpr Bytes kStagingCapacity = MiB(64);
  // Per-thread cap on simultaneously executing operations.
  static constexpr int kMaxInflightPerThread = 128;

  struct Config {
    Nanos probe_interval = Micros(2);
    // Section 5.2 ramp-up: "start at a low baseline rate and ramp up only
    // when activity is detected". When enabled, the interval doubles after
    // idle probes (up to kProbeIntervalMax) and snaps back to
    // probe_interval on activity.
    bool adaptive_probe = false;
    // Maximum read results coalesced into one RDMA write to the compute
    // node. 1 disables batching (the "Cowbird (batching disabled)" series).
    int batch_size = 16;
    // TEST-ONLY: disables the read-after-write hazard fence (Section 5.3).
    // Exists so the chaos harness can prove its linearizability checker
    // catches a real consistency bug; never enable outside tests.
    bool chaos_unsafe_skip_hazards = false;
    // Bytes of the staging arena. Far above any workload's live staging;
    // tests shrink it to exercise back-pressure.
    Bytes staging_capacity = kStagingCapacity;
    // Optional telemetry hub: op lifecycle phases (parsed/execute/done),
    // probe spans, per-instance queue-depth gauges, and engine counters.
    // nullptr = telemetry off.
    telemetry::Hub* telemetry = nullptr;
  };

  // Entries fetched per metadata read (bounds the staging area and, in the
  // P4 analogue, what fits in the PHV).
  static constexpr std::uint64_t kMetaFetchLimit = 64;

  // `index` numbers the agents of one spot host (0, 1, ...): it places the
  // agent's staging arena and labels its telemetry series (agent=<index>).
  SpotAgent(rdma::Device& device, sim::Machine& machine, int index,
            Config config);

  // Registers an instance over `conn` (ConnectSpotEngine): a connected QP to
  // the instance's compute node and one to every memory node the region
  // table names. CQ completion routing is installed here. May be called
  // while the agent is running (a re-attach); `resume` seeds the instance
  // from a progress snapshot exported by the engine previously serving it,
  // and threads it marks `unpublished` get their counters republished.
  void AddInstance(const core::InstanceDescriptor& descriptor,
                   const SpotConnection& conn,
                   const offload::InstanceProgress* resume = nullptr);

  // Detaches an instance: no further probes or fetches for it, and stale
  // completions are dropped. Returns false if the id is unknown. For a
  // lossless handoff, stop probing and wait for InstanceDrained() first —
  // operations still in flight at removal are abandoned (the client-visible
  // effect of an engine crash).
  bool RemoveInstance(std::uint32_t instance_id);

  // Crash-safe progress snapshot — what a detach hands to the engine
  // taking over. Counters cover only ACKed-durable work (read
  // delivery is published optimistically but exported conservatively), and
  // parsed-but-incomplete operations ride along explicitly (see
  // offload::PendingOp): the client has already freed their metadata slots,
  // so they are unrecoverable from the rings alone. For a drained instance
  // the pending lists are empty and the counters match the red block.
  std::optional<offload::InstanceProgress> ExportProgress(
      std::uint32_t instance_id) const;

  // True when the instance has no parsed-but-incomplete operations and no
  // metadata fetch in flight (safe to hand off losslessly).
  bool InstanceDrained(std::uint32_t instance_id) const;

  void Start();

  // Engine decommission: stop issuing probes (and thereby new work);
  // already-fetched operations keep executing to completion.
  void StopProbing() { probing_stopped_ = true; }

  sim::SimThread& agent_thread() { return thread_; }
  std::uint64_t probes_sent() const { return probes_sent_; }
  Nanos current_probe_interval() const {
    return scheduler_.current_interval();
  }
  std::uint64_t ops_completed() const { return ops_completed_; }
  std::uint64_t batches_flushed() const { return batches_flushed_; }
  std::uint64_t reads_stalled_by_writes() const {
    return reads_stalled_by_writes_;
  }
  const StagingArena& staging() const { return staging_; }
  // Times an op or a batch found the staging arena full.
  std::uint64_t staging_waits() const { return staging_waits_; }

 private:
  enum class OpState : std::uint8_t {
    kQueued,      // parsed, waiting to issue
    kFetching,    // read: pool fetch in flight; write: compute fetch in flight
    kStaged,      // read: payload staged locally, waiting to deliver
    kWriting,     // write: pool write in flight
    kDelivering,  // read: part of an in-flight batch to compute
    kDone,
  };

  struct Op {
    core::RequestMetadata meta;
    std::uint64_t seq = 0;  // per-thread per-type sequence (1-based)
    OpState state = OpState::kQueued;
    std::uint64_t staging_addr = 0;
    // Writes: the hazard-window admit ticket. Reads: the frontier captured
    // at parse time (only earlier writes can stall this read).
    offload::HazardTracker::Ticket hazard_ticket = 0;
    // Crash-resume replay: payload carried in the snapshot because the
    // previous engine had already consumed the client's data ring for this
    // write. Issued as a direct pool write, skipping the compute fetch.
    std::shared_ptr<std::vector<std::uint8_t>> carried_payload;
  };

  struct ThreadState {
    std::uint64_t tail_seen = 0;    // green meta_tail from last probe
    std::uint64_t fetch_cursor = 0; // entries requested from the ring
    // Red-block counters: meta_head (entries fully parsed), data_head,
    // resp_tail, write_progress, read_progress.
    offload::ThreadProgress progress;
    FixedDeque<Op> ops;             // probe order
    std::uint64_t next_read_seq = 0;
    std::uint64_t next_write_seq = 0;
    // Section 6 exact overlapping-range check, via the shared hazard core.
    offload::HazardTracker hazards{
        offload::HazardTracker::Policy::kExactRange};
    std::uint64_t pending_fetch = 0;   // entries in the in-flight meta read
    std::uint64_t deliver_cursor = 0;  // last read seq handed to a batch
    // Durable (batch-ACKed) counterparts of the optimistically published
    // read_progress / resp_tail — what a crash export may safely claim.
    std::uint64_t read_durable_seq = 0;
    std::uint64_t resp_tail_durable = 0;
    bool fetch_inflight = false;
    sim::TimerHandle batch_timer;
  };

  struct Instance {
    core::InstanceDescriptor descriptor;
    // Engine-side mirror of the cluster-pool translation table, copied from
    // the descriptor at attach. Every pool access resolves (region, vaddr)
    // through it; the single-server case degenerates to one identity range
    // per region. Never mutated while attached — a migration cutover
    // detaches, retargets the authoritative table, and re-attaches.
    core::TranslationTable translation;
    rdma::QueuePair* to_compute = nullptr;
    // Region lookups run per issued op, and a handful of memory nodes scan
    // faster than a tree.
    std::vector<SpotConnection::Path> to_memory;
    std::uint32_t index = 0;  // slot in instances_ (stable; encoded in wr_ids)
    std::vector<ThreadState> threads;
    std::uint64_t probe_staging = 0;     // staging addr for green blocks
    std::uint64_t meta_staging = 0;      // staging addr for metadata fetches
    bool probe_inflight = false;
    // Cleared by RemoveInstance: the slot stays (wr_ids encode the index)
    // but the instance is no longer probed and its completions are dropped.
    bool active = true;
    // Telemetry: probe round-trip span, precomputed track name, and the
    // engine_inflight_ops gauge (cleared by RemoveInstance).
    telemetry::SpanTracer::SpanHandle probe_span;
    std::string probe_track;
    telemetry::CallbackGauges gauges;
  };

 public:
  // Completion routing: wr_ids issued by the agent encode what to do next.
  enum class CompletionKind : std::uint8_t {
    kProbe,
    kMetaFetch,
    kPoolRead,      // read op data arrived in staging
    kComputeFetch,  // write op payload arrived from compute
    kPoolWrite,     // write op landed in the pool
    kBatchWrite,    // batch of read results landed in compute resp ring
    kRedWrite,      // red block update landed
    kBatchTimer,    // synthetic: batch timeout tick
    kResumeFlush,   // synthetic: publish + pump after a resume
  };

 private:
  static std::uint64_t MakeWrId(CompletionKind kind, std::uint32_t instance,
                                std::uint16_t thread, std::uint32_t token);

  sim::Task<void> MainLoop();
  sim::Task<void> ProbeAll();
  sim::Task<void> HandleCompletion(rdma::Cqe cqe);
  sim::Task<void> StartMetaFetch(Instance& inst, int thread);
  sim::Task<void> ParseFetchedMetadata(Instance& inst, int thread);
  sim::Task<void> PumpThread(Instance& inst, int thread);
  sim::Task<void> FlushBatch(Instance& inst, int thread, bool force = false);
  // Strict in-order write_progress advance + front pops of finished ops
  // (shared by the pool-write completion path and crash-resume seeding).
  static void AdvanceWriteProgressInOrder(ThreadState& ts);
  using RedBlock = std::array<std::uint8_t, core::kRedBlockBytes>;
  // The thread's red block, packed into `block`, as an unsignaled inline
  // WRITE; `block` must outlive the post.
  rdma::SendWqe RedBlockWqe(const Instance& inst, int thread,
                            RedBlock& block) const;
  sim::Task<void> WriteRedBlock(Instance& inst, int thread);
  void ArmBatchTimer(Instance& inst, int thread);

  // Stages `op` (sets its staging_addr). On a full arena the op stays
  // queued, its thread joins staging_waiters_, and this returns false.
  bool StageOp(Instance& inst, int thread, Op& op);
  void ReleaseStaging(std::uint64_t addr, Bytes len);
  // Re-pumps the threads waiting for staging (after a release).
  sim::Task<void> PumpStagingWaiters();

  const Instance* FindInstance(std::uint32_t instance_id) const;

  static rdma::QueuePair* MemoryQp(const Instance& inst, net::NodeId node) {
    for (const SpotConnection::Path& path : inst.to_memory) {
      if (path.node == node) return path.qp;
    }
    return nullptr;
  }

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

  rdma::Device* device_;
  int index_;
  sim::SimThread thread_;
  Config config_;
  std::vector<std::unique_ptr<Instance>> instances_;
  sim::Channel<rdma::Cqe> completions_;
  // Every op, batch and instance block stages here. An op's block returns
  // when its transfer completes: a read's once FlushBatch has gathered it
  // into its batch block (or, for a batch of one, when the batch lands),
  // a batch block when it lands, a write's when its pool write lands. The
  // instances' probe/meta blocks, and the blocks of ops an instance
  // removal abandons (a response may still land in them), never return.
  StagingArena staging_;
  // (instance index, thread) of the threads whose next op found the arena
  // full; re-pumped after a release.
  std::vector<std::pair<std::uint32_t, int>> staging_waiters_;
  bool staging_released_ = false;
  std::uint64_t staging_waits_ = 0;
  offload::ProbeScheduler scheduler_;  // Section 5.2 adaptive ramp (shared)
  bool last_probe_found_work_ = false;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t ops_completed_ = 0;
  std::uint64_t batches_flushed_ = 0;
  std::uint64_t reads_stalled_by_writes_ = 0;
  bool started_ = false;
  bool probing_stopped_ = false;

  // In-flight delivery batch: the run of read seqs [seq_begin, seq_end]
  // delivered together (read seqs are per-thread unique and a batch is a
  // consecutive run, so the range names the ops without holding pointers
  // into the ops ring).
  struct BatchToken {
    std::uint64_t seq_begin = 0;
    std::uint64_t seq_end = 0;
    // Durable frontier this batch's ACK establishes.
    std::uint64_t resp_tail_end = 0;
    // The staging block the batch was written from, released when it lands.
    std::uint64_t block_addr = 0;
    Bytes block_len = 0;
  };
  DenseMap<BatchToken> inflight_batches_;
  std::uint32_t next_token_ = 1;

  // Issue-path scratch, reused across calls (the agent's coroutines are
  // serialized by MainLoop, so no two PumpThread/FlushBatch frames are ever
  // live at once). Steady state touches no allocator.
  struct PumpBatch {
    rdma::QueuePair* qp = nullptr;
    std::vector<rdma::SendWqe> wqes;
  };
  std::vector<PumpBatch> pump_scratch_;
  std::vector<std::uint32_t> flush_run_;  // indices into ThreadState::ops
  telemetry::CallbackGauges gauges_;  // with a hub: the engine_* series
};

}  // namespace cowbird::spot
