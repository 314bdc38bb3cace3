#include "p4/engine.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace cowbird::p4 {

namespace {

rdma::Opcode RecycleToWrite(rdma::Opcode response_opcode) {
  // The header-rewrite table of the recycling trick (Section 5.2, Phase
  // III): read responses become the corresponding write packets.
  switch (response_opcode) {
    case rdma::Opcode::kReadResponseFirst: return rdma::Opcode::kWriteFirst;
    case rdma::Opcode::kReadResponseMiddle: return rdma::Opcode::kWriteMiddle;
    case rdma::Opcode::kReadResponseLast: return rdma::Opcode::kWriteLast;
    case rdma::Opcode::kReadResponseOnly: return rdma::Opcode::kWriteOnly;
    default: break;
  }
  COWBIRD_CHECK(false);
}

bool IsReadKindImpl(int kind_raw) {
  return kind_raw <= 3;  // kProbe, kMetaFetch, kWriteDataFetch, kPoolRead
}

// The telemetry label of an instance's QP. Memory-server QPs carry their
// server's node, so a rebalance shows up as depth shifting between servers.
std::string QpLabel(const CowbirdP4Engine::Instance& inst,
                    std::uint32_t slot) {
  static constexpr const char* kNames[] = {
      "to_compute", "to_probe", "wr_compute", "to_memory", "wr_memory"};
  if (slot < 3) return kNames[slot];
  const net::NodeId node = inst.memory[(slot - 3) / 2].read.host.node;
  return std::string(kNames[3 + (slot - 3) % 2]) + "@" +
         std::to_string(node);
}

}  // namespace

CowbirdP4Engine::SwitchQp& CowbirdP4Engine::Instance::qp(std::uint32_t slot) {
  switch (slot) {
    case 0: return to_compute;
    case 1: return to_probe;
    case 2: return wr_compute;
    default: break;
  }
  MemoryPath& path = memory[(slot - 3) / 2];
  return (slot - 3) % 2 == 0 ? path.read : path.write;
}

CowbirdP4Engine::CowbirdP4Engine(net::Switch& sw, Config config)
    : sw_(&sw),
      sim_(&sw.simulation()),
      config_(config),
      scheduler_(offload::ProbeScheduler::Config{
          config.probe_interval, config.adaptive_probe, kProbeIntervalMax,
          config.probe_policy}) {
  sw_->SetProcessor(this);
  if (auto* hub = config_.telemetry) {
    const telemetry::Labels labels = EngineLabels();
    scheduler_.BindTelemetry(hub->metrics, labels);
    const struct {
      const char* name;
      const std::uint64_t* cell;
    } series[] = {
        {"engine_ops_completed", &ops_completed_},
        {"engine_probes_sent", &probes_sent_},
        {"engine_packets_recycled", &packets_recycled_},
        {"engine_reads_paused_by_writes", &reads_paused_by_writes_},
        {"engine_gbn_recoveries", &recoveries_},
    };
    for (const auto& s : series) {
      gauges_.Register(hub->metrics, s.name, labels, [cell = s.cell] {
        return static_cast<std::int64_t>(*cell);
      });
    }
  }
}

telemetry::Labels CowbirdP4Engine::EngineLabels() const {
  return {{"engine", "p4"}, {"node", std::to_string(kSwitchAddress)}};
}

telemetry::Labels CowbirdP4Engine::InstanceLabels(
    std::uint32_t instance_id) const {
  telemetry::Labels labels = EngineLabels();
  labels.emplace_back("instance", std::to_string(instance_id));
  return labels;
}

void CowbirdP4Engine::RegisterInstanceTelemetry(Instance& inst) {
  auto* hub = config_.telemetry;
  if (hub == nullptr) return;
  const std::uint32_t id = inst.descriptor.instance_id;
  inst.probe_track = "p4/i" + std::to_string(id) + "/probe";
  for (std::uint32_t slot = 0; slot < inst.qp_count(); ++slot) {
    telemetry::Labels labels = InstanceLabels(id);
    labels.emplace_back("qp", QpLabel(inst, slot));
    const SwitchQp* qp = &inst.qp(slot);
    inst.gauges.Register(hub->metrics, "qp_pending_depth", labels, [qp] {
      return static_cast<std::int64_t>(qp->pending.size());
    });
  }
  inst.gauges.Register(
      hub->metrics, "engine_inflight_ops", InstanceLabels(id), [&inst] {
        std::int64_t total = 0;
        for (const ThreadState& ts : inst.threads) {
          total += static_cast<std::int64_t>(ts.inflight.size());
        }
        return total;
      });
  for (std::size_t t = 0; t < inst.threads.size(); ++t) {
    telemetry::Labels labels = InstanceLabels(id);
    labels.emplace_back("thread", std::to_string(t));
    inst.threads[t].hazards.BindTelemetry(hub->metrics, labels);
  }
}

void CowbirdP4Engine::AddInstance(const core::InstanceDescriptor& descriptor,
                                  const P4Connection& conn,
                                  const offload::InstanceProgress* resume) {
  // Instances can be added before or after Start (Cluster::Attach
  // registers them at application startup, Section 5.2 Phase I).
  auto inst = std::make_unique<Instance>();
  inst->descriptor = descriptor;
  inst->translation = descriptor.BuildTranslation();
  const auto bind = [](SwitchQp& qp, const HostEndpoint& ep) {
    qp.host = ep;
    qp.next_psn = ep.start_psn;
    qp.committed_psn = ep.start_psn;
  };
  bind(inst->to_compute, conn.compute);
  bind(inst->to_probe, conn.probe);
  bind(inst->wr_compute, conn.wr_compute);
  inst->memory.resize(conn.memory.size());
  for (std::size_t i = 0; i < conn.memory.size(); ++i) {
    bind(inst->memory[i].read, conn.memory[i].read);
    bind(inst->memory[i].write, conn.memory[i].write);
  }
  COWBIRD_CHECK(conn.retransmit_timeout > 0);
  inst->gbn_timeout = conn.retransmit_timeout;
  // InstanceForQpn names a packet's QP by its offset in the QPN block.
  COWBIRD_CHECK(!inst->memory.empty());
  for (std::uint32_t slot = 0; slot < inst->qp_count(); ++slot) {
    COWBIRD_CHECK(inst->qp(slot).host.switch_qpn ==
                  conn.compute.switch_qpn + slot);
  }
  // Every server the translation table can point at needs an endpoint pair
  // now; a data-path miss would be far harder to debug.
  for (const core::RangeEntry& range : inst->translation.entries()) {
    PoolPath(*inst, range.node);
  }
  inst->threads.resize(descriptor.layout.threads);
  if (resume != nullptr) {
    // Re-attach: continue from the counters the previous engine
    // published. Everything at or past meta_head is still in the client's
    // rings and will be re-discovered by the next probe.
    COWBIRD_CHECK(resume->threads.size() == inst->threads.size());
    for (std::size_t t = 0; t < inst->threads.size(); ++t) {
      ThreadState& ts = inst->threads[t];
      ts.progress = resume->threads[t];
      ts.tail_seen = ts.progress.meta_head;
      ts.fetch_cursor = ts.progress.meta_head;
      ts.next_read_seq = ts.progress.read_progress;
      ts.next_write_seq = ts.progress.write_progress;
      ts.pool_write_seq = ts.progress.write_progress;
    }
  }
  instances_.push_back(std::move(inst));
  RegisterInstanceTelemetry(*instances_.back());
}

std::optional<offload::InstanceProgress> CowbirdP4Engine::ExportProgress(
    std::uint32_t instance_id) const {
  for (const auto& inst : instances_) {
    if (inst->descriptor.instance_id != instance_id) continue;
    offload::InstanceProgress snapshot;
    snapshot.threads.reserve(inst->threads.size());
    for (const ThreadState& ts : inst->threads) {
      snapshot.threads.push_back(ts.progress);
    }
    return snapshot;
  }
  return std::nullopt;
}

void CowbirdP4Engine::Start() {
  COWBIRD_CHECK(!started_);
  started_ = true;
  sim_->ScheduleAfter(scheduler_.current_interval(), [this] { ProbeTick(); });
}

bool CowbirdP4Engine::RemoveInstance(std::uint32_t instance_id) {
  for (auto it = instances_.begin(); it != instances_.end(); ++it) {
    if ((*it)->descriptor.instance_id != instance_id) continue;
    // Destroying the instance destroys its QPs' retransmission timers and
    // its gauges, so no callback touches it afterwards; in-flight packets
    // for its QPNs fall through InstanceForQpn as stale and are dropped.
    instances_.erase(it);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Probe generator (Phase II)
// ---------------------------------------------------------------------------

void CowbirdP4Engine::ProbeTick() {
  if (probing_stopped_) return;
  if (!instances_.empty()) {
    // Time-division multiplexing across instances (Section 5.4), delegated
    // to the shared scheduler: eligibility = no probe already in flight,
    // credit = recent tail movement.
    probe_candidates_.clear();
    for (const auto& inst : instances_) {
      probe_candidates_.push_back(
          {!inst->probe_inflight, inst->activity_credit});
    }
    const std::size_t at = scheduler_.PickNext(probe_candidates_);
    Instance& pick = *instances_[at];
    if (!pick.probe_inflight) EmitProbe(pick);
  }
  sim_->ScheduleAfter(scheduler_.current_interval(), [this] { ProbeTick(); });
}

void CowbirdP4Engine::EmitProbe(Instance& inst) {
  inst.probe_inflight = true;
  ++probes_sent_;
  if (auto* hub = config_.telemetry) {
    inst.probe_span = hub->tracer.Begin(inst.probe_track, "probe");
  }
  Pending p;
  p.kind = PendingKind::kProbe;
  p.segments = rdma::SegmentCount(inst.descriptor.layout.GreenBytesTotal());
  p.raddr = inst.descriptor.layout.GreenBase();
  p.rkey = inst.descriptor.compute_rkey;
  p.length =
      static_cast<std::uint32_t>(inst.descriptor.layout.GreenBytesTotal());
  Admit(inst, inst.to_probe, p);
}

// ---------------------------------------------------------------------------
// Pipeline entry
// ---------------------------------------------------------------------------

void CowbirdP4Engine::Process(net::Switch& sw, int ingress_port,
                              net::Packet packet,
                              std::vector<net::ForwardAction>& out) {
  (void)ingress_port;
  if (packet.dst == kSwitchAddress) {
    // Other traffic to the switch endpoint is dropped.
    if (rdma::LooksLikeRdma(packet)) ConsumeRdma(std::move(packet));
    return;
  }
  const int port = sw.RouteFor(packet.dst);
  if (port >= 0) out.push_back({port, std::move(packet)});
}

CowbirdP4Engine::Instance* CowbirdP4Engine::InstanceForQpn(
    std::uint32_t switch_qpn, SwitchQp** qp) {
  // The QPN→instance mapping of Section 5.4: each instance owns one QPN
  // block, and the offset in it names the QP.
  for (auto& inst : instances_) {
    const std::uint32_t slot = switch_qpn - inst->to_compute.host.switch_qpn;
    if (slot < inst->qp_count()) {
      *qp = &inst->qp(slot);
      return inst.get();
    }
  }
  return nullptr;
}

CowbirdP4Engine::MemoryPath& CowbirdP4Engine::PoolPath(Instance& inst,
                                                       net::NodeId node) {
  for (MemoryPath& path : inst.memory) {
    if (path.read.host.node == node) return path;
  }
  COWBIRD_CHECK(false);  // the translation names a server with no path
}

void CowbirdP4Engine::ConsumeRdma(net::Packet packet) {
  const std::optional<rdma::RdmaMessageView> parsed =
      rdma::ParseRdmaPacket(packet);
  if (!parsed) {
    ++malformed_dropped_;
    return;
  }
  const rdma::RdmaMessageView& view = *parsed;
  SwitchQp* qp = nullptr;
  Instance* inst = InstanceForQpn(view.bth.dest_qp, &qp);
  if (inst == nullptr) return;  // stale packet from a removed instance
  if (rdma::IsReadResponse(view.bth.opcode)) {
    HandleReadResponse(*inst, *qp, view);
  } else if (view.bth.opcode == rdma::Opcode::kAcknowledge) {
    HandleAck(*inst, *qp, view);
  } else if (view.bth.opcode == rdma::Opcode::kCnp) {
    // The RMT pipeline has no per-flow rate state, so a CNP aimed at a
    // switch endpoint is reflected to the memory *host* whose pool reads
    // feed that flow — its NIC-side DCQCN is the reaction point. This is
    // the P4/Spot asymmetry: Spot CNPs terminate at the memory host
    // directly, P4 CNPs take this one extra reflection hop.
    ++cnps_reflected_;
    // A CNP on a server's QP pair goes to that server, one on a
    // compute-side QP to the first server.
    const HostEndpoint* reflect = &inst->memory.front().read.host;
    for (const MemoryPath& path : inst->memory) {
      if (qp == &path.read || qp == &path.write) reflect = &path.read.host;
    }
    rdma::Bth bth;
    bth.opcode = rdma::Opcode::kCnp;
    bth.dest_qp = reflect->host_qpn;
    bth.psn = 0;
    SendPacket(rdma::BuildRdmaPacket(kSwitchAddress, reflect->node,
                                     net::Priority::kControl, bth, nullptr,
                                     nullptr, {}));
  }
  // Anything else addressed to the switch endpoint is dropped.
}

void CowbirdP4Engine::HandleReadResponse(Instance& inst, SwitchQp& qp,
                                         const rdma::RdmaMessageView& view) {
  // Responses arrive in request order: find the oldest read-kind pending
  // still collecting bytes.
  Pending* target = nullptr;
  for (auto& p : qp.pending) {
    if (!p.done && IsReadKindImpl(static_cast<int>(p.kind))) {
      target = &p;
      break;
    }
  }
  if (target == nullptr) return;  // stale duplicate after recovery
  const std::uint32_t expected = rdma::PsnAdd(
      target->first_psn, target->bytes_done / rdma::kPathMtu);
  if (view.bth.psn != expected) return;  // gap; the GBN timer recovers
  // No responder sends more than was asked for; recycling the excess would
  // make an over-long write.
  if (view.payload.size() > target->length - target->bytes_done) {
    ++malformed_dropped_;
    return;
  }

  const std::uint32_t chunk_offset = target->bytes_done;
  target->bytes_done += static_cast<std::uint32_t>(view.payload.size());
  const bool complete = target->bytes_done >= target->length;
  if (complete) target->done = true;

  switch (target->kind) {
    case PendingKind::kProbe:
      OnProbeData(inst, view);
      break;
    case PendingKind::kMetaFetch:
      OnMetaData(inst, *target, view);
      break;
    case PendingKind::kWriteDataFetch:
    case PendingKind::kPoolRead:
      OnSourceChunk(inst, *target, view, chunk_offset);
      break;
    default:
      COWBIRD_CHECK(false);
  }
  PopDonePendings(qp);
  WalkAndEmit(inst, qp);  // admits deferred requests; re-arms the timer
}

void CowbirdP4Engine::HandleAck(Instance& inst, SwitchQp& qp,
                                const rdma::RdmaMessageView& view) {
  COWBIRD_CHECK(view.aeth.has_value());
  if (view.aeth->syndrome != rdma::kSyndromeAck) {
    // NAK: sequence gap at the host. Recover this QP.
    Recover(inst, qp);
    return;
  }
  const std::uint32_t acked = view.bth.psn;
  // Index-based: completion effects (EmitRedWrite) may append to this very
  // deque, which invalidates iterators but not indices/references.
  for (std::size_t i = 0; i < qp.pending.size(); ++i) {
    Pending& p = qp.pending[i];
    if (p.done || IsReadKindImpl(static_cast<int>(p.kind))) continue;
    if (!p.emitted && p.bytes_sent == 0) continue;  // never on the wire yet
    const std::uint32_t last = rdma::PsnAdd(p.first_psn, p.segments - 1);
    if (rdma::PsnDistance(acked, last) < 0) continue;
    p.done = true;
    if (!p.emitted) {
      // A rewind left this stream partly re-sent, and the host had the
      // whole message from before: it leaves the QP's unemitted count now,
      // or the QP would admit nothing once it pops.
      p.emitted = true;
      --qp.unemitted;
    }
    if (p.kind != PendingKind::kRedWrite) OnConversionAcked(inst, p);
  }
  PopDonePendings(qp);
  WalkAndEmit(inst, qp);  // admits deferred requests; re-arms the timer
}

// ---------------------------------------------------------------------------
// Completion effects
// ---------------------------------------------------------------------------

void CowbirdP4Engine::OnProbeData(Instance& inst,
                                  const rdma::RdmaMessageView& view) {
  inst.probe_inflight = false;
  if (auto* hub = config_.telemetry) {
    hub->tracer.End(inst.probe_span);
    inst.probe_span = {};
  }
  bool found_work = false;
  // Parse the packed green blocks straight out of the packet payload: this
  // is the "compare the received tail pointer" step of Figure 5.
  for (int t = 0; t < inst.descriptor.layout.threads; ++t) {
    const std::size_t at = static_cast<std::size_t>(t) *
                           core::kGreenBlockBytes;
    if (at + 8 > view.payload.size()) break;
    std::uint64_t tail = 0;
    for (int b = 0; b < 8; ++b) {
      tail |= static_cast<std::uint64_t>(view.payload[at + b]) << (8 * b);
    }
    ThreadState& ts = inst.threads[t];
    if (tail > ts.tail_seen) {
      inst.activity_credit += tail - ts.tail_seen;
      ts.tail_seen = tail;
      found_work = true;
    }
    MaybeFetchMetadata(inst, t);
  }
  // Credits decay so stale activity does not dominate the TDM pick.
  inst.activity_credit = offload::ProbeScheduler::DecayCredit(
      inst.activity_credit);
  scheduler_.OnProbeOutcome(found_work);  // Section 5.2 adaptive ramp-up
  RefetchOrphans(inst);
}

void CowbirdP4Engine::RefetchOrphans(Instance& inst) {
  // Conversion chunks discarded while another stream held the QP leave
  // their op with no live pending anywhere; re-issue the (idempotent)
  // source fetch. Runs on every probe completion.
  for (int t = 0; t < static_cast<int>(inst.threads.size()); ++t) {
    ThreadState& ts = inst.threads[t];
    for (Op& op : ts.inflight) {
      if (!op.refetch_needed || op.done) continue;
      op.refetch_needed = false;
      const SourceFetch source = SourceFetchFor(inst, t, op);
      Admit(inst, *source.qp, source.pending);
    }
  }
}

CowbirdP4Engine::SourceFetch CowbirdP4Engine::SourceFetchFor(
    Instance& inst, int thread, const Op& op) {
  Pending fetch;
  fetch.thread = thread;
  fetch.seq = op.seq;
  fetch.is_write_op = op.is_write;
  fetch.length = op.meta.length;
  fetch.segments = rdma::SegmentCount(op.meta.length);
  if (op.is_write) {
    fetch.kind = PendingKind::kWriteDataFetch;
    fetch.raddr = op.meta.req_addr;
    fetch.rkey = inst.descriptor.compute_rkey;
    return {&inst.to_compute, fetch};
  }
  const core::Translation src = core::MustTranslate(
      inst.translation, op.meta.region_id, op.meta.req_addr, op.meta.length);
  fetch.kind = PendingKind::kPoolRead;
  fetch.raddr = src.addr;
  fetch.rkey = src.rkey;
  return {&PoolPath(inst, src.node).read, fetch};
}

void CowbirdP4Engine::MaybeFetchMetadata(Instance& inst, int thread) {
  ThreadState& ts = inst.threads[thread];
  if (ts.meta_fetch_inflight || ts.fetch_cursor >= ts.tail_seen) return;
  if (ts.inflight.size() >= kMaxInflightPerThread) return;
  const auto& layout = inst.descriptor.layout;
  const std::uint64_t available = ts.tail_seen - ts.fetch_cursor;
  const std::uint64_t start_slot = ts.fetch_cursor % layout.meta_slots;
  const std::uint64_t contiguous = layout.meta_slots - start_slot;
  const std::uint64_t count =
      std::min<std::uint64_t>({available, contiguous, kMetaEntriesPerFetch});
  Pending p;
  p.kind = PendingKind::kMetaFetch;
  p.thread = thread;
  p.fetch_cursor = ts.fetch_cursor;
  p.fetch_count = static_cast<std::uint32_t>(count);
  p.length = static_cast<std::uint32_t>(count * core::kMetadataEntryBytes);
  p.segments = rdma::SegmentCount(p.length);
  p.raddr = layout.MetaSlotAddr(thread, ts.fetch_cursor);
  p.rkey = inst.descriptor.compute_rkey;
  ts.meta_fetch_inflight = true;
  ts.fetch_cursor += count;  // optimistic; rewound on read-pause
  Admit(inst, inst.to_compute, p);
}

void CowbirdP4Engine::OnMetaData(Instance& inst, Pending& pending,
                                 const rdma::RdmaMessageView& view) {
  // Copied up front: the Admit calls below can push into the ring that
  // holds `pending` (metadata fetches live on to_compute), relocating it.
  const int thread = pending.thread;
  const std::uint32_t fetch_count = pending.fetch_count;
  const std::uint64_t fetch_cursor = pending.fetch_cursor;
  ThreadState& ts = inst.threads[thread];
  ts.meta_fetch_inflight = false;

  std::uint32_t consumed = 0;
  for (std::uint32_t i = 0; i < fetch_count; ++i) {
    const std::size_t at = static_cast<std::size_t>(i) *
                           core::kMetadataEntryBytes;
    if (at + core::kMetadataEntryBytes > view.payload.size()) break;
    const core::RequestMetadata meta = core::RequestMetadata::ParseBytes(
        view.payload.subspan(at, core::kMetadataEntryBytes));
    if (meta.rw_type == core::RwType::kInvalid) break;
    if (ts.inflight.size() >= kMaxInflightPerThread) break;
    if (meta.rw_type == core::RwType::kRead &&
        !config_.chaos_unsafe_skip_hazards &&
        ts.hazards.ReadBlocked(offload::HazardRange{
            meta.region_id, meta.req_addr, meta.length})) {
      // Section 5.3: RMT pipelines cannot range-match in-flight writes, so
      // the fence policy pauses *all* newly probed reads until the writes
      // drain. The entry stays in the ring and is re-fetched.
      ++reads_paused_by_writes_;
      break;
    }

    Op op;
    op.meta = meta;
    op.is_write = meta.rw_type == core::RwType::kWrite;
    op.seq = op.is_write ? ++ts.next_write_seq : ++ts.next_read_seq;
    if (op.is_write) {
      // The write's pool destination enters the hazard window until the
      // pool write is acknowledged.
      op.hazard_ticket = ts.hazards.AdmitWrite(offload::HazardRange{
          meta.region_id, meta.resp_addr, meta.length});
    }
    ts.inflight.push_back(op);
    ++consumed;
    // Parse and execute coincide in the RMT pipeline: an admitted op's
    // transfer is issued in the same pass (no host-side queue between).
    RecordOpPhase(inst, thread, op.is_write, op.seq,
                  telemetry::OpPhase::kParsed);
    RecordOpPhase(inst, thread, op.is_write, op.seq,
                  telemetry::OpPhase::kExecute);

    // Phase III, Step 1: a write fetches its payload from the compute
    // node's request data ring (1b); a read range-translates (region,
    // vaddr) to the owning server and reads its pool MR (1a).
    const SourceFetch source = SourceFetchFor(inst, thread, op);
    Admit(inst, *source.qp, source.pending);
  }

  // Entries not consumed (pause / PHV budget) rewind the fetch cursor.
  ts.fetch_cursor = fetch_cursor + consumed;
  MaybeFetchMetadata(inst, thread);
}

namespace {
CowbirdP4Engine::Op* FindOpImpl(FixedDeque<CowbirdP4Engine::Op>& ops,
                                std::uint64_t seq, bool is_write) {
  for (auto& op : ops) {
    if (op.is_write == is_write && op.seq == seq) return &op;
  }
  return nullptr;
}
}  // namespace

void CowbirdP4Engine::OnSourceChunk(Instance& inst, Pending& pending,
                                    const rdma::RdmaMessageView& view,
                                    std::uint32_t chunk_offset) {
  ThreadState& ts = inst.threads[pending.thread];
  Op* op = FindOpImpl(ts.inflight, pending.seq, pending.is_write_op);
  // A completed op may still wait in `inflight` behind an earlier one; its
  // conversion is ACKed (and maybe popped), so a late chunk must not start
  // another.
  if (op == nullptr || op->done) return;

  // The conversion this chunk feeds: a write's data goes to the owning
  // server's write QP (the per-op mapping is stable, so every chunk of one
  // op lands on the same QP), a read's data to the compute node's response
  // ring.
  Pending w;
  w.thread = pending.thread;
  w.seq = pending.seq;
  w.is_write_op = op->is_write;
  w.length = op->meta.length;
  w.segments = rdma::SegmentCount(op->meta.length);
  SwitchQp* out = &inst.wr_compute;
  if (op->is_write) {
    const core::Translation dst =
        core::MustTranslate(inst.translation, op->meta.region_id,
                            op->meta.resp_addr, op->meta.length);
    w.kind = PendingKind::kPoolWrite;
    w.raddr = dst.addr;
    w.rkey = dst.rkey;
    out = &PoolPath(inst, dst.node).write;
  } else {
    w.kind = PendingKind::kPayloadWrite;
    w.raddr = op->meta.resp_addr;
    w.rkey = inst.descriptor.compute_rkey;
  }
  SwitchQp& qp = *out;
  // Find or create the pending whose PSN span carries this data.
  Pending* dest = nullptr;
  for (auto& p : qp.pending) {
    if (p.kind == w.kind && p.thread == w.thread && p.seq == w.seq) {
      dest = &p;
      break;
    }
  }
  if (dest == nullptr) {
    // A stream takes its PSN span when its first chunk arrives, so a chunk
    // that finds another stream mid-flight is discarded. The server applies
    // writes in PSN order, so a thread's writes also take spans in sequence
    // order: a write that overtook an orphaned earlier one would land first
    // and be overwritten by the older value.
    if (qp.unemitted > 0 ||
        (op->is_write && op->seq != ts.pool_write_seq + 1)) {
      op->refetch_needed = true;  // orphan: re-fetched on next probe
      return;
    }
    if (op->is_write) ts.pool_write_seq = op->seq;
    dest = &AppendPending(qp, w);
  }
  if (chunk_offset != dest->bytes_sent) return;  // replayed chunk, skip
  if (!IsFrontier(qp, *dest)) return;            // out of order: drop

  // Recycle: the response's header is rewritten into a write, payload
  // untouched — into the pool (Figure 7, 2b) or the response ring (Figure
  // 6, 2a).
  const std::uint32_t index = dest->bytes_sent / rdma::kPathMtu;
  const rdma::Opcode opcode = RecycleToWrite(view.bth.opcode);
  const bool last = rdma::IsLastOrOnly(opcode);
  rdma::Reth reth{dest->raddr, dest->rkey, dest->length};
  ++packets_recycled_;
  SendPacket(BuildRequest(qp, opcode, rdma::PsnAdd(dest->first_psn, index),
                          last, rdma::HasReth(opcode) ? &reth : nullptr,
                          view.payload, net::Priority::kRdma));
  dest->bytes_sent += static_cast<std::uint32_t>(view.payload.size());
  if (dest->bytes_sent >= dest->length) {
    dest->emitted = true;
    --qp.unemitted;
  }
  WalkAndEmit(inst, qp);
}

void CowbirdP4Engine::OnConversionAcked(Instance& inst,
                                        const Pending& pending) {
  const int thread = pending.thread;
  ThreadState& ts = inst.threads[thread];
  Op* op = FindOpImpl(ts.inflight, pending.seq, pending.is_write_op);
  if (op == nullptr || op->done) return;  // completed via an earlier ACK
  op->done = true;
  const bool is_write = op->is_write;
  if (is_write) ts.hazards.RetireWrite(op->hazard_ticket);
  CompleteOpsInOrder(inst, thread);
  // Draining writes may release paused reads.
  if (is_write) MaybeFetchMetadata(inst, thread);
}

void CowbirdP4Engine::CompleteOpsInOrder(Instance& inst, int thread) {
  ThreadState& ts = inst.threads[thread];
  bool any = false;
  while (!ts.inflight.empty() && ts.inflight.front().done) {
    const Op& op = ts.inflight.front();
    if (op.is_write) {
      ts.progress.write_progress = op.seq;
      ts.progress.data_head += op.meta.length;
    } else {
      ts.progress.read_progress = op.seq;
      ts.progress.resp_tail += op.meta.length;
    }
    ++ts.progress.meta_head;
    ++ops_completed_;
    RecordOpPhase(inst, thread, op.is_write, op.seq,
                  telemetry::OpPhase::kDone);
    ts.inflight.pop_front();
    any = true;
  }
  if (any) EmitRedWrite(inst, thread);
}

void CowbirdP4Engine::EmitRedWrite(Instance& inst, int thread) {
  // Phase IV: one write covering every pointer and counter, recycled from
  // the ACK that reported the data transfer.
  Pending p;
  p.kind = PendingKind::kRedWrite;
  p.thread = thread;
  p.length = static_cast<std::uint32_t>(core::kRedBlockBytes);
  p.segments = 1;
  p.raddr = inst.descriptor.layout.RedAddr(thread);
  p.rkey = inst.descriptor.compute_rkey;
  Admit(inst, inst.wr_compute, p);
}

// ---------------------------------------------------------------------------
// Ordered emission / Go-Back-N
// ---------------------------------------------------------------------------

CowbirdP4Engine::Pending& CowbirdP4Engine::AppendPending(SwitchQp& qp,
                                                         Pending pending) {
  pending.first_psn = qp.next_psn;
  qp.next_psn = rdma::PsnAdd(qp.next_psn, pending.segments);
  pending.emitted = false;
  ++qp.unemitted;
  qp.pending.push_back(pending);
  return qp.pending.back();
}

void CowbirdP4Engine::Admit(Instance& inst, SwitchQp& qp, Pending pending) {
  // PSN order must equal emission order: while anything already admitted is
  // still (partially) off the wire, switch-generated requests wait.
  if (qp.unemitted > 0) {
    qp.deferred.push_back(std::move(pending));
    return;
  }
  AppendPending(qp, pending);
  WalkAndEmit(inst, qp);
}

bool CowbirdP4Engine::IsFrontier(const SwitchQp& qp,
                                 const Pending& pending) const {
  for (const auto& p : qp.pending) {
    if (&p == &pending) return true;
    if (!p.emitted) return false;
  }
  return false;
}

void CowbirdP4Engine::WalkAndEmit(Instance& inst, SwitchQp& qp) {
  bool progress = true;
  while (progress) {
    progress = false;
    bool blocked = false;
    for (auto& p : qp.pending) {
      if (p.emitted) continue;
      if (p.kind == PendingKind::kPayloadWrite ||
          p.kind == PendingKind::kPoolWrite) {
        if (p.bytes_sent >= p.length) {
          p.emitted = true;
          --qp.unemitted;
          progress = true;
          continue;
        }
        if (p.pool_reissue_needed) {
          p.pool_reissue_needed = false;
          // Rebuild the source read on the other QP (idempotent re-fetch);
          // its responses re-convert onto this pending's reserved PSN span.
          // Skip when the original source read is still pending — its
          // responses will arrive and convert. A pending that is not done
          // always has a live op (ops retire only after their write ACKs).
          const Op* op = FindOpImpl(inst.threads[p.thread].inflight, p.seq,
                                    p.is_write_op);
          COWBIRD_CHECK(op != nullptr);
          const SourceFetch source = SourceFetchFor(inst, p.thread, *op);
          const auto alive = [&source](const FixedDeque<Pending>& queue) {
            for (const Pending& sp : queue) {
              if (sp.kind == source.pending.kind &&
                  sp.thread == source.pending.thread &&
                  sp.seq == source.pending.seq && !sp.done) {
                return true;
              }
            }
            return false;
          };
          if (!alive(source.qp->pending) && !alive(source.qp->deferred)) {
            Admit(inst, *source.qp, source.pending);
          }
        }
        // Later entries wait for this write to finish streaming (strict
        // PSN order on the wire).
        blocked = true;
        break;
      }
      EmitRequestPacket(inst, qp, p);
      p.emitted = true;
      --qp.unemitted;
      progress = true;
    }
    // Everything on the wire: admit one deferred request and loop.
    if (!blocked && qp.unemitted == 0 && !qp.deferred.empty()) {
      Pending d = std::move(qp.deferred.front());
      qp.deferred.pop_front();
      AppendPending(qp, d);
      progress = true;
    }
  }
  ArmTimer(inst, qp);
}

void CowbirdP4Engine::EmitRequestPacket(Instance& inst, SwitchQp& qp,
                                        Pending& pending) {
  switch (pending.kind) {
    case PendingKind::kProbe:
    case PendingKind::kMetaFetch:
    case PendingKind::kWriteDataFetch:
    case PendingKind::kPoolRead: {
      rdma::Reth reth{pending.raddr, pending.rkey, pending.length};
      const net::Priority priority = pending.kind == PendingKind::kProbe
                                         ? net::Priority::kProbe
                                         : net::Priority::kRdma;
      SendPacket(BuildRequest(qp, rdma::Opcode::kReadRequest,
                              pending.first_psn, false, &reth, {},
                              priority));
      break;
    }
    case PendingKind::kRedWrite: {
      // Payload composed from the progress registers *at emission time* —
      // cumulative values make replays safe.
      const ThreadState& ts = inst.threads[pending.thread];
      std::uint8_t block[core::kRedBlockBytes];
      offload::ProgressPublisher::Pack(ts.progress, block);
      rdma::Reth reth{pending.raddr, pending.rkey, pending.length};
      SendPacket(BuildRequest(qp, rdma::Opcode::kWriteOnly,
                              pending.first_psn, /*ack_request=*/true, &reth,
                              std::span<const std::uint8_t>(
                                  block, core::kRedBlockBytes),
                              net::Priority::kRdma));
      break;
    }
    default:
      COWBIRD_CHECK(false);  // conversion-driven kinds never come here
  }
}

void CowbirdP4Engine::PopDonePendings(SwitchQp& qp) {
  while (!qp.pending.empty() && qp.pending.front().done) {
    const Pending& p = qp.pending.front();
    qp.committed_psn = rdma::PsnAdd(p.first_psn, p.segments);
    qp.pending.pop_front();
  }
  if (qp.pending.empty()) qp.timer.Cancel();
}

void CowbirdP4Engine::ArmTimer(Instance& inst, SwitchQp& qp) {
  if (qp.pending.empty()) {
    qp.timer.Cancel();
    return;
  }
  qp.timer.ArmAfter(*sim_, inst.gbn_timeout,
                    [this, &inst, &qp] { Recover(inst, qp); });
}

void CowbirdP4Engine::Recover(Instance& inst, SwitchQp& qp) {

  if (qp.pending.empty()) return;
  ++recoveries_;
  if (auto* hub = config_.telemetry) {
    hub->tracer.Instant("p4/gbn", "recover");
  }
  // Go-Back-N (Section 5.3): rewind the send PSN to the committed boundary
  // and re-walk the pending FIFO. Duplicate packets are absorbed by the
  // host responder (reads re-execute, writes re-ACK).
  std::uint32_t psn = qp.committed_psn;
  qp.unemitted = 0;
  for (auto& p : qp.pending) {
    p.first_psn = psn;
    psn = rdma::PsnAdd(psn, p.segments);
    if (p.done) {
      // A cumulative ACK can complete a later entry while an earlier one
      // still waits for its (lost) response, leaving done entries stuck
      // mid-FIFO. They keep their PSN span — the layout on the wire must
      // not shift — but are never re-emitted: the responder ACKed them,
      // and their op may already be retired from the inflight table.
      p.emitted = true;
      continue;
    }
    p.emitted = false;
    ++qp.unemitted;
    if (IsReadKindImpl(static_cast<int>(p.kind))) {
      p.bytes_done = 0;
    } else if (p.kind == PendingKind::kPayloadWrite ||
               p.kind == PendingKind::kPoolWrite) {
      p.bytes_sent = 0;
      p.pool_reissue_needed = true;
    }
  }
  qp.next_psn = psn;
  WalkAndEmit(inst, qp);
}

// ---------------------------------------------------------------------------
// Packet construction
// ---------------------------------------------------------------------------

net::Packet CowbirdP4Engine::BuildRequest(
    const SwitchQp& qp, rdma::Opcode opcode, std::uint32_t psn,
    bool ack_request, const rdma::Reth* reth,
    std::span<const std::uint8_t> payload, net::Priority priority) {
  rdma::Bth bth;
  bth.opcode = opcode;
  bth.ack_request = ack_request;
  bth.dest_qp = qp.host.host_qpn;
  bth.psn = psn & rdma::kPsnMask;
  net::Packet packet =
      rdma::BuildRdmaPacket(kSwitchAddress, qp.host.node, priority,
                            bth, reth, nullptr, payload);
  if (config_.ecn_capable && priority != net::Priority::kControl) {
    packet.SetEcnBits(net::kEcnEct0);
  }
  return packet;
}

void CowbirdP4Engine::SendPacket(net::Packet packet) {
  const int port = sw_->RouteFor(packet.dst);
  COWBIRD_CHECK(port >= 0);
  // Direct egress enqueue: recycling happens in the same pipeline pass, no
  // recirculation (requirement S2).
  sw_->EnqueueEgress(port, std::move(packet));
}

// ---------------------------------------------------------------------------
// Phase I plumbing
// ---------------------------------------------------------------------------

namespace {
HostEndpoint SetupHostEndpoint(rdma::Device& dev, std::uint32_t switch_qpn,
                               std::uint32_t host_psn,
                               std::uint32_t switch_psn) {
  auto* cq = dev.CreateCq();
  auto* qp = dev.CreateQp(cq, cq);
  qp->Connect(kSwitchAddress, switch_qpn, host_psn, switch_psn);
  HostEndpoint ep;
  ep.node = dev.node_id();
  ep.host_qpn = qp->qpn();
  ep.switch_qpn = switch_qpn;
  ep.start_psn = switch_psn;
  return ep;
}
}  // namespace

P4Connection ConnectP4Engine(rdma::Device& compute,
                             std::span<rdma::Device* const> memories,
                             std::uint32_t qpn_base) {
  COWBIRD_CHECK(!memories.empty());
  P4Connection conn;
  conn.retransmit_timeout = compute.config().retransmit_timeout;
  conn.compute = SetupHostEndpoint(compute, qpn_base, 1000, 5000);
  conn.probe = SetupHostEndpoint(compute, qpn_base + 1, 1500, 5500);
  conn.wr_compute = SetupHostEndpoint(compute, qpn_base + 2, 2500, 6500);
  for (std::uint32_t i = 0; i < memories.size(); ++i) {
    rdma::Device& dev = *memories[i];
    const std::uint32_t psn = 100 * i;
    conn.memory.push_back(
        {SetupHostEndpoint(dev, qpn_base + 3 + 2 * i, 2000 + psn, 6000 + psn),
         SetupHostEndpoint(dev, qpn_base + 4 + 2 * i, 3000 + psn,
                           7000 + psn)});
  }
  return conn;
}

}  // namespace cowbird::p4
