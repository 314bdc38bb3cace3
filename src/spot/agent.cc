#include "spot/agent.h"

#include <algorithm>
#include <array>

#include "common/check.h"

namespace cowbird::spot {

namespace {
constexpr std::uint8_t kKindShift = 60;
constexpr std::uint64_t kInstanceShift = 48;
constexpr std::uint64_t kThreadShift = 32;
}  // namespace

std::uint64_t SpotAgent::MakeWrId(CompletionKind kind, std::uint32_t instance,
                                  std::uint16_t thread, std::uint32_t token) {
  return (static_cast<std::uint64_t>(kind) << kKindShift) |
         (static_cast<std::uint64_t>(instance & 0xFFF) << kInstanceShift) |
         (static_cast<std::uint64_t>(thread) << kThreadShift) | token;
}

SpotAgent::SpotAgent(rdma::Device& device, sim::Machine& machine, int index,
                     Config config)
    : device_(&device),
      index_(index),
      thread_(machine, "spot-agent"),
      config_(config),
      completions_(machine.simulation()),
      staging_(kStagingStride * static_cast<std::uint64_t>(index + 1),
               config.staging_capacity),
      scheduler_(offload::ProbeScheduler::Config{
          config.probe_interval, config.adaptive_probe, kProbeIntervalMax,
          offload::ProbeSelection::kRoundRobin}) {
  COWBIRD_CHECK(
      SparseMemory::Contains(staging_.base(), staging_.capacity()));
  if (auto* hub = config_.telemetry) {
    const telemetry::Labels labels = EngineLabels();
    scheduler_.BindTelemetry(hub->metrics, labels);
    const struct {
      const char* name;
      std::uint64_t (*read)(const SpotAgent&);
    } series[] = {
        {"engine_ops_completed",
         [](const SpotAgent& a) { return a.ops_completed_; }},
        {"engine_probes_sent",
         [](const SpotAgent& a) { return a.probes_sent_; }},
        {"engine_batches_flushed",
         [](const SpotAgent& a) { return a.batches_flushed_; }},
        {"engine_reads_stalled_by_writes",
         [](const SpotAgent& a) { return a.reads_stalled_by_writes_; }},
        {"engine_staging_bytes_in_use",
         [](const SpotAgent& a) { return a.staging_.in_use(); }},
        {"engine_staging_high_water_bytes",
         [](const SpotAgent& a) { return a.staging_.high_water(); }},
        {"engine_staging_waits",
         [](const SpotAgent& a) { return a.staging_waits_; }},
    };
    for (const auto& s : series) {
      gauges_.Register(hub->metrics, s.name, labels, [this, read = s.read] {
        return static_cast<std::int64_t>(read(*this));
      });
    }
  }
}

telemetry::Labels SpotAgent::EngineLabels() const {
  return {{"agent", std::to_string(index_)},
          {"engine", "spot"},
          {"node", std::to_string(device_->node_id())}};
}

telemetry::Labels SpotAgent::InstanceLabels(std::uint32_t instance_id) const {
  telemetry::Labels labels = EngineLabels();
  labels.emplace_back("instance", std::to_string(instance_id));
  return labels;
}

void SpotAgent::RegisterInstanceTelemetry(Instance& inst) {
  auto* hub = config_.telemetry;
  if (hub == nullptr) return;
  const std::uint32_t id = inst.descriptor.instance_id;
  inst.probe_track = "spot/i" + std::to_string(id) + "/probe";
  inst.gauges.Register(
      hub->metrics, "engine_inflight_ops", InstanceLabels(id), [&inst] {
        std::int64_t total = 0;
        for (const ThreadState& ts : inst.threads) {
          total += static_cast<std::int64_t>(ts.ops.size());
        }
        return total;
      });
  for (std::size_t t = 0; t < inst.threads.size(); ++t) {
    telemetry::Labels labels = InstanceLabels(id);
    labels.emplace_back("thread", std::to_string(t));
    inst.threads[t].hazards.BindTelemetry(hub->metrics, labels);
  }
}

void SpotAgent::AddInstance(const core::InstanceDescriptor& descriptor,
                            const SpotConnection& conn,
                            const offload::InstanceProgress* resume) {
  auto inst = std::make_unique<Instance>();
  inst->descriptor = descriptor;
  inst->translation = descriptor.BuildTranslation();
  inst->to_compute = conn.compute.qp;
  inst->to_memory = conn.memory;
  // Every server the translation table can point at must be reachable now;
  // discovering a missing QP on the data path would be far harder to debug.
  for (const core::RangeEntry& range : inst->translation.entries()) {
    COWBIRD_CHECK(MemoryQp(*inst, range.node) != nullptr);
  }
  inst->index = static_cast<std::uint32_t>(instances_.size());
  inst->threads.resize(descriptor.layout.threads);
  // The instance's own blocks, held for good.
  const auto probe_staging =
      staging_.Alloc(descriptor.layout.GreenBytesTotal());
  const auto meta_staging = staging_.Alloc(
      static_cast<Bytes>(descriptor.layout.threads) * kMetaFetchLimit *
      core::kMetadataEntryBytes);
  COWBIRD_CHECK(probe_staging.has_value() && meta_staging.has_value());
  inst->probe_staging = *probe_staging;
  inst->meta_staging = *meta_staging;
  bool resumed_with_pending = false;
  if (resume != nullptr) {
    // Re-attach: continue from the counters the previous engine
    // exported. Entries at or past meta_head are re-discovered by the
    // next probe; sequence counters continue where the old engine stopped
    // so red-block progress stays monotonic for the client. Ops the old
    // engine had parsed but not completed ride along in resume->pending
    // (their metadata slots were freed by the client, so the rings cannot
    // resupply them) and are re-executed here.
    COWBIRD_CHECK(resume->threads.size() == inst->threads.size());
    COWBIRD_CHECK(resume->pending.empty() ||
                  resume->pending.size() == inst->threads.size());
    for (std::size_t t = 0; t < inst->threads.size(); ++t) {
      ThreadState& ts = inst->threads[t];
      ts.progress = resume->threads[t];
      ts.tail_seen = ts.progress.meta_head;
      ts.fetch_cursor = ts.progress.meta_head;
      ts.next_read_seq = ts.progress.read_progress;
      ts.next_write_seq = ts.progress.write_progress;
      ts.deliver_cursor = ts.progress.read_progress;
      ts.read_durable_seq = ts.progress.read_progress;
      ts.resp_tail_durable = ts.progress.resp_tail;
      if (t >= resume->pending.size()) continue;
      for (const offload::PendingOp& p : resume->pending[t]) {
        Op op;
        op.meta = p.meta;
        op.seq = p.seq;
        if (p.meta.rw_type == core::RwType::kWrite) {
          ts.next_write_seq = std::max(ts.next_write_seq, p.seq);
          if (p.completed) {
            // ACKed-durable in the pool before the crash: advance over it,
            // never re-execute (no hazard either — the data is landed).
            op.state = OpState::kDone;
          } else {
            if (!p.payload.empty()) {
              op.carried_payload =
                  std::make_shared<std::vector<std::uint8_t>>(p.payload);
            }
            op.hazard_ticket = ts.hazards.AdmitWrite(offload::HazardRange{
                p.meta.region_id, p.meta.resp_addr, p.meta.length});
          }
        } else {
          ts.next_read_seq = std::max(ts.next_read_seq, p.seq);
          op.hazard_ticket = ts.hazards.ReadFrontier();
        }
        ts.ops.push_back(op);
        resumed_with_pending = true;
      }
      AdvanceWriteProgressInOrder(ts);
    }
  }
  instances_.push_back(std::move(inst));
  RegisterInstanceTelemetry(*instances_.back());
  // Kick the main loop once per thread that resumed with pending ops, or
  // whose counters the client has not seen: publish the merged counters and
  // pump the seeded ops (same synthetic-completion channel the batch timer
  // uses). Attach happens while the agent runs, so the sends are drained on
  // the next main-loop wake-up.
  const auto index = static_cast<std::uint32_t>(instances_.size() - 1);
  const int threads = instances_.back()->descriptor.layout.threads;
  for (int t = 0; t < threads; ++t) {
    const bool unpublished =
        resume != nullptr &&
        static_cast<std::size_t>(t) < resume->unpublished.size() &&
        resume->unpublished[static_cast<std::size_t>(t)];
    if (!resumed_with_pending && !unpublished) continue;
    completions_.Send(rdma::Cqe{
        MakeWrId(CompletionKind::kResumeFlush, index,
                 static_cast<std::uint16_t>(t), 0),
        rdma::CqeOpcode::kWrite, rdma::CqeStatus::kSuccess, 0});
  }

  auto pump = [this](rdma::CompletionQueue* cq) {
    cq->SetCompletionCallback([this, cq] {
      while (auto cqe = cq->Pop()) completions_.Send(*cqe);
    });
  };
  pump(conn.compute.cq);
  for (const SpotConnection::Path& path : conn.memory) pump(path.cq);
}

bool SpotAgent::RemoveInstance(std::uint32_t instance_id) {
  for (auto& inst : instances_) {
    if (inst->descriptor.instance_id != instance_id || !inst->active) {
      continue;
    }
    inst->gauges.Clear();
    inst->active = false;
    for (ThreadState& ts : inst->threads) ts.batch_timer.Cancel();
    return true;
  }
  return false;
}

const SpotAgent::Instance* SpotAgent::FindInstance(
    std::uint32_t instance_id) const {
  for (const auto& inst : instances_) {
    if (inst->descriptor.instance_id == instance_id && inst->active) {
      return inst.get();
    }
  }
  return nullptr;
}

std::optional<offload::InstanceProgress> SpotAgent::ExportProgress(
    std::uint32_t instance_id) const {
  const Instance* inst = FindInstance(instance_id);
  if (inst == nullptr) return std::nullopt;
  offload::InstanceProgress snapshot;
  snapshot.threads.reserve(inst->threads.size());
  snapshot.pending.resize(inst->threads.size());
  for (std::size_t t = 0; t < inst->threads.size(); ++t) {
    const ThreadState& ts = inst->threads[t];
    // Export the *durable* read frontier, not the optimistic publication:
    // an in-flight batch dies with the engine's QPs on a crash, and claiming
    // its reads would lose their payloads. (If the optimistic red write did
    // land, the next attach reconciles the snapshot with the client's
    // published counters — see offload::ReconcileWithPublished.)
    offload::ThreadProgress exported = ts.progress;
    exported.read_progress = ts.read_durable_seq;
    exported.resp_tail = ts.resp_tail_durable;
    snapshot.threads.push_back(exported);

    auto& pending = snapshot.pending[t];
    for (const Op& op : ts.ops) {
      offload::PendingOp p;
      p.meta = op.meta;
      p.seq = op.seq;
      if (op.meta.rw_type == core::RwType::kWrite) {
        if (op.seq <= ts.progress.write_progress) continue;  // counted
        if (op.state == OpState::kDone) {
          p.completed = true;  // ACKed in the pool; only advance counters
        } else if (op.state == OpState::kWriting) {
          // Payload already fetched (the client's data-ring bytes for it
          // are consumed), pool write not yet ACKed: carry the bytes.
          p.payload.resize(op.meta.length);
          device_->memory().Read(op.staging_addr, p.payload);
        } else if (op.carried_payload != nullptr) {
          // A carried write still queued (waiting for staging): its
          // data-ring bytes were consumed before the last crash.
          p.payload = *op.carried_payload;
        }
        // Other kQueued / kFetching writes replay through the data ring:
        // their data_head bytes were not consumed yet.
      } else {
        if (op.seq <= ts.read_durable_seq) continue;  // durably delivered
        // Reads replay idempotently; the client's response-ring reservation
        // is intact for every read past the exported read_progress.
      }
      pending.push_back(std::move(p));
    }
  }
  return snapshot;
}

bool SpotAgent::InstanceDrained(std::uint32_t instance_id) const {
  const Instance* inst = FindInstance(instance_id);
  if (inst == nullptr) return false;
  for (const ThreadState& ts : inst->threads) {
    if (!ts.ops.empty() || ts.fetch_inflight) return false;
  }
  return !inst->probe_inflight;
}

void SpotAgent::Start() {
  COWBIRD_CHECK(!started_);
  started_ = true;
  auto& sim = thread_.simulation();
  sim.Spawn(MainLoop());
  sim.Spawn([](SpotAgent& agent) -> sim::Task<void> {
    while (!agent.probing_stopped_) {
      co_await agent.ProbeAll();
      // Section 5.2 ramp-up, in the shared scheduler: back off while the
      // last completed probe found nothing, snap back on activity.
      agent.scheduler_.OnProbeOutcome(agent.last_probe_found_work_);
      co_await agent.thread_.Idle(agent.scheduler_.current_interval());
    }
  }(*this));
}

bool SpotAgent::StageOp(Instance& inst, int thread, Op& op) {
  const std::optional<std::uint64_t> addr = staging_.Alloc(op.meta.length);
  if (!addr.has_value()) {
    ++staging_waits_;
    const std::pair<std::uint32_t, int> waiter{inst.index, thread};
    if (std::find(staging_waiters_.begin(), staging_waiters_.end(), waiter) ==
        staging_waiters_.end()) {
      staging_waiters_.push_back(waiter);
    }
    return false;
  }
  op.staging_addr = *addr;
  return true;
}

void SpotAgent::ReleaseStaging(std::uint64_t addr, Bytes len) {
  staging_.Release(addr, len);
  staging_released_ = true;
}

sim::Task<void> SpotAgent::PumpStagingWaiters() {
  // A pumped thread that still finds the arena full queues itself again,
  // so walk the list as it stood.
  const std::vector<std::pair<std::uint32_t, int>> waiters =
      std::exchange(staging_waiters_, {});
  for (const auto& [index, thread] : waiters) {
    Instance& inst = *instances_[index];
    if (inst.active) co_await PumpThread(inst, thread);
  }
}

sim::Task<void> SpotAgent::MainLoop() {
  for (;;) {
    rdma::Cqe cqe = co_await completions_.Receive();
    // One CQ lock acquisition per wake-up; each drained CQE then pays its
    // marginal cost (wide ibv_poll_cq, as an event-driven agent would use).
    co_await thread_.Work(rdma::cost::kPollLock,
                          sim::CpuCategory::kCommunication);
    co_await HandleCompletion(cqe);
    while (auto more = completions_.TryReceive()) {
      co_await HandleCompletion(*more);
    }
  }
}

sim::Task<void> SpotAgent::ProbeAll() {
  // Indexed iteration: AddInstance may run while this coroutine is
  // suspended at a post (a re-attach), reallocating the vector under a
  // range-for.
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    Instance& inst = *instances_[i];
    if (!inst.active || inst.probe_inflight) continue;
    inst.probe_inflight = true;
    ++probes_sent_;
    if (auto* hub = config_.telemetry) {
      inst.probe_span = hub->tracer.Begin(inst.probe_track, "probe");
    }
    const auto index = static_cast<std::uint32_t>(i);
    const rdma::SendWqe probe{
        rdma::WqeOp::kRead, MakeWrId(CompletionKind::kProbe, index, 0, 0),
        inst.probe_staging, inst.descriptor.layout.GreenBase(),
        inst.descriptor.compute_rkey,
        static_cast<std::uint32_t>(inst.descriptor.layout.GreenBytesTotal()),
        true};
    co_await rdma::EnginePostBatchVerb(
        thread_, *inst.to_compute, std::span<const rdma::SendWqe>(&probe, 1));
  }
}

sim::Task<void> SpotAgent::HandleCompletion(rdma::Cqe cqe) {
  COWBIRD_CHECK(cqe.status == rdma::CqeStatus::kSuccess);
  const auto kind = static_cast<CompletionKind>(cqe.wr_id >> kKindShift);
  if (kind != CompletionKind::kBatchTimer &&
      kind != CompletionKind::kResumeFlush) {
    co_await thread_.Work(rdma::cost::kPollCqeEach,
                          sim::CpuCategory::kCommunication);
  }
  const auto instance_index =
      static_cast<std::uint32_t>((cqe.wr_id >> kInstanceShift) & 0xFFF);
  const auto thread_index =
      static_cast<int>((cqe.wr_id >> kThreadShift) & 0xFFFF);
  const auto token = static_cast<std::uint32_t>(cqe.wr_id);
  COWBIRD_CHECK(instance_index < instances_.size());
  Instance& inst = *instances_[instance_index];
  // Stale completion for a removed instance: drop it.
  if (!inst.active) co_return;

  switch (kind) {
    case CompletionKind::kProbe: {
      inst.probe_inflight = false;
      if (auto* hub = config_.telemetry) {
        hub->tracer.End(inst.probe_span);
        inst.probe_span = {};
      }
      last_probe_found_work_ = false;
      auto& mem = device_->memory();
      for (int t = 0; t < inst.descriptor.layout.threads; ++t) {
        const auto tail = mem.ReadValue<std::uint64_t>(
            inst.probe_staging + static_cast<std::uint64_t>(t) *
                                     core::kGreenBlockBytes);
        ThreadState& ts = inst.threads[t];
        if (tail > ts.tail_seen) {
          ts.tail_seen = tail;
          last_probe_found_work_ = true;
          co_await StartMetaFetch(inst, t);
        }
      }
      break;
    }
    case CompletionKind::kMetaFetch:
      co_await ParseFetchedMetadata(inst, thread_index);
      break;
    case CompletionKind::kPoolRead: {
      ThreadState& ts = inst.threads[thread_index];
      for (Op& op : ts.ops) {
        if (op.meta.rw_type == core::RwType::kRead && op.seq == token) {
          COWBIRD_CHECK(op.state == OpState::kFetching);
          op.state = OpState::kStaged;
          break;
        }
      }
      co_await FlushBatch(inst, thread_index);
      break;
    }
    case CompletionKind::kComputeFetch: {
      ThreadState& ts = inst.threads[thread_index];
      for (Op& op : ts.ops) {
        if (op.meta.rw_type == core::RwType::kWrite && op.seq == token) {
          COWBIRD_CHECK(op.state == OpState::kFetching);
          op.state = OpState::kWriting;
          ts.progress.data_head += op.meta.length;
          const core::Translation dst = core::MustTranslate(
              inst.translation, op.meta.region_id, op.meta.resp_addr,
              op.meta.length);
          rdma::QueuePair* pool_qp = MemoryQp(inst, dst.node);
          COWBIRD_CHECK(pool_qp != nullptr);
          const rdma::SendWqe pw{
              rdma::WqeOp::kWrite,
              MakeWrId(CompletionKind::kPoolWrite, instance_index,
                       static_cast<std::uint16_t>(thread_index), token),
              op.staging_addr, dst.addr, dst.rkey, op.meta.length, true};
          co_await rdma::EnginePostBatchVerb(
              thread_, *pool_qp, std::span<const rdma::SendWqe>(&pw, 1));
          break;
        }
      }
      break;
    }
    case CompletionKind::kPoolWrite: {
      ThreadState& ts = inst.threads[thread_index];
      for (Op& op : ts.ops) {
        if (op.meta.rw_type == core::RwType::kWrite && op.seq == token) {
          COWBIRD_CHECK(op.state == OpState::kWriting);
          op.state = OpState::kDone;
          ReleaseStaging(op.staging_addr, op.meta.length);
          ts.hazards.RetireWrite(op.hazard_ticket);
          ++ops_completed_;
          RecordOpPhase(inst, thread_index, /*is_write=*/true, op.seq,
                        telemetry::OpPhase::kDone);
          break;
        }
      }
      AdvanceWriteProgressInOrder(ts);
      co_await WriteRedBlock(inst, thread_index);
      // A completed write may unstall overlapping reads.
      co_await PumpThread(inst, thread_index);
      break;
    }
    case CompletionKind::kBatchWrite: {
      // The progress counters were already published via a red-block write
      // chained behind the batch on the same RC QP (the compute node sees
      // payload before counters); here we only retire local bookkeeping.
      ThreadState& ts = inst.threads[thread_index];
      const BatchToken* batch = inflight_batches_.Find(cqe.wr_id);
      COWBIRD_CHECK(batch != nullptr);
      for (Op& op : ts.ops) {
        if (op.meta.rw_type != core::RwType::kRead) continue;
        if (op.seq < batch->seq_begin || op.seq > batch->seq_end) continue;
        COWBIRD_CHECK(op.state == OpState::kDelivering);
        op.state = OpState::kDone;
      }
      // The ACK makes this batch's reads durable: the payload write is
      // complete at the compute node, so a crash export may now claim them.
      ts.read_durable_seq = std::max(ts.read_durable_seq, batch->seq_end);
      ts.resp_tail_durable =
          std::max(ts.resp_tail_durable, batch->resp_tail_end);
      ReleaseStaging(batch->block_addr, batch->block_len);
      inflight_batches_.Erase(cqe.wr_id);
      while (!ts.ops.empty() && ts.ops.front().state == OpState::kDone) {
        ts.ops.pop_front();
      }
      break;
    }
    case CompletionKind::kRedWrite:
      break;  // red-block writes are posted unsignaled; nothing arrives here
    case CompletionKind::kBatchTimer:
      co_await FlushBatch(inst, thread_index, /*force=*/true);
      break;
    case CompletionKind::kResumeFlush:
      // Resume with pending or unpublished work: publish the merged counters
      // on the new QP and start executing the seeded operations.
      co_await WriteRedBlock(inst, thread_index);
      co_await PumpThread(inst, thread_index);
      co_await StartMetaFetch(inst, thread_index);
      break;
  }
  if (std::exchange(staging_released_, false) && !staging_waiters_.empty()) {
    co_await PumpStagingWaiters();
  }
}

void SpotAgent::AdvanceWriteProgressInOrder(ThreadState& ts) {
  // Advance write progress in strict sequence order, then retire finished
  // front entries.
  bool advanced = true;
  while (advanced) {
    advanced = false;
    for (const Op& op : ts.ops) {
      if (op.meta.rw_type == core::RwType::kWrite &&
          op.seq == ts.progress.write_progress + 1 &&
          op.state == OpState::kDone) {
        ++ts.progress.write_progress;
        advanced = true;
      }
    }
  }
  while (!ts.ops.empty() && ts.ops.front().state == OpState::kDone) {
    ts.ops.pop_front();
  }
}

sim::Task<void> SpotAgent::StartMetaFetch(Instance& inst, int thread) {
  ThreadState& ts = inst.threads[thread];
  if (ts.fetch_inflight || ts.fetch_cursor >= ts.tail_seen) co_return;
  const auto& layout = inst.descriptor.layout;
  const std::uint64_t available = ts.tail_seen - ts.fetch_cursor;
  const std::uint64_t start_slot = ts.fetch_cursor % layout.meta_slots;
  const std::uint64_t contiguous = layout.meta_slots - start_slot;
  const std::uint64_t count = std::min<std::uint64_t>(
      {available, contiguous, kMetaFetchLimit});
  ts.fetch_inflight = true;
  ts.pending_fetch = count;
  const std::uint32_t instance_index = inst.index;
  const std::uint64_t staging =
      inst.meta_staging + static_cast<std::uint64_t>(thread) *
                              kMetaFetchLimit * core::kMetadataEntryBytes;
  const rdma::SendWqe fetch{
      rdma::WqeOp::kRead,
      MakeWrId(CompletionKind::kMetaFetch, instance_index,
               static_cast<std::uint16_t>(thread), 0),
      staging, layout.MetaSlotAddr(thread, ts.fetch_cursor),
      inst.descriptor.compute_rkey,
      static_cast<std::uint32_t>(count * core::kMetadataEntryBytes), true};
  co_await rdma::EnginePostBatchVerb(thread_, *inst.to_compute,
                                     std::span<const rdma::SendWqe>(&fetch, 1));
}

sim::Task<void> SpotAgent::ParseFetchedMetadata(Instance& inst, int thread) {
  ThreadState& ts = inst.threads[thread];
  COWBIRD_CHECK(ts.fetch_inflight);
  ts.fetch_inflight = false;
  auto& mem = device_->memory();
  const std::uint64_t staging =
      inst.meta_staging + static_cast<std::uint64_t>(thread) *
                              kMetaFetchLimit * core::kMetadataEntryBytes;
  std::array<std::uint8_t, core::kMetadataEntryBytes> raw;
  for (std::uint64_t i = 0; i < ts.pending_fetch; ++i) {
    mem.Read(staging + i * core::kMetadataEntryBytes, raw);
    core::RequestMetadata meta = core::RequestMetadata::ParseBytes(raw);
    // The tail pointer is published after the entry under x86-TSO, so a
    // fetched entry must be valid; tolerate a torn view defensively by
    // stopping at the first invalid entry (it will be re-fetched).
    if (meta.rw_type == core::RwType::kInvalid) break;
    Op op;
    op.meta = meta;
    if (meta.rw_type == core::RwType::kRead) {
      op.seq = ++ts.next_read_seq;
      // Only writes probed before this read may stall it.
      op.hazard_ticket = ts.hazards.ReadFrontier();
    } else {
      op.seq = ++ts.next_write_seq;
      op.hazard_ticket = ts.hazards.AdmitWrite(
          offload::HazardRange{meta.region_id, meta.resp_addr, meta.length});
    }
    ts.ops.push_back(op);
    ++ts.fetch_cursor;
    ++ts.progress.meta_head;
    RecordOpPhase(inst, thread, meta.rw_type == core::RwType::kWrite, op.seq,
                  telemetry::OpPhase::kParsed);
  }
  co_await WriteRedBlock(inst, thread);
  co_await PumpThread(inst, thread);
  co_await StartMetaFetch(inst, thread);  // more entries may remain
}

sim::Task<void> SpotAgent::PumpThread(Instance& inst, int thread) {
  ThreadState& ts = inst.threads[thread];
  const std::uint32_t instance_index = inst.index;
  int inflight = 0;
  for (const Op& op : ts.ops) {
    if (op.state == OpState::kFetching || op.state == OpState::kWriting ||
        op.state == OpState::kDelivering) {
      ++inflight;
    }
  }
  // Collect everything issuable, then post one doorbell-batched linked list
  // per destination QP. The per-QP WQE lists live in pump_scratch_ so their
  // capacity persists across calls (entries are recycled by qp slot).
  auto& batches = pump_scratch_;
  for (auto& b : batches) {
    b.qp = nullptr;
    b.wqes.clear();
  }
  auto batch_for = [&batches](rdma::QueuePair* qp)
      -> std::vector<rdma::SendWqe>& {
    for (auto& b : batches) {
      if (b.qp == qp) return b.wqes;
      if (b.qp == nullptr) {
        b.qp = qp;
        return b.wqes;
      }
    }
    batches.push_back(PumpBatch{qp, {}});
    return batches.back().wqes;
  };
  for (auto& op : ts.ops) {
    if (inflight >= kMaxInflightPerThread) break;
    if (op.state != OpState::kQueued) continue;
    if (op.meta.rw_type == core::RwType::kRead) {
      if (!config_.chaos_unsafe_skip_hazards &&
          ts.hazards.ReadBlocked(
              offload::HazardRange{op.meta.region_id, op.meta.req_addr,
                                   op.meta.length},
              op.hazard_ticket)) {
        // Exact range fencing: only this read stalls (Section 6); it will
        // be retried when a pool write completes.
        ++reads_stalled_by_writes_;
        continue;
      }
      // A full arena holds this op and every later one of the thread.
      if (!StageOp(inst, thread, op)) break;
      op.state = OpState::kFetching;
      ++inflight;
      RecordOpPhase(inst, thread, /*is_write=*/false, op.seq,
                    telemetry::OpPhase::kExecute);
      const core::Translation src = core::MustTranslate(
          inst.translation, op.meta.region_id, op.meta.req_addr,
          op.meta.length);
      rdma::QueuePair* pool_qp = MemoryQp(inst, src.node);
      COWBIRD_CHECK(pool_qp != nullptr);
      batch_for(pool_qp)
          .push_back(rdma::SendWqe{
              rdma::WqeOp::kRead,
              MakeWrId(CompletionKind::kPoolRead, instance_index,
                       static_cast<std::uint16_t>(thread),
                       static_cast<std::uint32_t>(op.seq)),
              op.staging_addr, src.addr, src.rkey, op.meta.length, true});
    } else if (op.carried_payload != nullptr) {
      // Crash-resume replay: the snapshot carried the payload because the
      // dead engine had consumed the client's data-ring bytes. Stage it
      // locally and go straight to the pool write (data_head was already
      // advanced before the crash).
      if (!StageOp(inst, thread, op)) break;
      device_->memory().Write(op.staging_addr, *op.carried_payload);
      op.state = OpState::kWriting;
      ++inflight;
      RecordOpPhase(inst, thread, /*is_write=*/true, op.seq,
                    telemetry::OpPhase::kExecute);
      const core::Translation dst = core::MustTranslate(
          inst.translation, op.meta.region_id, op.meta.resp_addr,
          op.meta.length);
      rdma::QueuePair* pool_qp = MemoryQp(inst, dst.node);
      COWBIRD_CHECK(pool_qp != nullptr);
      batch_for(pool_qp)
          .push_back(rdma::SendWqe{
              rdma::WqeOp::kWrite,
              MakeWrId(CompletionKind::kPoolWrite, instance_index,
                       static_cast<std::uint16_t>(thread),
                       static_cast<std::uint32_t>(op.seq)),
              op.staging_addr, dst.addr, dst.rkey, op.meta.length, true});
    } else {
      if (!StageOp(inst, thread, op)) break;
      op.state = OpState::kFetching;
      ++inflight;
      RecordOpPhase(inst, thread, /*is_write=*/true, op.seq,
                    telemetry::OpPhase::kExecute);
      batch_for(inst.to_compute)
          .push_back(rdma::SendWqe{
              rdma::WqeOp::kRead,
              MakeWrId(CompletionKind::kComputeFetch, instance_index,
                       static_cast<std::uint16_t>(thread),
                       static_cast<std::uint32_t>(op.seq)),
              op.staging_addr, op.meta.req_addr,
              inst.descriptor.compute_rkey, op.meta.length, true});
    }
  }
  for (auto& b : batches) {
    if (b.qp == nullptr) break;
    co_await rdma::EnginePostBatchVerb(thread_, *b.qp, b.wqes);
  }
}

void SpotAgent::ArmBatchTimer(Instance& inst, int thread) {
  ThreadState& ts = inst.threads[thread];
  if (ts.batch_timer.Pending()) return;
  const std::uint32_t instance_index = inst.index;
  ts.batch_timer.ArmAfter(
      thread_.simulation(), kBatchTimeout, [this, instance_index, thread] {
        completions_.Send(rdma::Cqe{
            MakeWrId(CompletionKind::kBatchTimer, instance_index,
                     static_cast<std::uint16_t>(thread), 0),
            rdma::CqeOpcode::kWrite, rdma::CqeStatus::kSuccess, 0});
      });
}

sim::Task<void> SpotAgent::FlushBatch(Instance& inst, int thread,
                                      bool force) {
  ThreadState& ts = inst.threads[thread];
  // Collect the longest run of staged reads that is (a) next in sequence
  // order, (b) contiguous in the response ring, (c) at most batch_size long.
  // The run is recorded as indices into ts.ops (scratch reused across
  // calls); nothing pushes into ts.ops before the indices are consumed.
  auto& run = flush_run_;
  run.clear();
  std::uint64_t next_seq = ts.deliver_cursor + 1;
  std::uint64_t expected_addr = 0;
  for (std::size_t i = 0; i < ts.ops.size(); ++i) {
    Op& op = ts.ops[i];
    if (op.meta.rw_type != core::RwType::kRead) continue;
    if (op.seq < next_seq) continue;
    if (op.seq != next_seq || op.state != OpState::kStaged) break;
    if (!run.empty() && op.meta.resp_addr != expected_addr) break;
    run.push_back(static_cast<std::uint32_t>(i));
    expected_addr = op.meta.resp_addr + op.meta.length;
    ++next_seq;
    if (static_cast<int>(run.size()) >= config_.batch_size) break;
  }
  if (run.empty()) co_return;
  if (!force && static_cast<int>(run.size()) < config_.batch_size) {
    // Wait for more unless the batch timer says otherwise.
    ArmBatchTimer(inst, thread);
    co_return;
  }
  ts.batch_timer.Cancel();

  // Coalesce payloads into one write. The agent does not memcpy: it builds
  // a scatter-gather list over the staged buffers (one SGE per result) and
  // lets the NIC gather them — per-entry descriptor cost only. The batch
  // block here stands in for the gather. A run of one needs no gather and
  // is written straight from its read's staging. When the arena has no
  // block for a longer run, its first read goes alone that way, so a full
  // arena never stalls delivery, nor the releases delivery brings.
  auto& mem = device_->memory();
  std::uint64_t total = 0;
  for (const std::uint32_t i : run) total += ts.ops[i].meta.length;
  std::uint64_t block_addr = ts.ops[run.front()].staging_addr;
  Bytes block_len = ts.ops[run.front()].meta.length;
  if (run.size() > 1) {
    const std::optional<std::uint64_t> block = staging_.Alloc(total);
    if (block.has_value()) {
      block_addr = *block;
      block_len = total;
    } else {
      ++staging_waits_;
      run.resize(1);
      total = block_len;
    }
  }
  std::uint64_t offset = 0;
  for (const std::uint32_t i : run) {
    Op& op = ts.ops[i];
    if (run.size() > 1) {
      mem.Copy(block_addr + offset, op.staging_addr, op.meta.length);
      ReleaseStaging(op.staging_addr, op.meta.length);
    }
    offset += op.meta.length;
    op.state = OpState::kDelivering;
    ++ops_completed_;  // delivered (progress published with this batch)
    RecordOpPhase(inst, thread, /*is_write=*/false, op.seq,
                  telemetry::OpPhase::kDone);
  }
  co_await thread_.Work(
      static_cast<Nanos>(run.size()) * rdma::cost::kPostWqeEach,
      sim::CpuCategory::kCommunication);

  const std::uint32_t instance_index = inst.index;
  const std::uint64_t wr_id =
      MakeWrId(CompletionKind::kBatchWrite, instance_index,
               static_cast<std::uint16_t>(thread), next_token_++);
  // The batch's ACK is what makes these deliveries durable: record the
  // frontier it will establish so the completion handler can advance the
  // crash-export counters (read_durable_seq / resp_tail_durable).
  const std::uint64_t seq_begin = ts.ops[run.front()].seq;
  const std::uint64_t seq_end = ts.ops[run.back()].seq;
  inflight_batches_[wr_id] =
      BatchToken{seq_begin, seq_end, ts.progress.resp_tail + total,
                 block_addr, block_len};
  ts.deliver_cursor = seq_end;
  ++batches_flushed_;

  // Publish progress optimistically: the red-block write is chained on the
  // same RC QP *behind* the payload write, so the compute node can never
  // observe the counters before the data (Phase III then Phase IV ordering,
  // enforced by the transport instead of by waiting for the ACK).
  ts.progress.read_progress = seq_end;
  ts.progress.resp_tail += total;
  RedBlock red;
  const rdma::SendWqe chained[] = {
      rdma::SendWqe{rdma::WqeOp::kWrite, wr_id, block_addr,
                    ts.ops[run.front()].meta.resp_addr,
                    inst.descriptor.compute_rkey,
                    static_cast<std::uint32_t>(total), true},
      RedBlockWqe(inst, thread, red),
  };
  co_await rdma::EnginePostBatchVerb(thread_, *inst.to_compute, chained);
  // More staged reads may already form the next batch.
  co_await FlushBatch(inst, thread, force);
}

rdma::SendWqe SpotAgent::RedBlockWqe(const Instance& inst, int thread,
                                     RedBlock& block) const {
  // Inline, so the block is copied at post: a queued red write keeps the
  // counters it was posted with whatever is published after it, and never
  // advertises a payload still queued behind it (DESIGN.md §12 note 5).
  offload::ProgressPublisher::Pack(inst.threads[thread].progress, block);
  return rdma::SendWqe{rdma::WqeOp::kWrite,
                       0,
                       0,
                       inst.descriptor.layout.RedAddr(thread),
                       inst.descriptor.compute_rkey,
                       static_cast<std::uint32_t>(core::kRedBlockBytes),
                       /*signaled=*/false,
                       block.data()};
}

sim::Task<void> SpotAgent::WriteRedBlock(Instance& inst, int thread) {
  // One RDMA write updates every pointer and counter (Phase IV,
  // single-message requirement). The write is unsignaled: nothing depends
  // on its completion.
  RedBlock red;
  const rdma::SendWqe wqe = RedBlockWqe(inst, thread, red);
  co_await rdma::EnginePostBatchVerb(thread_, *inst.to_compute,
                                     std::span<const rdma::SendWqe>(&wqe, 1));
}

}  // namespace cowbird::spot
