#include "workload/cutover.h"

#include <algorithm>

#include "common/check.h"

namespace cowbird::workload {

RegionCutover::RegionCutover(Cluster& cluster, core::ClusterPool& pool,
                             core::CowbirdClient& client, std::uint16_t region,
                             std::uint64_t range_base, int from, int to,
                             Config config, bool halt)
    : cluster_(cluster),
      pool_(pool),
      client_(client),
      region_(region),
      range_base_(range_base),
      from_(from),
      to_(to),
      config_(config),
      halt_(halt),
      copy_qp_(rdma::ConnectQueuePairs(*cluster.memory(from).dev,
                                       *cluster.memory(to).dev)) {
  COWBIRD_CHECK(config_.chunk > 0 && config_.window > 0);
}

RegionCutover::~RegionCutover() {
  // A run that ends mid-migration must not leave the watch on the source
  // device, which outlives this object.
  if (stage_ != Stage::kArmed && stage_ != Stage::kDone) {
    source().RemoveWriteWatch(watch_);
  }
}

bool RegionCutover::Tick(Cluster::Engine serving) {
  telemetry::Hub* hub = cluster_.hub();
  switch (stage_) {
    case Stage::kArmed:
      plan_ = pool_.PlanMove(region_, range_base_, cluster_.memory(to_).id());
      COWBIRD_CHECK(plan_.has_value() && plan_->length > 0 &&
                    plan_->src_node == source().node_id());
      dirty_.assign((plan_->length + config_.chunk - 1) / config_.chunk,
                    false);
      if (hub != nullptr) copy_span_ = hub->tracer.Begin("migration", "copy");
      watch_ = source().AddWriteWatch(
          plan_->src_addr, plan_->length,
          [this](std::uint64_t addr, std::uint32_t len) { OnWrite(addr, len); });
      copy_qp_.a_send_cq->SetCompletionCallback([this] {
        while (copy_qp_.a_send_cq->Pop().has_value()) {
          COWBIRD_CHECK(outstanding_ > 0);
          --outstanding_;
        }
        Pump();
      });
      stage_ = Stage::kCopying;
      Pump();
      return true;
    case Stage::kCopying:
      return false;
    case Stage::kCopied:
      // Stragglers already on the wire still land on the source, re-mark
      // their chunk, and are chased before the cutover.
      resume_ = cluster_.Detach(serving, client_, halt_);
      COWBIRD_CHECK(resume_.has_value());
      if (hub != nullptr) drain_span_ = hub->tracer.Begin("migration", "drain");
      stage_ = Stage::kDraining;
      Pump();
      return true;
    case Stage::kDraining:
      // A straggler that lands while nothing is in flight marks its chunk
      // with no completion coming to pump it, so every tick pumps.
      Pump();
      if (outstanding_ != 0 ||
          std::find(dirty_.begin(), dirty_.end(), true) != dirty_.end()) {
        return false;
      }
      // Source and destination hold identical bytes. The resumed engine
      // builds its translation mirror from the new placement, so every
      // re-executed and new operation resolves to the destination server.
      pool_.CommitMove(*plan_);
      client_.SetRegionRanges(region_, pool_.RangesFor(region_));
      source().RemoveWriteWatch(watch_);
      copy_qp_.a_send_cq->SetCompletionCallback(nullptr);
      if (hub != nullptr) {
        hub->tracer.End(drain_span_);
        hub->tracer.Instant("migration", "cutover");
      }
      cluster_.Attach(serving, client_, {from_, to_}, &*resume_);
      stage_ = Stage::kDone;
      return true;
    case Stage::kDone:
      return false;
  }
  return false;
}

void RegionCutover::OnWrite(std::uint64_t addr, std::uint32_t len) {
  // Mark every chunk the write touches. Writes before a chunk's first copy
  // are harmless extra marks (the first pass would cover them anyway);
  // writes after it are exactly what the chase exists for.
  const std::uint64_t rel_start =
      addr > plan_->src_addr ? addr - plan_->src_addr : 0;
  const std::uint64_t rel_end =
      std::min<std::uint64_t>(addr + len - plan_->src_addr, plan_->length);
  for (std::size_t c = static_cast<std::size_t>(rel_start / config_.chunk);
       c < ChunkCount() && c * config_.chunk < rel_end; ++c) {
    if (!dirty_[c]) ++dirty_marks_;
    dirty_[c] = true;
  }
}

void RegionCutover::PostChunk(std::size_t index) {
  const std::uint64_t offset = index * config_.chunk;
  const Bytes len = std::min<Bytes>(config_.chunk, plan_->length - offset);
  rdma::SendWqe wqe;
  wqe.op = rdma::WqeOp::kWrite;
  wqe.wr_id = index;
  wqe.laddr = plan_->src_addr + offset;
  wqe.raddr = plan_->dst_addr + offset;
  wqe.rkey = plan_->dst_rkey;
  wqe.length = static_cast<std::uint32_t>(len);
  copy_qp_.a->PostSend(wqe);
  ++outstanding_;
  bytes_copied_ += len;
}

void RegionCutover::Pump() {
  // First pass first, then the dirty chase. A chunk's dirty bit is cleared
  // *before* the copy is posted: the WQE's payload is read from source
  // memory at transmit time, so any write racing the copy lands first in
  // memory and re-marks the bit — re-copied on a later pump, never lost.
  while (outstanding_ < config_.window && pass_next_ < ChunkCount()) {
    dirty_[pass_next_] = false;
    PostChunk(pass_next_);
    ++pass_next_;
  }
  if (pass_next_ < ChunkCount()) return;
  if (stage_ == Stage::kCopying && outstanding_ == 0) {
    stage_ = Stage::kCopied;
    if (telemetry::Hub* hub = cluster_.hub()) hub->tracer.End(copy_span_);
  }
  for (std::size_t c = 0; c < ChunkCount() && outstanding_ < config_.window;
       ++c) {
    if (!dirty_[c]) continue;
    dirty_[c] = false;
    PostChunk(c);
  }
}

}  // namespace cowbird::workload
