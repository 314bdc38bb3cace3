#include "core/migration.h"

#include <algorithm>

#include "common/check.h"

namespace cowbird::core {

RegionMigrator::RegionMigrator(rdma::Device& src_device,
                               rdma::QueuePair& to_dst,
                               rdma::CompletionQueue& send_cq,
                               const ClusterPool::MigrationPlan& plan,
                               Config config)
    : src_device_(&src_device),
      qp_(&to_dst),
      cq_(&send_cq),
      plan_(plan),
      config_(config) {
  COWBIRD_CHECK(config_.chunk > 0 && config_.window > 0);
  COWBIRD_CHECK(plan_.length > 0);
  COWBIRD_CHECK(src_device_->node_id() == plan_.src_node);
  COWBIRD_CHECK(qp_->Connected() && qp_->remote_node() == plan_.dst_node);
  dirty_.assign(ChunkCount(), false);
}

RegionMigrator::~RegionMigrator() {
  if (started_ && !finished_) src_device_->RemoveWriteWatch(watch_);
}

std::size_t RegionMigrator::ChunkCount() const {
  return static_cast<std::size_t>((plan_.length + config_.chunk - 1) /
                                  config_.chunk);
}

void RegionMigrator::Start() {
  COWBIRD_CHECK(!started_);
  started_ = true;
  if (config_.telemetry != nullptr) {
    copy_span_ = config_.telemetry->tracer.Begin("migration", "copy");
  }
  watch_ = src_device_->AddWriteWatch(
      plan_.src_addr, plan_.length,
      [this](std::uint64_t addr, std::uint32_t len) { OnWrite(addr, len); });
  cq_->SetCompletionCallback([this] {
    while (cq_->Pop().has_value()) {
      COWBIRD_CHECK(outstanding_ > 0);
      --outstanding_;
    }
    Pump();
  });
  Pump();
}

void RegionMigrator::OnWrite(std::uint64_t addr, std::uint32_t len) {
  // Mark every chunk the write touches. Writes before a chunk's first copy
  // are harmless extra marks (the initial sweep would cover them anyway);
  // writes after it are exactly what the chase exists for.
  const std::uint64_t rel_start = addr > plan_.src_addr
                                      ? addr - plan_.src_addr
                                      : 0;
  const std::uint64_t rel_end =
      std::min<std::uint64_t>(addr + len - plan_.src_addr, plan_.length);
  for (std::size_t c = static_cast<std::size_t>(rel_start / config_.chunk);
       c < ChunkCount() && c * config_.chunk < rel_end; ++c) {
    if (!dirty_[c]) ++dirty_marks_;
    dirty_[c] = true;
  }
}

void RegionMigrator::PostChunk(std::size_t index) {
  const std::uint64_t offset = index * config_.chunk;
  const Bytes len = std::min<Bytes>(config_.chunk, plan_.length - offset);
  rdma::SendWqe wqe;
  wqe.op = rdma::WqeOp::kWrite;
  wqe.wr_id = index;
  wqe.laddr = plan_.src_addr + offset;
  wqe.raddr = plan_.dst_addr + offset;
  wqe.rkey = plan_.dst_rkey;
  wqe.length = static_cast<std::uint32_t>(len);
  qp_->PostSend(wqe);
  ++outstanding_;
  bytes_copied_ += len;
}

void RegionMigrator::Pump() {
  if (!started_ || finished_) return;
  // Initial sweep first, then dirty chase. A chunk's dirty bit is cleared
  // *before* the copy is posted: the WQE's payload is read from source
  // memory at transmit time, so any write racing the copy lands first in
  // memory and re-marks the bit — re-copied on a later pump, never lost.
  while (outstanding_ < config_.window && pass_next_ < ChunkCount()) {
    dirty_[pass_next_] = false;
    PostChunk(pass_next_);
    ++pass_next_;
  }
  if (pass_next_ == ChunkCount() && !pass_done_ && outstanding_ == 0) {
    pass_done_ = true;
    if (config_.telemetry != nullptr) {
      config_.telemetry->tracer.End(copy_span_);
      copy_span_ = {};
    }
  }
  if (pass_next_ < ChunkCount()) return;
  for (std::size_t c = 0; c < ChunkCount() && outstanding_ < config_.window;
       ++c) {
    if (!dirty_[c]) continue;
    dirty_[c] = false;
    PostChunk(c);
  }
}

bool RegionMigrator::ReadyForCutover() const {
  return pass_done_ && !finished_;
}

void RegionMigrator::BeginFinalDrain() {
  COWBIRD_CHECK(started_ && pass_done_ && !draining_);
  draining_ = true;
  if (config_.telemetry != nullptr) {
    drain_span_ = config_.telemetry->tracer.Begin("migration", "drain");
  }
  Pump();
}

bool RegionMigrator::Synced() const {
  if (!draining_ || outstanding_ != 0) return false;
  return std::none_of(dirty_.begin(), dirty_.end(),
                      [](bool dirty) { return dirty; });
}

void RegionMigrator::Finish() {
  COWBIRD_CHECK(Synced());
  finished_ = true;
  src_device_->RemoveWriteWatch(watch_);
  cq_->SetCompletionCallback(nullptr);
  if (config_.telemetry != nullptr) {
    config_.telemetry->tracer.End(drain_span_);
    config_.telemetry->tracer.Instant("migration", "cutover");
  }
}

}  // namespace cowbird::core
