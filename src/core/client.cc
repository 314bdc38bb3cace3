#include "core/client.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.h"

namespace cowbird::core {

namespace {
// Atomic: parallel sweeps construct clients from concurrent simulations.
// Ids stay unique and monotone within any one (single-threaded) simulation;
// nothing observable depends on their absolute values across runs.
std::atomic<std::uint32_t> next_instance_id{1};
}  // namespace

CowbirdClient::CowbirdClient(rdma::Device& device, Config config)
    : device_(&device), config_(config) {
  const auto* mr = device.RegisterMemory(config_.layout.base,
                                         config_.layout.TotalBytes());
  descriptor_.instance_id =
      next_instance_id.fetch_add(1, std::memory_order_relaxed);
  descriptor_.compute_node = device.node_id();
  descriptor_.compute_rkey = mr->rkey;
  descriptor_.layout = config_.layout;
  for (int i = 0; i < config_.layout.threads; ++i) {
    threads_.push_back(std::make_unique<ThreadContext>(*this, i));
  }
  // Zero every thread's bookkeeping blocks (the green blocks, then the red
  // ones, at the start of the MR) so the engine's first probe reads a
  // consistent (empty) state.
  const std::vector<std::uint8_t> zeros(config_.layout.RingsBase() -
                                        config_.layout.GreenBase());
  device.memory().Write(config_.layout.GreenBase(), zeros);
  red_watch_ = device.AddWriteWatch(
      config_.layout.RedBase(), config_.layout.RedBytesTotal(),
      [this](std::uint64_t addr, std::uint32_t len) { OnRedWrite(addr, len); });
}

CowbirdClient::~CowbirdClient() { device_->RemoveWriteWatch(red_watch_); }

void CowbirdClient::OnRedWrite(std::uint64_t addr, std::uint32_t len) {
  const std::uint64_t base = config_.layout.RedBase();
  const std::uint64_t first = addr > base ? (addr - base) / kRedBlockBytes : 0;
  const std::uint64_t last =
      std::min<std::uint64_t>((addr + len - 1 - base) / kRedBlockBytes,
                              threads_.size() - 1);
  for (std::uint64_t t = first; t <= last; ++t) {
    if (auto* thread = std::exchange(threads_[t]->parked_, nullptr)) {
      thread->Wake();
    }
  }
}

void CowbirdClient::RegisterRegion(const RegionInfo& region) {
  COWBIRD_CHECK(descriptor_.FindRegion(region.region_id) == nullptr);
  descriptor_.regions.push_back(region);
}

CowbirdClient::ThreadContext::ThreadContext(CowbirdClient& client, int index)
    : client_(&client),
      index_(index),
      meta_ring_(client.config_.layout.meta_slots),
      data_ring_(client.config_.layout.data_capacity),
      resp_ring_(client.config_.layout.resp_capacity) {
  if (auto* hub = client.config_.telemetry) {
    const telemetry::Labels labels = {
        {"instance", std::to_string(client.descriptor_.instance_id)},
        {"thread", std::to_string(index)}};
    const struct {
      const char* name;
      const std::uint64_t* cell;
    } series[] = {
        {"client_reads_issued", &reads_issued_},
        {"client_writes_issued", &writes_issued_},
        {"client_issue_failures", &issue_failures_},
        {"client_reads_retired", &retired_read_seq_},
        {"client_writes_retired", &retired_write_seq_},
    };
    for (const auto& s : series) {
      gauges_.Register(hub->metrics, s.name, labels, [cell = s.cell] {
        return static_cast<std::int64_t>(*cell);
      });
    }
  }
}

std::optional<std::uint64_t> CowbirdClient::ThreadContext::ContiguousPad(
    const ByteRing& ring, std::uint64_t len) {
  COWBIRD_CHECK(len <= ring.capacity());
  const std::uint64_t offset = ring.tail() % ring.capacity();
  const std::uint64_t pad =
      offset + len > ring.capacity() ? ring.capacity() - offset : 0;
  if (!ring.CanReserve(pad + len)) return std::nullopt;
  return pad;
}

sim::Task<std::optional<ReqId>> CowbirdClient::ThreadContext::AsyncRead(
    sim::SimThread& thread, std::uint16_t region_id,
    std::uint64_t remote_src_offset, std::uint64_t local_dest,
    std::uint32_t length) {
  const RegionInfo* region = client_->descriptor_.FindRegion(region_id);
  COWBIRD_CHECK(region != nullptr);
  COWBIRD_CHECK(remote_src_offset + length <= region->size);
  COWBIRD_CHECK(length > 0);

  // Lifecycle clock starts before the post cost is charged, so the span sum
  // covers everything the caller observes.
  const Nanos issue_ts = thread.simulation().Now();

  // The issue path itself: a handful of local-memory writes.
  co_await thread.Work(rdma::cost::kCowbirdPost,
                       sim::CpuCategory::kCommunication);

  auto pad = ContiguousPad(resp_ring_, length);
  if (!pad.has_value() || meta_ring_.Full()) {
    // Out of space: sync with engine progress once, then retry the
    // reservation; if still full the caller must drain completions.
    co_await Reconcile(thread);
    pad = ContiguousPad(resp_ring_, length);
    if (!pad.has_value() || meta_ring_.Full()) {
      ++issue_failures_;
      co_return std::nullopt;
    }
  }

  const std::uint64_t cursor = resp_ring_.Reserve(*pad + length);
  const std::uint64_t data_start = cursor + *pad;
  const auto& layout = client_->config_.layout;
  const std::uint64_t resp_addr =
      layout.RespRingAddr(index_) + (data_start % resp_ring_.capacity());

  RequestMetadata meta;
  meta.rw_type = RwType::kRead;
  meta.region_id = region_id;
  meta.length = length;
  meta.req_addr = region->remote_base + remote_src_offset;
  meta.resp_addr = resp_addr;
  const std::uint64_t slot = meta_ring_.Push();
  auto& mem = client_->device_->memory();
  meta.Publish(mem, layout.MetaSlotAddr(index_, slot));
  // Publish the new tail in the green block (plain store; engine probes it).
  mem.WriteValue<std::uint64_t>(layout.GreenAddr(index_) + kGreenMetaTail,
                                meta_ring_.tail());

  const std::uint64_t seq = ++next_read_seq_;
  outstanding_reads_.push_back(
      OutstandingRead{seq, cursor, *pad, length, local_dest});
  ++reads_issued_;
  if (auto* hub = client_->config_.telemetry) {
    hub->tracer.RecordOpAt(
        telemetry::OpKey{client_->descriptor_.instance_id,
                         static_cast<std::uint32_t>(index_), false, seq},
        telemetry::OpPhase::kIssue, issue_ts);
  }
  co_return ReqId::Make(RwType::kRead, index_, seq);
}

sim::Task<std::optional<ReqId>> CowbirdClient::ThreadContext::AsyncWrite(
    sim::SimThread& thread, std::uint16_t region_id, std::uint64_t local_src,
    std::uint64_t remote_dest_offset, std::uint32_t length) {
  const RegionInfo* region = client_->descriptor_.FindRegion(region_id);
  COWBIRD_CHECK(region != nullptr);
  COWBIRD_CHECK(remote_dest_offset + length <= region->size);
  COWBIRD_CHECK(length > 0);

  const Nanos issue_ts = thread.simulation().Now();

  co_await thread.Work(rdma::cost::kCowbirdPost,
                       sim::CpuCategory::kCommunication);

  auto pad = ContiguousPad(data_ring_, length);
  if (!pad.has_value() || meta_ring_.Full()) {
    co_await Reconcile(thread);
    pad = ContiguousPad(data_ring_, length);
    if (!pad.has_value() || meta_ring_.Full()) {
      ++issue_failures_;
      co_return std::nullopt;
    }
  }

  const std::uint64_t cursor = data_ring_.Reserve(*pad + length);
  const std::uint64_t data_start = cursor + *pad;
  const auto& layout = client_->config_.layout;
  const std::uint64_t ring_addr =
      layout.DataRingAddr(index_) + (data_start % data_ring_.capacity());

  // Stage the payload into the request data ring (the one copy the write
  // path pays; the engine fetches it from here asynchronously).
  auto& mem = client_->device_->memory();
  mem.Copy(ring_addr, local_src, length);
  co_await thread.Work(rdma::cost::CopyCost(length),
                       sim::CpuCategory::kCommunication);

  RequestMetadata meta;
  meta.rw_type = RwType::kWrite;
  meta.region_id = region_id;
  meta.length = length;
  meta.req_addr = ring_addr;
  meta.resp_addr = region->remote_base + remote_dest_offset;
  const std::uint64_t slot = meta_ring_.Push();
  meta.Publish(mem, layout.MetaSlotAddr(index_, slot));
  mem.WriteValue<std::uint64_t>(layout.GreenAddr(index_) + kGreenMetaTail,
                                meta_ring_.tail());
  mem.WriteValue<std::uint64_t>(layout.GreenAddr(index_) + kGreenDataTail,
                                data_ring_.tail());

  const std::uint64_t seq = ++next_write_seq_;
  outstanding_writes_.push_back(OutstandingWrite{seq, *pad + length});
  ++writes_issued_;
  if (auto* hub = client_->config_.telemetry) {
    hub->tracer.RecordOpAt(
        telemetry::OpKey{client_->descriptor_.instance_id,
                         static_cast<std::uint32_t>(index_), true, seq},
        telemetry::OpPhase::kIssue, issue_ts);
  }
  co_return ReqId::Make(RwType::kWrite, index_, seq);
}

sim::Task<void> CowbirdClient::ThreadContext::Reconcile(
    sim::SimThread& thread, bool check_charged) {
  if (!check_charged) {
    co_await thread.Work(rdma::cost::kCowbirdPoll,
                         sim::CpuCategory::kCommunication);
  }
  auto& mem = client_->device_->memory();
  const auto& layout = client_->config_.layout;
  std::uint8_t block[kRedBlockBytes];
  mem.Read(layout.RedAddr(index_), block);
  const RedBlock red = RedBlock::Unpack(block);

  meta_ring_.AdvanceHeadTo(red.meta_head);

  auto* hub = client_->config_.telemetry;
  while (!outstanding_writes_.empty() &&
         outstanding_writes_.front().seq <= red.write_progress) {
    if (hub != nullptr) {
      hub->tracer.RecordOp(
          telemetry::OpKey{client_->descriptor_.instance_id,
                           static_cast<std::uint32_t>(index_), true,
                           outstanding_writes_.front().seq},
          telemetry::OpPhase::kRetired);
    }
    data_ring_.Release(outstanding_writes_.front().reserved_bytes);
    outstanding_writes_.pop_front();
  }
  retired_write_seq_ = std::max(retired_write_seq_, red.write_progress);

  while (!outstanding_reads_.empty() &&
         outstanding_reads_.front().seq <= red.read_progress) {
    // Copied, not referenced: the ring may grow (relocating entries) if an
    // issue path runs while this coroutine is suspended at the copy charge.
    const OutstandingRead done = outstanding_reads_.front();
    // Copy the payload out of the response ring to the user's buffer.
    const std::uint64_t ring_addr =
        layout.RespRingAddr(index_) +
        ((done.ring_cursor + done.pad) % resp_ring_.capacity());
    mem.Copy(done.user_dest, ring_addr, done.length);
    co_await thread.Work(rdma::cost::DeliveryCopyCost(done.length),
                         sim::CpuCategory::kCommunication);
    // Stamped after the delivery copy: the op's lifecycle ends when its
    // payload is in the caller's buffer, which is what PollWait observes.
    if (hub != nullptr) {
      hub->tracer.RecordOp(
          telemetry::OpKey{client_->descriptor_.instance_id,
                           static_cast<std::uint32_t>(index_), false,
                           done.seq},
          telemetry::OpPhase::kRetired);
    }
    resp_ring_.Release(done.pad + done.length);
    mem.WriteValue<std::uint64_t>(layout.GreenAddr(index_) + kGreenRespHead,
                                  resp_ring_.head());
    outstanding_reads_.pop_front();
  }
  retired_read_seq_ = std::max(retired_read_seq_, red.read_progress);
}

PollId CowbirdClient::ThreadContext::PollCreate() {
  poll_groups_.emplace_back();
  poll_groups_.back().live = true;
  return static_cast<PollId>(poll_groups_.size() - 1);
}

void CowbirdClient::ThreadContext::PollAdd(PollId poll_id, ReqId req_id) {
  COWBIRD_CHECK(poll_id < poll_groups_.size() && poll_groups_[poll_id].live);
  auto& group = poll_groups_[poll_id];
  auto& queue =
      req_id.type() == RwType::kRead ? group.reads : group.writes;
  COWBIRD_DCHECK(queue.empty() || queue.back().seq() < req_id.seq());
  queue.push_back(req_id);
}

void CowbirdClient::ThreadContext::PollRemove(PollId poll_id, ReqId req_id) {
  COWBIRD_CHECK(poll_id < poll_groups_.size() && poll_groups_[poll_id].live);
  auto& group = poll_groups_[poll_id];
  auto& queue =
      req_id.type() == RwType::kRead ? group.reads : group.writes;
  for (std::size_t i = 0; i < queue.size();) {
    if (queue[i] == req_id) {
      queue.erase_at(i);
    } else {
      ++i;
    }
  }
}

int CowbirdClient::ThreadContext::Harvest(PollId poll_id,
                                          std::vector<ReqId>& responses,
                                          int max_ret) {
  // Completion checks are integer comparisons against the progress
  // counters (Section 4.4).
  auto& group = poll_groups_[poll_id];
  const std::size_t before = responses.size();
  while (static_cast<int>(responses.size()) < max_ret &&
         !group.reads.empty() &&
         group.reads.front().seq() <= retired_read_seq_) {
    responses.push_back(group.reads.front());
    group.reads.pop_front();
  }
  while (static_cast<int>(responses.size()) < max_ret &&
         !group.writes.empty() &&
         group.writes.front().seq() <= retired_write_seq_) {
    responses.push_back(group.writes.front());
    group.writes.pop_front();
  }
  return static_cast<int>(responses.size() - before);
}

sim::Task<int> CowbirdClient::ThreadContext::PollWait(
    sim::SimThread& thread, PollId poll_id, std::vector<ReqId>& responses,
    int max_ret, Nanos timeout) {
  COWBIRD_CHECK(poll_id < poll_groups_.size() && poll_groups_[poll_id].live);
  const Nanos deadline = thread.simulation().Now() + timeout;
  responses.clear();
  for (;;) {
    co_await Reconcile(thread);
    Harvest(poll_id, responses, max_ret);
    if (static_cast<int>(responses.size()) >= max_ret ||
        thread.simulation().Now() >= deadline) {
      co_return static_cast<int>(responses.size());
    }
    const Nanos remaining = deadline - thread.simulation().Now();
    co_await thread.Idle(std::min<Nanos>(kPollInterval, remaining));
  }
}

sim::Task<int> CowbirdClient::ThreadContext::PollAny(
    sim::SimThread& thread, PollId poll_id, std::vector<ReqId>& responses,
    int max_ret, Nanos gap) {
  COWBIRD_CHECK(poll_id < poll_groups_.size() && poll_groups_[poll_id].live);
  COWBIRD_CHECK(max_ret > 0 && parked_ == nullptr);
  responses.clear();
  co_await Reconcile(thread);
  while (Harvest(poll_id, responses, max_ret) == 0) {
    // Every value the next checks would read stays as this one read it
    // until an engine write lands in the red block: skip them.
    parked_ = &thread;
    co_await thread.Park(gap, rdma::cost::kCowbirdPoll,
                         sim::CpuCategory::kCommunication);
    co_await Reconcile(thread, /*check_charged=*/true);
  }
  co_return static_cast<int>(responses.size());
}

sim::Task<std::vector<ReqId>> CowbirdClient::ThreadContext::PollWait(
    sim::SimThread& thread, PollId poll_id, int max_ret, Nanos timeout) {
  std::vector<ReqId> results;
  co_await PollWait(thread, poll_id, results, max_ret, timeout);
  co_return results;
}

}  // namespace cowbird::core
