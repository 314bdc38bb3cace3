#include "net/link.h"

#include <utility>

#include "common/check.h"

namespace cowbird::net {

void Link::Send(Packet packet, int tag) {
  auto& queue = queues_[static_cast<std::size_t>(packet.priority)];
  queue.push_back({std::move(packet), arrivals_++, tag});
  ++queued_;
  if (!TransmitterIdle()) {
    PushTransmitDone();
  } else if (const int cls = PickClass(); cls >= 0) {
    StartNext(cls);
  }
}

int Link::PickClass() const {
  // The classes sort by priority, so a pause leaves the top ones (control
  // and PFC frames) eligible; held packets stay queued, never dropped.
  const int lowest = data_paused_ ? static_cast<int>(Priority::kControl) : 0;
  int pick = -1;
  for (int cls = static_cast<int>(Priority::kLevels) - 1; cls >= lowest;
       --cls) {
    const auto& queue = queues_[static_cast<std::size_t>(cls)];
    if (queue.empty()) continue;
    if (priority_scheduling_) return cls;
    if (pick < 0 ||
        queue.front().arrival <
            queues_[static_cast<std::size_t>(pick)].front().arrival) {
      pick = cls;
    }
  }
  return pick;
}

void Link::PauseData(Nanos duration) {
  if (duration <= 0) {
    ResumeData();
    return;
  }
  ++pauses_received_;
  if (!data_paused_) {
    data_paused_ = true;
    pause_started_at_ = sim_->Now();
  }
  // A refresh extends the deadline: congestion that persists keeps the port
  // paused without gaps.
  pause_timer_.ArmAfter(*sim_, duration, [this] { ResumeData(); });
}

void Link::ResumeData() {
  if (!data_paused_) return;
  data_paused_ = false;
  paused_ns_ += static_cast<std::uint64_t>(sim_->Now() - pause_started_at_);
  pause_timer_.Cancel();
  if (!TransmitterIdle()) return;
  if (const int cls = PickClass(); cls >= 0) StartNext(cls);
}

void Link::StartNext(int cls) {
  auto& queue = queues_[static_cast<std::size_t>(cls)];
  Queued entry = std::move(queue.front());
  queue.pop_front();
  --queued_;
  const Nanos tx = rate_.TransmitTime(entry.packet.WireBytes());
  // Busy from here on: a packet the callback sends on this very link (a
  // PFC resume out of a port that is also the packet's ingress) queues
  // behind this one and leaves the transmit-done push to the end.
  busy_until_ = sim_->Now() + tx;
  tx_done_queued_ = true;
  if (on_dequeue_) on_dequeue_(entry.packet, entry.tag);
  // Delivery is scheduled independently of transmitter availability so that
  // back-to-back packets pipeline across the propagation delay.
  sim_->ScheduleAfter(tx + propagation_,
                      [this, p = std::move(entry.packet)]() mutable {
                        Deliver(std::move(p));
                      });
  // The transmit-done key is taken now, right after the delivery's, as an
  // eagerly scheduled event would take it; the event itself is queued only
  // if there will be something for it to do.
  tx_seq_ = sim_->Reserve();
  tx_done_queued_ = false;
  if (queued_ > 0) PushTransmitDone();
}

void Link::PushTransmitDone() {
  if (tx_done_queued_) return;
  tx_done_queued_ = true;
  sim_->ScheduleReserved(busy_until_, tx_seq_, [this] { TransmitDone(); });
}

void Link::TransmitDone() {
  // Packets held by a pause wait for ResumeData to re-kick the transmitter.
  if (const int cls = PickClass(); cls >= 0) StartNext(cls);
}

void Link::Deliver(Packet packet) {
  if (drop_filter_ && drop_filter_(packet)) {
    ++packets_dropped_;
    return;
  }
  if (!fault_filter_) {
    Arrive(std::move(packet));
    return;
  }
  const FaultAction action = fault_filter_(packet);
  if (action.drop) {
    ++packets_dropped_;
    ++faults_dropped_;
    return;
  }
  if (action.reorder) {
    ++faults_reordered_;
  } else if (action.delay > 0) {
    ++faults_delayed_;
  }
  faults_duplicated_ += static_cast<std::uint64_t>(
      action.duplicate > 0 ? action.duplicate : 0);
  // Duplicates trail the original at the same (possibly delayed) arrival
  // time; scheduled deliveries bypass the filters so a fault is never
  // compounded with itself.
  const int duplicates = action.duplicate;
  Packet dup = duplicates > 0 ? packet : Packet{};
  if (action.delay > 0) {
    sim_->ScheduleAfter(action.delay, [this, p = std::move(packet)]() mutable {
      Arrive(std::move(p));
    });
  } else {
    Arrive(std::move(packet));
  }
  for (int copy = 0; copy < duplicates; ++copy) {
    sim_->ScheduleAfter(action.delay, [this, p = dup]() mutable {
      Arrive(std::move(p));
    });
  }
}

void Link::Arrive(Packet packet) {
  ++packets_delivered_;
  bytes_delivered_ += packet.bytes.size();
  if (receiver_) receiver_(std::move(packet));
}

void Link::BindTelemetry(telemetry::MetricRegistry& registry,
                         const telemetry::Labels& labels) {
  gauges_.Clear();
  const struct {
    const char* name;
    const std::uint64_t* cell;
  } series[] = {
      {"link_packets_delivered", &packets_delivered_},
      {"link_bytes_delivered", &bytes_delivered_},
      {"link_packets_dropped", &packets_dropped_},
      {"link_faults_dropped", &faults_dropped_},
      {"link_faults_duplicated", &faults_duplicated_},
      {"link_faults_delayed", &faults_delayed_},
      {"link_faults_reordered", &faults_reordered_},
      {"link_paused_ns", &paused_ns_},
      {"link_pfc_pauses", &pauses_received_},
  };
  for (const auto& s : series) {
    gauges_.Register(registry, s.name, labels, [cell = s.cell] {
      return static_cast<std::int64_t>(*cell);
    });
  }
}

}  // namespace cowbird::net
