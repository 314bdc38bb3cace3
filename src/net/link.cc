#include "net/link.h"

#include <utility>

#include "common/check.h"

namespace cowbird::net {

void Link::Send(Packet packet) {
  queue_.push_back(std::move(packet));
  if (!TransmitterIdle()) {
    PushTransmitDone();
  } else if (HasEligible()) {
    StartNext();
  }
}

void Link::WakeWhenIdle() {
  COWBIRD_CHECK(idle_callback_);
  wake_requested_ = true;
  // An idle transmitter has nothing to finish: the wake rides the next
  // packet it starts (one held by a pause, say).
  if (!TransmitterIdle()) PushTransmitDone();
}

bool Link::HasEligible() const {
  if (!data_paused_) return !queue_.empty();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].priority == Priority::kControl) return true;
  }
  return false;
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
  if (TransmitterIdle() && HasEligible()) StartNext();
}

void Link::StartNext() {
  // Pick the first eligible packet (FIFO), or the highest-priority eligible
  // one under priority scheduling. While data-paused only kControl is
  // eligible; ineligible packets are held in place, never dropped.
  std::size_t next = queue_.size();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (data_paused_ && queue_[i].priority != Priority::kControl) continue;
    if (next == queue_.size()) {
      next = i;
      if (!priority_scheduling_) break;
      continue;
    }
    if (static_cast<int>(queue_[i].priority) >
        static_cast<int>(queue_[next].priority)) {
      next = i;
    }
  }
  COWBIRD_CHECK(next < queue_.size());
  Packet packet = std::move(queue_[next]);
  queue_.erase_at(next);
  const Nanos tx = rate_.TransmitTime(packet.WireBytes());
  // Delivery is scheduled independently of transmitter availability so that
  // back-to-back packets pipeline across the propagation delay.
  sim_->ScheduleAfter(tx + propagation_,
                      [this, p = std::move(packet)]() mutable {
                        Deliver(std::move(p));
                      });
  // The transmit-done key is taken now, right after the delivery's, as an
  // eagerly scheduled event would take it; the event itself is queued only
  // if there will be something for it to do.
  busy_until_ = sim_->Now() + tx;
  tx_seq_ = sim_->Reserve();
  tx_done_queued_ = false;
  if (!queue_.empty() || wake_requested_) PushTransmitDone();
}

void Link::PushTransmitDone() {
  if (tx_done_queued_) return;
  tx_done_queued_ = true;
  sim_->ScheduleReserved(busy_until_, tx_seq_, [this] { TransmitDone(); });
}

void Link::TransmitDone() {
  if (HasEligible()) {
    StartNext();
  } else if (queue_.empty() && wake_requested_) {
    // Data held behind a pause is neither transmitted nor "drained": the
    // wake waits for a genuinely empty queue; ResumeData re-kicks held
    // packets when the pause lifts.
    wake_requested_ = false;
    idle_callback_();
  }
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
  UnbindTelemetry();
  telemetry_registry_ = &registry;
  telemetry_labels_ = labels;
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
    registry.RegisterCallbackGauge(s.name, labels, [cell = s.cell] {
      return static_cast<std::int64_t>(*cell);
    });
  }
}

void Link::UnbindTelemetry() {
  if (telemetry_registry_ == nullptr) return;
  for (const char* name :
       {"link_packets_delivered", "link_bytes_delivered",
        "link_packets_dropped", "link_faults_dropped",
        "link_faults_duplicated", "link_faults_delayed",
        "link_faults_reordered", "link_paused_ns", "link_pfc_pauses"}) {
    telemetry_registry_->UnregisterCallbackGauge(name, telemetry_labels_);
  }
  telemetry_registry_ = nullptr;
  telemetry_labels_.clear();
}

}  // namespace cowbird::net
