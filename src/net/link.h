// Point-to-point unidirectional link with a serializing transmitter.
//
// A link transmits one packet at a time at its configured rate; completed
// packets propagate for `propagation` ns and are handed to the receiver.
// Packets waiting for the transmitter sit in one FIFO per traffic class,
// and the link alone picks which starts next (see set_priority_scheduling
// and PauseData): a switch port's egress link is that port's only queue.
// Multiple packets can be in flight on the wire simultaneously (transmission
// pipelines with propagation). Loss is injected at delivery time through an
// optional drop filter — corruption and congestive loss look identical to
// the endpoints, which is all the Go-Back-N recovery path (Section 5.3)
// can observe anyway.
//
// Beyond plain loss, a fault filter can mutate delivery: drop, duplicate,
// delay, or hold a packet long enough that later arrivals overtake it
// (reordering). Each injected fault is counted exactly once, so a chaos
// plan's decisions can be audited against the link's counters.
#pragma once

#include <array>
#include <functional>
#include <string>

#include "common/pool.h"
#include "common/units.h"
#include "net/packet.h"
#include "sim/simulation.h"
#include "telemetry/metrics.h"

namespace cowbird::net {

// What a fault filter decides for one delivered packet. The original packet
// is delivered unless `drop`; `duplicate` extra copies follow it; a non-zero
// `delay` postpones delivery (copies included). `reorder` marks the delay as
// intended to push this packet behind later arrivals — it only affects which
// counter the fault lands in, so injector reports stay exact.
struct FaultAction {
  bool drop = false;
  int duplicate = 0;
  Nanos delay = 0;
  bool reorder = false;
};

class Link {
 public:
  Link(sim::Simulation& sim, BitRate rate, Nanos propagation)
      : sim_(&sim), rate_(rate), propagation_(propagation) {}
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void set_receiver(std::function<void(Packet)> receiver) {
    receiver_ = std::move(receiver);
  }
  // Runs `cb` with each packet, and the tag it was sent with, as the packet
  // starts transmitting: the switch's egress accounting.
  void set_dequeue_callback(std::function<void(const Packet&, int)> cb) {
    on_dequeue_ = std::move(cb);
  }
  // Return true to drop the packet (applied as the packet would arrive).
  void set_drop_filter(std::function<bool(const Packet&)> filter) {
    drop_filter_ = std::move(filter);
  }
  // General delivery mutation, applied after the drop filter as the packet
  // would arrive. Faulted deliveries (delayed originals, duplicates) do not
  // re-enter the filters.
  void set_fault_filter(std::function<FaultAction(const Packet&)> filter) {
    fault_filter_ = std::move(filter);
  }

  // Queues `packet` behind the others of its class; `tag` is handed back to
  // the dequeue callback.
  void Send(Packet packet, int tag = -1);

  // Names this link for telemetry labels (e.g. "uplink[client3]").
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  // Strict priority (the highest eligible class starts next) instead of
  // FIFO (the earliest eligible packet). Every switch port runs it; a host
  // NIC runs it to put RDMA above user TCP in the Figure 14 worst case.
  void set_priority_scheduling(bool enabled) {
    priority_scheduling_ = enabled;
  }

  // PFC: pauses the data classes (everything below Priority::kControl) for
  // `duration` ns. Control and PFC frames keep flowing — that is what keeps
  // the pause/CNP loop itself deadlock-free. A refresh while already paused
  // extends the deadline; a zero/negative duration (or the timer expiring)
  // resumes and re-kicks the transmitter. Queued data packets are *held*,
  // not dropped, so delivery back-pressures instead of losing frames — and
  // the per-fault counters (counted once at delivery) stay exact even when
  // a pause defers the transmit that precedes them.
  void PauseData(Nanos duration);
  void ResumeData();
  bool data_paused() const { return data_paused_; }

  // The transmitter is busy until its transmit-done key (busy_until_,
  // tx_seq_) passes, whether or not that event was ever queued.
  bool TransmitterIdle() const { return sim_->Passed(busy_until_, tx_seq_); }
  BitRate rate() const { return rate_; }
  Nanos propagation() const { return propagation_; }

  // Completed pause intervals, accumulated (an in-progress pause counts
  // once it resumes).
  std::uint64_t paused_ns() const { return paused_ns_; }
  std::uint64_t pauses_received() const { return pauses_received_; }

  std::uint64_t packets_delivered() const { return packets_delivered_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }

  // Exact injected-fault accounting (each FaultAction is counted once, in
  // exactly one bucket per effect it requested).
  std::uint64_t faults_dropped() const { return faults_dropped_; }
  std::uint64_t faults_duplicated() const { return faults_duplicated_; }
  std::uint64_t faults_delayed() const { return faults_delayed_; }
  std::uint64_t faults_reordered() const { return faults_reordered_; }

  // Surfaces delivery and fault counters through a registry as callback
  // gauges (evaluated at snapshot time; the link pays nothing per packet),
  // removed when the link dies. A second bind replaces the first.
  void BindTelemetry(telemetry::MetricRegistry& registry,
                     const telemetry::Labels& labels);

 private:
  struct Queued {
    Packet packet;
    std::uint64_t arrival = 0;  // orders the classes' heads on a FIFO link
    int tag = -1;
  };

  // The class whose head starts next, or -1 when no queued packet may.
  int PickClass() const;
  void StartNext(int cls);
  // Queues the transmit-done event at its reserved key, once per packet.
  void PushTransmitDone();
  void TransmitDone();
  void Deliver(Packet packet);
  void Arrive(Packet packet);

  sim::Simulation* sim_;
  std::string name_ = "<link>";
  BitRate rate_;
  Nanos propagation_;
  std::function<void(Packet)> receiver_;
  std::function<void(const Packet&, int)> on_dequeue_;
  std::function<bool(const Packet&)> drop_filter_;
  std::function<FaultAction(const Packet&)> fault_filter_;
  // One FIFO per class, indexed by Priority.
  std::array<FixedDeque<Queued>, static_cast<std::size_t>(Priority::kLevels)>
      queues_;
  std::size_t queued_ = 0;  // packets across all classes
  std::uint64_t arrivals_ = 0;
  bool priority_scheduling_ = false;
  // Transmit-done key of the packet on (or last on) the transmitter: the
  // seq is reserved when the packet starts, and the event is queued only
  // when a packet waits behind it.
  Nanos busy_until_ = -1;
  std::uint64_t tx_seq_ = 0;
  bool tx_done_queued_ = false;
  bool data_paused_ = false;
  Nanos pause_started_at_ = 0;
  sim::TimerHandle pause_timer_;
  std::uint64_t paused_ns_ = 0;
  std::uint64_t pauses_received_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t faults_dropped_ = 0;
  std::uint64_t faults_duplicated_ = 0;
  std::uint64_t faults_delayed_ = 0;
  std::uint64_t faults_reordered_ = 0;
  telemetry::CallbackGauges gauges_;
};

}  // namespace cowbird::net
