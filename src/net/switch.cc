#include "net/switch.h"

#include <utility>

#include "common/check.h"

namespace cowbird::net {

namespace {
// A PFC pause self-expires after this long: the deadline is the safety net
// if the resume frame is lost by a fault filter.
constexpr Nanos kPfcPauseDuration = Micros(10);
}  // namespace

int Switch::AddPort(BitRate rate, Nanos propagation) {
  auto port = std::make_unique<Port>();
  port->link = std::make_unique<Link>(*sim_, rate, propagation);
  const int index = static_cast<int>(ports_.size());
  port->link->set_idle_callback([this, index] { Drain(index); });
  ports_.push_back(std::move(port));
  return index;
}

void Switch::SetRoute(NodeId node, int port) {
  COWBIRD_CHECK(port >= 0 && port < PortCount());
  routes_.emplace_back(node, port);
}

int Switch::RouteFor(NodeId node) const {
  for (const auto& [n, p] : routes_) {
    if (n == node) return p;
  }
  return -1;
}

void Switch::OnIngress(int ingress_port, Packet packet) {
  // PFC is handled at the MAC, below the forwarding pipeline: a pause
  // received on a port stops the switch transmitting data classes *to*
  // that port (the egress link shares the port index with the uplink the
  // frame arrived on).
  if (IsPfcFrame(packet)) {
    ports_[ingress_port]->link->PauseData(PfcPauseDuration(packet));
    return;
  }
  sim_->ScheduleAfter(config_.pipeline_latency,
                      [this, ingress_port, p = std::move(packet)]() mutable {
                        RunPipeline(ingress_port, std::move(p));
                      });
}

void Switch::RunPipeline(int ingress_port, Packet packet) {
  std::vector<ForwardAction>& actions = pipeline_scratch_;
  actions.clear();
  if (processor_ != nullptr) {
    processor_->Process(*this, ingress_port, std::move(packet), actions);
  } else {
    const int port = RouteFor(packet.dst);
    if (port >= 0) actions.push_back({port, std::move(packet)});
  }
  for (auto& action : actions) {
    if (action.egress_port < 0) continue;
    EnqueueEgress(action.egress_port, std::move(action.packet),
                  ingress_port);
  }
}

void Switch::EnqueueEgress(int port_index, Packet packet, int ingress_port) {
  COWBIRD_CHECK(port_index >= 0 && port_index < PortCount());
  Port& port = *ports_[port_index];
  const Bytes size = packet.bytes.size();
  if (port.queued_bytes + size > config_.egress_queue_capacity) {
    ++port.drops;
    return;
  }
  // RED/ECN: mark-on-arrival against the pre-enqueue depth, so the packet
  // that *finds* the queue at the threshold is the first one marked.
  if (config_.ecn_threshold > 0 &&
      port.queued_bytes >= config_.ecn_threshold && packet.IsEcnCapable()) {
    packet.SetEcnBits(kEcnCe);
    ++ecn_marked_;
  }
  port.queued_bytes += size;
  if (port.queued_bytes > queue_high_water_) {
    queue_high_water_ = port.queued_bytes;
  }
  port.queues[static_cast<std::size_t>(packet.priority)].push_back(
      {std::move(packet), ingress_port});
  if (ingress_port >= 0) {
    ports_[ingress_port]->ingress_buffered += size;
    UpdatePfcOnEnqueue(ingress_port);
  }
  if (port.link->TransmitterIdle()) {
    Drain(port_index);
  } else {
    port.link->WakeWhenIdle();
  }
}

void Switch::Drain(int port_index) {
  Port& port = *ports_[port_index];
  if (!port.link->TransmitterIdle()) return;
  // Strict priority: highest class first.
  for (int prio = static_cast<int>(Priority::kLevels) - 1; prio >= 0;
       --prio) {
    auto& queue = port.queues[static_cast<std::size_t>(prio)];
    if (queue.empty()) continue;
    Queued entry = std::move(queue.front());
    queue.pop_front();
    port.queued_bytes -= entry.packet.bytes.size();
    if (entry.ingress >= 0) {
      ports_[entry.ingress]->ingress_buffered -= entry.packet.bytes.size();
      UpdatePfcOnDequeue(entry.ingress);
    }
    ++forwarded_;
    port.link->Send(std::move(entry.packet));
    // The link wakes the port only on request: ask again while packets
    // still wait, or they would sit until the next enqueue.
    if (port.queued_bytes > 0) port.link->WakeWhenIdle();
    return;
  }
}

void Switch::UpdatePfcOnEnqueue(int ingress_port) {
  if (!config_.pfc_enabled) return;
  Port& ingress = *ports_[ingress_port];
  if (ingress.ingress_buffered < config_.pfc_pause_threshold) return;
  // Assert (or refresh, if in-flight packets keep arriving) the pause. The
  // frame bypasses egress queueing: flow control must not sit behind the
  // very congestion it relieves.
  if (!ingress.pause_asserted) ++pfc_pauses_sent_;
  ingress.pause_asserted = true;
  ingress.link->Send(MakePfcFrame(0, 0, kPfcPauseDuration));
}

void Switch::UpdatePfcOnDequeue(int ingress_port) {
  if (!config_.pfc_enabled) return;
  Port& ingress = *ports_[ingress_port];
  if (!ingress.pause_asserted ||
      ingress.ingress_buffered > config_.pfc_resume_threshold) {
    return;
  }
  ingress.pause_asserted = false;
  ++pfc_resumes_sent_;
  ingress.link->Send(MakePfcFrame(0, 0, 0));
}

void Switch::BindTelemetry(telemetry::MetricRegistry& registry,
                           const telemetry::Labels& labels) {
  UnbindTelemetry();
  telemetry_registry_ = &registry;
  telemetry_labels_ = labels;
  registry.RegisterCallbackGauge(
      "switch_forwarded", labels,
      [this] { return static_cast<std::int64_t>(forwarded_); });
  registry.RegisterCallbackGauge(
      "switch_ecn_marked", labels,
      [this] { return static_cast<std::int64_t>(ecn_marked_); });
  registry.RegisterCallbackGauge(
      "switch_pfc_pauses_sent", labels,
      [this] { return static_cast<std::int64_t>(pfc_pauses_sent_); });
  registry.RegisterCallbackGauge(
      "switch_pfc_resumes_sent", labels,
      [this] { return static_cast<std::int64_t>(pfc_resumes_sent_); });
  registry.RegisterCallbackGauge(
      "switch_egress_drops", labels,
      [this] { return static_cast<std::int64_t>(total_drops()); });
  registry.RegisterCallbackGauge("switch_queued_bytes", labels, [this] {
    Bytes total = 0;
    for (const auto& port : ports_) total += port->queued_bytes;
    return static_cast<std::int64_t>(total);
  });
  registry.RegisterCallbackGauge(
      "switch_queue_high_water_bytes", labels,
      [this] { return static_cast<std::int64_t>(queue_high_water_); });
}

void Switch::UnbindTelemetry() {
  if (telemetry_registry_ == nullptr) return;
  for (const char* name :
       {"switch_forwarded", "switch_ecn_marked", "switch_pfc_pauses_sent",
        "switch_pfc_resumes_sent", "switch_egress_drops",
        "switch_queued_bytes", "switch_queue_high_water_bytes"}) {
    telemetry_registry_->UnregisterCallbackGauge(name, telemetry_labels_);
  }
  telemetry_registry_ = nullptr;
  telemetry_labels_.clear();
}

}  // namespace cowbird::net
