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
  port->link->set_priority_scheduling(true);
  port->link->set_dequeue_callback(
      [this, index](const Packet& packet, int ingress_port) {
        OnDequeue(index, packet, ingress_port);
      });
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
  if (ingress_port >= 0) {
    ports_[ingress_port]->ingress_buffered += size;
    UpdatePfcOnEnqueue(ingress_port);
  }
  port.link->Send(std::move(packet), ingress_port);
}

void Switch::OnDequeue(int port_index, const Packet& packet,
                       int ingress_port) {
  // PFC frames are the port's own, never buffered bytes.
  if (packet.priority == Priority::kPause) return;
  const Bytes size = packet.bytes.size();
  ports_[port_index]->queued_bytes -= size;
  if (ingress_port >= 0) {
    ports_[ingress_port]->ingress_buffered -= size;
    UpdatePfcOnDequeue(ingress_port);
  }
  ++forwarded_;
}

void Switch::UpdatePfcOnEnqueue(int ingress_port) {
  if (!config_.pfc_enabled) return;
  Port& ingress = *ports_[ingress_port];
  if (ingress.ingress_buffered < config_.pfc_pause_threshold) return;
  // Assert (or refresh, if in-flight packets keep arriving) the pause. The
  // frame rides the top class: flow control must not sit behind the very
  // congestion it relieves.
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
  gauges_.Clear();
  gauges_.Register(
      registry, "switch_forwarded", labels,
      [this] { return static_cast<std::int64_t>(forwarded_); });
  gauges_.Register(
      registry, "switch_ecn_marked", labels,
      [this] { return static_cast<std::int64_t>(ecn_marked_); });
  gauges_.Register(
      registry, "switch_pfc_pauses_sent", labels,
      [this] { return static_cast<std::int64_t>(pfc_pauses_sent_); });
  gauges_.Register(
      registry, "switch_pfc_resumes_sent", labels,
      [this] { return static_cast<std::int64_t>(pfc_resumes_sent_); });
  gauges_.Register(
      registry, "switch_egress_drops", labels,
      [this] { return static_cast<std::int64_t>(total_drops()); });
  gauges_.Register(registry, "switch_queued_bytes", labels, [this] {
    Bytes total = 0;
    for (const auto& port : ports_) total += port->queued_bytes;
    return static_cast<std::int64_t>(total);
  });
  gauges_.Register(
      registry, "switch_queue_high_water_bytes", labels,
      [this] { return static_cast<std::int64_t>(queue_high_water_); });
}

}  // namespace cowbird::net
