#include "workload/cluster.h"

#include <utility>

#include "common/check.h"
#include "common/pool.h"
#include "offload/progress.h"
#include "rdma/congestion.h"

namespace cowbird::workload {
namespace {

constexpr BitRate kBystanderRate = BitRate::Gbps(25);
constexpr int kMemoryCores = 8;
// The switch's label in telemetry (the top-of-rack switch).
constexpr const char* kSwitchName = "tor";

const char* HostName(ClusterSpec::Host kind) {
  switch (kind) {
    case ClusterSpec::Host::kMemory: return "memory";
    case ClusterSpec::Host::kSpot: return "spot";
    case ClusterSpec::Host::kBystander: return "bystander";
  }
  return "host";
}

const char* const kPoolNames[] = {"sim_events", "sim_timers"};

}  // namespace

Cluster::Cluster(ClusterSpec spec, telemetry::Hub* hub)
    : spec_(std::move(spec)), hub_(hub) {
  COWBIRD_CHECK(spec_.clients >= 1);
  switch_ = std::make_unique<net::Switch>(sim, spec_.switches);

  const rdma::FabricParams fabric;
  for (int k = 0; k < spec_.clients; ++k) {
    auto host = std::make_unique<ClusterHost>(
        sim, "client" + std::to_string(k), static_cast<net::NodeId>(1 + k),
        spec_.client_uplink, fabric.link_propagation);
    host->machine.emplace(sim, spec_.client_cores);
    clients_.push_back(host.get());
    hosts_.push_back(std::move(host));
  }
  int memories = 0;
  for (std::size_t i = 0; i < spec_.hosts.size(); ++i) {
    const ClusterSpec::Host kind = spec_.hosts[i];
    std::string name = HostName(kind);
    if (kind == ClusterSpec::Host::kMemory) name += std::to_string(memories++);
    auto host = std::make_unique<ClusterHost>(
        sim, std::move(name), static_cast<net::NodeId>(1 + spec_.clients + i),
        kind == ClusterSpec::Host::kBystander ? kBystanderRate
                                              : fabric.host_link,
        fabric.link_propagation);
    switch (kind) {
      case ClusterSpec::Host::kMemory:
        host->machine.emplace(sim, kMemoryCores);
        memories_.push_back(host.get());
        break;
      case ClusterSpec::Host::kSpot:
        COWBIRD_CHECK(spot_ == nullptr);
        spot_ = host.get();
        break;
      case ClusterSpec::Host::kBystander:
        COWBIRD_CHECK(bystander_ == nullptr);
        bystander_ = host.get();
        break;
    }
    hosts_.push_back(std::move(host));
  }
  for (auto& host : hosts_) {
    if (host.get() != bystander_) {
      host->dev.emplace(host->nic, host->mem, spec_.nic);
    }
    host->nic.ConnectTo(*switch_, host->name);
  }
  if (hub_ != nullptr) BindTelemetry();
}

Cluster::~Cluster() {
  if (hub_ == nullptr) return;
  for (const auto& unbind : unbind_) unbind();
  // The run's loop dies with the cluster but the caller keeps the hub.
  hub_->tracer.SetClock([now = sim.Now()] { return now; });
}

void Cluster::BindTelemetry() {
  hub_->tracer.SetClock([this] { return sim.Now(); });
  telemetry::MetricRegistry& registry = hub_->metrics;
  // Binds `x` in the hub; the destructor unbinds it.
  auto bind = [this, &registry](auto& x, telemetry::Labels labels) {
    x.BindTelemetry(registry, std::move(labels));
    unbind_.push_back([&x] { x.UnbindTelemetry(); });
  };
  for (auto& host : hosts_) {
    if (host->dev) bind(*host->dev, {{"node", host->name}});
    net::Link& up = host->nic.uplink();
    net::Link& down = switch_->EgressLink(host->nic.switch_port());
    bind(up, {{"link", up.name()}});
    bind(down, {{"link", down.name()}});
  }
  bind(*switch_, {{"switch", kSwitchName}});
  // Datapath object pools: a mis-sized pool shows up as exhaustion instead
  // of silently degrading to the heap.
  const PoolStats* stats[] = {&sim.EventPoolStats(), &sim.TimerPoolStats()};
  for (int p = 0; p < 2; ++p) {
    const telemetry::Labels labels{{"pool", kPoolNames[p]}};
    BindPoolTelemetry(registry, labels, *stats[p]);
    unbind_.push_back(
        [&registry, labels] { UnbindPoolTelemetry(registry, labels); });
  }
}

telemetry::Snapshot Cluster::TakeSnapshot() const {
  return hub_ != nullptr ? hub_->metrics.TakeSnapshot() : telemetry::Snapshot{};
}

ClusterHost& Cluster::client_at(net::NodeId address) {
  const int k = static_cast<int>(address) - 1;
  COWBIRD_CHECK(k >= 0 && k < spec_.clients);
  return client(k);
}

FabricCounters Cluster::Counters() const {
  FabricCounters c;
  c.switch_drops = switch_->total_drops();
  c.ecn_marked = switch_->ecn_marked();
  c.pfc_pauses = switch_->pfc_pauses_sent();
  for (const auto& host : hosts_) {
    c.link_pauses += host->nic.uplink().pauses_received() +
                     switch_->EgressLink(host->nic.switch_port())
                         .pauses_received();
    if (!host->dev) continue;
    c.retransmissions += host->dev->total_retransmissions();
    if (const rdma::CongestionManager* cm = host->dev->congestion()) {
      c.cnps += cm->cnps_received();
    }
  }
  return c;
}

core::CowbirdClient& Cluster::AddClient(int k,
                                        core::CowbirdClient::Config config) {
  config.telemetry = hub_;
  cowbird_clients_.push_back(
      std::make_unique<core::CowbirdClient>(*client(k).dev, config));
  return *cowbird_clients_.back();
}

spot::SpotAgent& Cluster::AddSpotAgent(spot::SpotAgent::Config config) {
  config.telemetry = hub_;
  spot_machines_.push_back(std::make_unique<sim::Machine>(sim, 1));
  agents_.push_back(std::make_unique<spot::SpotAgent>(
      *spot().dev, *spot_machines_.back(), config));
  return *agents_.back();
}

p4::CowbirdP4Engine& Cluster::AddP4Engine(p4::CowbirdP4Engine::Config config) {
  COWBIRD_CHECK(p4_ == nullptr);
  config.telemetry = hub_;
  p4_switch_id_ = config.switch_node_id;
  p4_ = std::make_unique<p4::CowbirdP4Engine>(*switch_, config);
  return *p4_;
}

std::vector<rdma::Device*> Cluster::MemoryDevices(
    const std::vector<int>& memories) {
  std::vector<rdma::Device*> devices;
  for (const int m : memories) devices.push_back(&*memory(m).dev);
  return devices;
}

spot::SpotConnection Cluster::AttachSpot(
    spot::SpotAgent& agent, const core::CowbirdClient& client,
    const std::vector<int>& memories,
    const offload::InstanceProgress* resume) {
  const std::vector<rdma::Device*> devices = MemoryDevices(memories);
  spot::SpotConnection conn = spot::ConnectSpotEngine(
      *spot().dev, *client_at(client.descriptor().compute_node).dev, devices);
  agent.AddInstance(client.descriptor(), conn.to_compute, conn.compute_cq,
                    conn.to_memory, conn.memory_cqs, resume);
  return conn;
}

void Cluster::AttachP4(const core::CowbirdClient& client,
                       std::uint32_t qpn_base,
                       const std::vector<int>& memories,
                       const offload::InstanceProgress* resume) {
  const std::vector<rdma::Device*> devices = MemoryDevices(memories);
  const p4::P4Connection conn = p4::ConnectP4Engine(
      *p4_, p4_switch_id_, *client_at(client.descriptor().compute_node).dev,
      devices, qpn_base);
  p4_->AddInstance(client.descriptor(), conn, resume);
}

core::CowbirdClient* Cluster::FindClient(std::uint32_t instance_id) {
  for (auto& client : cowbird_clients_) {
    if (client->descriptor().instance_id == instance_id) return client.get();
  }
  return nullptr;
}

std::vector<int> Cluster::AllMemories() const {
  std::vector<int> all(memories_.size());
  for (std::size_t m = 0; m < all.size(); ++m) all[m] = static_cast<int>(m);
  return all;
}

offload::EngineBinding Cluster::SpotBinding(spot::SpotAgent& agent,
                                            std::string name, Detach detach) {
  offload::EngineBinding binding;
  binding.name = std::move(name);
  binding.attach = [this, &agent, detach](
                       std::uint32_t instance_id,
                       const offload::InstanceProgress* resume) {
    const core::CowbirdClient* client = FindClient(instance_id);
    if (client == nullptr) return false;
    offload::InstanceProgress reconciled;
    if (detach == Detach::kCrash && resume != nullptr) {
      // Red writes on the wire at export time may have landed since: the
      // client's published red block is the floor to resume from.
      const core::InstanceLayout& layout = client->descriptor().layout;
      SparseMemory& mem = client_at(client->descriptor().compute_node).mem;
      std::vector<offload::ThreadProgress> published;
      std::vector<std::uint8_t> block(core::kRedBlockBytes);
      for (int t = 0; t < layout.threads; ++t) {
        mem.Read(layout.RedAddr(t), block);
        published.push_back(offload::ProgressPublisher::Unpack(block));
      }
      reconciled = *resume;
      offload::ReconcileWithPublished(reconciled, published);
      resume = &reconciled;
    }
    const spot::SpotConnection conn =
        AttachSpot(agent, *client, AllMemories(), resume);
    if (detach == Detach::kCrash) spot_conns_[{&agent, instance_id}] = conn;
    return true;
  };
  binding.detach = [this, &agent](std::uint32_t instance_id) {
    auto snapshot = agent.ExportProgress(instance_id);
    agent.RemoveInstance(instance_id);
    // Crash attaches recorded their QPs: halt them mid-flight.
    auto it = spot_conns_.find({&agent, instance_id});
    if (it != spot_conns_.end()) {
      it->second.to_compute->Halt();
      for (auto& [node, qp] : it->second.to_memory) qp->Halt();
      spot_conns_.erase(it);
    }
    return snapshot;
  };
  return binding;
}

offload::EngineBinding Cluster::P4Binding() {
  offload::EngineBinding binding;
  binding.name = "p4";
  binding.attach = [this](std::uint32_t instance_id,
                          const offload::InstanceProgress* resume) {
    const core::CowbirdClient* client = FindClient(instance_id);
    if (client == nullptr) return false;
    const std::uint32_t qpn_base = p4_next_qpn_;
    p4_next_qpn_ += 0x40;
    AttachP4(*client, qpn_base, AllMemories(), resume);
    return true;
  };
  // The engine's counters only cover completed work and its in-flight
  // pipeline state dies with the instance entry, so the export is crash-safe
  // as-is; packets already on the wire land harmlessly (idempotent
  // re-execution, Section 5.3).
  binding.detach = [this](std::uint32_t instance_id) {
    auto snapshot = p4_->ExportProgress(instance_id);
    p4_->RemoveInstance(instance_id);
    return snapshot;
  };
  return binding;
}

}  // namespace cowbird::workload
