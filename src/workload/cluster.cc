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

  for (int k = 0; k < spec_.clients; ++k) {
    auto host = std::make_unique<ClusterHost>(
        sim, "client" + std::to_string(k), static_cast<net::NodeId>(1 + k),
        spec_.client_uplink, kLinkPropagation);
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
                                              : kHostLinkRate,
        kLinkPropagation);
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
  // The run's loop dies with the cluster but the caller keeps the hub.
  if (hub_ != nullptr) hub_->tracer.SetClock([now = sim.Now()] { return now; });
}

void Cluster::BindTelemetry() {
  hub_->tracer.SetClock([this] { return sim.Now(); });
  telemetry::MetricRegistry& registry = hub_->metrics;
  for (auto& host : hosts_) {
    if (host->dev) host->dev->BindTelemetry(registry, {{"node", host->name}});
    net::Link& up = host->nic.uplink();
    net::Link& down = switch_->EgressLink(host->nic.switch_port());
    up.BindTelemetry(registry, {{"link", up.name()}});
    down.BindTelemetry(registry, {{"link", down.name()}});
  }
  switch_->BindTelemetry(registry, {{"switch", kSwitchName}});
  // Datapath object pools: a mis-sized pool shows up as exhaustion instead
  // of silently degrading to the heap.
  const PoolStats* stats[] = {&sim.EventPoolStats(), &sim.TimerPoolStats()};
  for (int p = 0; p < 2; ++p) {
    BindPoolTelemetry(pool_gauges_, registry,
                      telemetry::Labels{{"pool", kPoolNames[p]}}, *stats[p]);
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
    if (const std::uint64_t n = host->dev->total_retransmissions()) {
      c.retransmissions += n;
      c.retransmissions_by_node.emplace_back(host->name, n);
    }
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
      *spot().dev, *spot_machines_.back(), static_cast<int>(agents_.size()),
      config));
  return *agents_.back();
}

p4::CowbirdP4Engine& Cluster::AddP4Engine(p4::CowbirdP4Engine::Config config) {
  COWBIRD_CHECK(p4_ == nullptr);
  config.telemetry = hub_;
  p4_ = std::make_unique<p4::CowbirdP4Engine>(*switch_, config);
  return *p4_;
}

std::vector<rdma::Device*> Cluster::MemoryDevices(
    const std::vector<int>& memories) {
  std::vector<rdma::Device*> devices;
  if (memories.empty()) {
    for (ClusterHost* host : memories_) devices.push_back(&*host->dev);
  }
  for (const int m : memories) devices.push_back(&*memory(m).dev);
  return devices;
}

std::vector<core::RedBlock> Cluster::PublishedProgress(
    const core::CowbirdClient& client) {
  const core::InstanceLayout& layout = client.descriptor().layout;
  SparseMemory& mem = client_at(client.descriptor().compute_node).mem;
  std::vector<core::RedBlock> published;
  std::uint8_t block[core::kRedBlockBytes];
  for (int t = 0; t < layout.threads; ++t) {
    mem.Read(layout.RedAddr(t), block);
    published.push_back(core::RedBlock::Unpack(block));
  }
  return published;
}

void Cluster::Attach(Engine engine, const core::CowbirdClient& client,
                     const std::vector<int>& memories,
                     const offload::InstanceProgress* resume) {
  offload::InstanceProgress reconciled;
  if (resume != nullptr) {
    // Red writes on the wire at export time may have landed since: the
    // client's published red block is the floor to resume from.
    reconciled = *resume;
    offload::ReconcileWithPublished(reconciled, PublishedProgress(client));
    resume = &reconciled;
  }
  const std::vector<rdma::Device*> devices = MemoryDevices(memories);
  rdma::Device& compute = *client_at(client.descriptor().compute_node).dev;
  if (engine.agent == nullptr) {
    const p4::P4Connection conn =
        p4::ConnectP4Engine(compute, devices, p4_next_qpn_);
    p4_next_qpn_ += 0x20;
    p4_->AddInstance(client.descriptor(), conn, resume);
    return;
  }
  const spot::SpotConnection conn =
      spot::ConnectSpotEngine(*spot().dev, compute, devices);
  engine.agent->AddInstance(client.descriptor(), conn, resume);
  spot_conns_[{engine.agent, client.descriptor().instance_id}] = conn;
}

std::optional<offload::InstanceProgress> Cluster::Detach(
    Engine engine, const core::CowbirdClient& client, bool halt) {
  const std::uint32_t id = client.descriptor().instance_id;
  if (engine.agent == nullptr) {
    // The engine's counters only cover completed work and its pipeline
    // state dies with the instance entry, so the export is crash-safe
    // as-is; packets already on the wire land harmlessly (idempotent
    // re-execution, Section 5.3).
    auto snapshot = p4_->ExportProgress(id);
    p4_->RemoveInstance(id);
    return snapshot;
  }
  auto snapshot = engine.agent->ExportProgress(id);
  engine.agent->RemoveInstance(id);
  const auto it = spot_conns_.find({engine.agent, id});
  COWBIRD_CHECK(it != spot_conns_.end());
  if (halt) {
    it->second.compute.qp->Halt();
    for (const spot::SpotConnection::Path& path : it->second.memory) {
      path.qp->Halt();
    }
  }
  spot_conns_.erase(it);
  return snapshot;
}

}  // namespace cowbird::workload
