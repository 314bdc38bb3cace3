#include "workload/cluster.h"

#include <utility>

#include "common/check.h"
#include "common/pool.h"
#include "offload/progress.h"
#include "rdma/congestion.h"

namespace cowbird::workload {
namespace {

constexpr BitRate kTrunkRate = BitRate::Gbps(400);
constexpr BitRate kBystanderRate = BitRate::Gbps(25);
constexpr int kMemoryCores = 8;

const char* HostName(ClusterSpec::Host kind) {
  switch (kind) {
    case ClusterSpec::Host::kMemory: return "memory";
    case ClusterSpec::Host::kSpot: return "spot";
    case ClusterSpec::Host::kBystander: return "bystander";
  }
  return "host";
}

net::TopoNodeKind NodeKind(ClusterSpec::Host kind) {
  switch (kind) {
    case ClusterSpec::Host::kMemory: return net::TopoNodeKind::kMemoryServer;
    case ClusterSpec::Host::kSpot: return net::TopoNodeKind::kSpotHost;
    case ClusterSpec::Host::kBystander:
      return net::TopoNodeKind::kBystanderHost;
  }
  return net::TopoNodeKind::kComputeHost;
}

int GroupOfClient(const ClusterSpec& spec, int k) {
  if (spec.client_groups <= 1) return 0;
  const int per_group =
      (spec.clients + spec.client_groups - 1) / spec.client_groups;
  return k / per_group;
}

Nanos OrDefault(Nanos propagation) {
  return propagation > 0 ? propagation : rdma::FabricParams{}.link_propagation;
}

const char* const kPoolNames[] = {"sim_events", "sim_timers"};

}  // namespace

net::Topology Cluster::PlanTopology(const ClusterSpec& spec) {
  COWBIRD_CHECK(spec.clients >= 1);
  net::Topology topo;
  for (int k = 0; k < spec.clients; ++k) {
    topo.AddNode(net::TopoNodeKind::kComputeHost,
                 "client" + std::to_string(k),
                 static_cast<net::NodeId>(1 + k));
  }
  const net::TopoNodeId tor = topo.AddNode(net::TopoNodeKind::kSwitch, "tor");
  int memories = 0;
  for (std::size_t i = 0; i < spec.hosts.size(); ++i) {
    const ClusterSpec::Host kind = spec.hosts[i];
    std::string name = HostName(kind);
    if (kind == ClusterSpec::Host::kMemory) name += std::to_string(memories++);
    topo.AddNode(NodeKind(kind), std::move(name),
                 static_cast<net::NodeId>(1 + spec.clients + i));
  }
  const bool two_tier = spec.client_groups > 1;
  if (two_tier) {
    for (int g = 0; g < spec.client_groups; ++g) {
      topo.AddNode(net::TopoNodeKind::kSwitch, "gtor" + std::to_string(g));
    }
  }
  const int first_gtor = tor + 1 + static_cast<int>(spec.hosts.size());
  for (int k = 0; k < spec.clients; ++k) {
    topo.AddEdge(k, two_tier ? first_gtor + GroupOfClient(spec, k) : tor,
                 OrDefault(spec.client_propagation));
  }
  for (std::size_t i = 0; i < spec.hosts.size(); ++i) {
    topo.AddEdge(tor + 1 + static_cast<int>(i), tor, OrDefault(0));
  }
  if (two_tier) {
    for (int g = 0; g < spec.client_groups; ++g) {
      topo.AddEdge(first_gtor + g, tor, OrDefault(spec.trunk_propagation));
    }
  }
  switch (spec.split) {
    case ClusterSpec::Split::kSerial:
      topo.GroupAll(0);
      break;
    case ClusterSpec::Split::kPair:
      for (net::TopoNodeId n = 0; n < topo.node_count(); ++n) {
        topo.SetGroup(n, n < spec.clients ? 0 : 1);
      }
      break;
    case ClusterSpec::Split::kPerNode:
      break;
    case ClusterSpec::Split::kPacked:
      COWBIRD_CHECK(static_cast<int>(spec.pack_groups.size()) ==
                    topo.node_count());
      for (net::TopoNodeId n = 0; n < topo.node_count(); ++n) {
        topo.SetGroup(n, spec.pack_groups[static_cast<std::size_t>(n)]);
      }
      break;
  }
  return topo;
}

std::vector<int> Cluster::PackGroups(net::Topology topo,
                                     const std::vector<std::uint64_t>& rates,
                                     int budget) {
  net::PackDomains(topo, rates, budget);
  std::vector<int> groups(static_cast<std::size_t>(topo.node_count()));
  for (net::TopoNodeId n = 0; n < topo.node_count(); ++n) {
    groups[static_cast<std::size_t>(n)] = topo.node(n).group;
  }
  return groups;
}

Cluster::Cluster(ClusterSpec spec, telemetry::Hub* hub)
    : spec_(std::move(spec)),
      hub_(hub),
      topo_(PlanTopology(spec_)),
      partition_(net::PartitionTopology(topo_)),
      // Every domain is registered before ConnectTo: SetDestination reads
      // domain ids to recognize a cut and record its lookahead.
      domains_(sim, partition_, spec_.workers) {
  COWBIRD_CHECK(!partition_.zero_lookahead_error().has_value());
  if (sim::DomainGroup* g = group()) {
    g->set_horizon_policy(spec_.horizon_policy);
  }

  core_ =
      std::make_unique<net::Switch>(sim_for(switch_node()), spec_.switches);
  // Group ToRs are built and trunked before any host connects, so each
  // switch numbers its host ports exactly as the flat fabric does.
  const int leaves = spec_.client_groups > 1 ? spec_.client_groups : 0;
  for (int g = 0; g < leaves; ++g) {
    Leaf leaf;
    leaf.sw = std::make_unique<net::Switch>(sim_for(group_tor_node(g)),
                                            spec_.switches);
    leaf.trunk = net::ConnectTrunk(
        *core_, *leaf.sw, kTrunkRate, OrDefault(spec_.trunk_propagation),
        topo_.node(switch_node()).name, topo_.node(group_tor_node(g)).name);
    // Leaves default-route everything unknown up their trunk; the core
    // routes each client block down the matching trunk.
    leaf.sw->SetDefaultRoute(leaf.trunk.b_port);
    leaves_.push_back(std::move(leaf));
  }

  const rdma::FabricParams fabric;
  for (int k = 0; k < spec_.clients; ++k) {
    auto host = std::make_unique<ClusterHost>(
        sim_for(k), static_cast<net::NodeId>(1 + k), spec_.client_uplink,
        OrDefault(spec_.client_propagation));
    host->node = k;
    host->machine.emplace(sim_for(k), spec_.client_cores);
    if (spec_.client_groups > 1) {
      const int g = group_of_client(k);
      host->attach_node = group_tor_node(g);
      host->attach = leaves_[Index(g)].sw.get();
      core_->SetRoute(host->id(), leaves_[Index(g)].trunk.a_port);
    } else {
      host->attach_node = switch_node();
      host->attach = core_.get();
    }
    clients_.push_back(host.get());
    hosts_.push_back(std::move(host));
  }
  for (std::size_t i = 0; i < spec_.hosts.size(); ++i) {
    const ClusterSpec::Host kind = spec_.hosts[i];
    const net::TopoNodeId node = switch_node() + 1 + static_cast<int>(i);
    auto host = std::make_unique<ClusterHost>(
        sim_for(node), static_cast<net::NodeId>(1 + spec_.clients + i),
        kind == ClusterSpec::Host::kBystander ? kBystanderRate
                                              : fabric.host_link,
        fabric.link_propagation);
    host->node = node;
    host->attach_node = switch_node();
    host->attach = core_.get();
    switch (kind) {
      case ClusterSpec::Host::kMemory:
        host->machine.emplace(sim_for(node), kMemoryCores);
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
    host->nic.ConnectTo(*host->attach, topo_.node(host->node).name,
                        topo_.node(host->attach_node).name);
  }
  if (hub_ != nullptr) BindTelemetry();
}

Cluster::~Cluster() {
  if (hub_ == nullptr) return;
  for (const auto& unbind : unbind_) unbind();
  // The run's loops die with the cluster but the caller keeps the hub.
  hub_->tracer.SetClock([now = sim.Now()] { return now; });
}

void Cluster::BindTelemetry() {
  hub_->tracer.SetClock([this] { return sim.Now(); });
  const int domains = partition_.domain_count();
  shards_.Reset(hub_, domains, [this](int d) {
    return telemetry::Clock([loop = &domain_sim(d)] { return loop->Now(); });
  });
  // Binds `x` in the shard of the domain owning `node`; the destructor
  // unbinds it.
  auto bind = [this](auto& x, net::TopoNodeId node, telemetry::Labels labels) {
    x.BindTelemetry(HubFor(node)->metrics, std::move(labels));
    unbind_.push_back([&x] { x.UnbindTelemetry(); });
  };
  for (auto& host : hosts_) {
    const std::string& name = topo_.node(host->node).name;
    if (host->dev) bind(*host->dev, host->node, {{"node", name}});
    // Link counters mutate on the delivery side: the uplink delivers into
    // its switch's domain, the egress link into the host's.
    net::Link& up = host->nic.uplink();
    net::Link& down = host->attach->EgressLink(host->nic.switch_port());
    bind(up, host->attach_node, {{"link", up.name()}});
    bind(down, host->node, {{"link", down.name()}});
  }
  bind(*core_, switch_node(), {{"switch", topo_.node(switch_node()).name}});
  for (int g = 0; g < static_cast<int>(leaves_.size()); ++g) {
    Leaf& leaf = leaves_[Index(g)];
    const net::TopoNodeId tor = group_tor_node(g);
    bind(*leaf.sw, tor, {{"switch", topo_.node(tor).name}});
    net::Link& down = core_->EgressLink(leaf.trunk.a_port);
    net::Link& up = leaf.sw->EgressLink(leaf.trunk.b_port);
    bind(down, tor, {{"link", down.name()}});
    bind(up, switch_node(), {{"link", up.name()}});
  }
  sim::DomainGroup* const g = group();
  for (int d = 0; d < domains; ++d) {
    telemetry::MetricRegistry& registry = shards_.ForDomain(d)->metrics;
    const std::string domain = std::to_string(d);
    // Datapath object pools: a mis-sized pool shows up as exhaustion instead
    // of silently degrading to the heap.
    const PoolStats* stats[] = {&domain_sim(d).EventPoolStats(),
                                &domain_sim(d).TimerPoolStats()};
    for (int p = 0; p < 2; ++p) {
      const telemetry::Labels labels{{"domain", domain},
                                     {"pool", kPoolNames[p]}};
      BindPoolTelemetry(registry, labels, *stats[p]);
      unbind_.push_back(
          [&registry, labels] { UnbindPoolTelemetry(registry, labels); });
    }
    if (g == nullptr) continue;
    // Debug builds pin each registry to its domain's worker thread.
    g->SetDomainStartHook(d, [&registry] { registry.BindToCurrentThread(); });
    // Epoch accounting per domain. epochs_total / epochs_skipped are
    // deterministic; the barrier wait is wall-clock, and its `_wall` suffix
    // exempts it from cross-run snapshot comparisons.
    const telemetry::Labels labels{{"domain", domain}};
    registry.RegisterCallbackGauge("sim_epochs_total", labels, [g, d] {
      return static_cast<std::int64_t>(g->epochs_total(d));
    });
    registry.RegisterCallbackGauge("sim_epochs_skipped", labels, [g, d] {
      return static_cast<std::int64_t>(g->epochs_skipped(d));
    });
    registry.RegisterCallbackGauge("sim_barrier_wait_ns_wall", labels, [g, d] {
      return static_cast<std::int64_t>(g->barrier_wait_ns(d));
    });
    unbind_.push_back([&registry, labels] {
      for (const char* name : {"sim_epochs_total", "sim_epochs_skipped",
                               "sim_barrier_wait_ns_wall"}) {
        registry.UnregisterCallbackGauge(name, labels);
      }
    });
  }
}

telemetry::Snapshot Cluster::MergedSnapshot() {
  if (hub_ == nullptr) return {};
  telemetry::Snapshot snapshot = hub_->metrics.TakeSnapshot();
  shards_.MergeInto(snapshot);
  return snapshot;
}

int Cluster::group_of_client(int k) const { return GroupOfClient(spec_, k); }

ClusterHost& Cluster::client_at(net::NodeId address) {
  const int k = static_cast<int>(address) - 1;
  COWBIRD_CHECK(k >= 0 && k < spec_.clients);
  return client(k);
}

FabricCounters Cluster::Counters() const {
  FabricCounters c;
  auto add_switch = [&c](const net::Switch& s) {
    c.switch_drops += s.total_drops();
    c.ecn_marked += s.ecn_marked();
    c.pfc_pauses += s.pfc_pauses_sent();
  };
  add_switch(*core_);
  for (const Leaf& leaf : leaves_) add_switch(*leaf.sw);
  for (const auto& host : hosts_) {
    c.link_pauses += host->nic.uplink().pauses_received() +
                     host->attach->EgressLink(host->nic.switch_port())
                         .pauses_received();
    if (!host->dev) continue;
    c.retransmissions += host->dev->total_retransmissions();
    if (const rdma::CongestionManager* cm = host->dev->congestion()) {
      c.cnps += cm->cnps_received();
    }
  }
  return c;
}

std::uint64_t Cluster::EpochsSkipped() const {
  std::uint64_t total = 0;
  if (const sim::DomainGroup* g = group()) {
    for (int d = 0; d < partition_.domain_count(); ++d) {
      total += g->epochs_skipped(d);
    }
  }
  return total;
}

core::CowbirdClient& Cluster::AddClient(int k,
                                        core::CowbirdClient::Config config) {
  config.telemetry = HubFor(client(k).node);
  cowbird_clients_.push_back(
      std::make_unique<core::CowbirdClient>(*client(k).dev, config));
  return *cowbird_clients_.back();
}

spot::SpotAgent& Cluster::AddSpotAgent(spot::SpotAgent::Config config) {
  config.telemetry = HubFor(spot().node);
  spot_machines_.push_back(
      std::make_unique<sim::Machine>(sim_for(spot().node), 1));
  agents_.push_back(std::make_unique<spot::SpotAgent>(
      *spot().dev, *spot_machines_.back(), config));
  return *agents_.back();
}

p4::CowbirdP4Engine& Cluster::AddP4Engine(p4::CowbirdP4Engine::Config config) {
  COWBIRD_CHECK(p4_ == nullptr);
  config.telemetry = HubFor(switch_node());
  p4_switch_id_ = config.switch_node_id;
  p4_ = std::make_unique<p4::CowbirdP4Engine>(*core_, config);
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
