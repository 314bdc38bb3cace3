// The one cluster builder behind every harness.
//
// The evaluation (Section 7) always runs one shape: compute clients, memory
// servers and a spot host behind a switch. A ClusterSpec says which hosts,
// in which order, with which switch/NIC profile and PDES partition; Cluster
// builds it and owns everything the harnesses used to wire by hand:
//
//   * construction order. Hosts get fabric addresses, switch ports and
//     topology nodes in spec order (clients first, then the core switch,
//     then the other hosts, then two-tier group ToRs), which is what keeps
//     every simulated outcome of a given shape byte-identical run to run;
//   * telemetry. With a hub, every device, link (bound to the domain that
//     delivers on it), switch and event pool is bound to its domain's
//     telemetry::HubShards shard, the tracer clock is re-seated onto the run
//     and frozen at teardown, and MergedSnapshot() folds the shards back;
//   * engine attach. Clients and engines are built here, so each binds its
//     telemetry to the right shard; AttachSpot/AttachP4 (and the registry
//     bindings built on them) are the one place that runs
//     ConnectSpotEngine/ConnectP4Engine + AddInstance;
//   * teardown order. Shards outlive the engines and clients that register
//     gauges in them, and every gauge the cluster bound is unbound before
//     the object behind it is destroyed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/sparse_memory.h"
#include "core/client.h"
#include "net/switch.h"
#include "net/topology.h"
#include "offload/registry.h"
#include "p4/engine.h"
#include "rdma/device.h"
#include "rdma/params.h"
#include "sim/parallel.h"
#include "sim/simulation.h"
#include "sim/thread.h"
#include "spot/agent.h"
#include "spot/setup.h"
#include "telemetry/hub.h"

namespace cowbird::workload {

// The rack-shape knobs ScaleWorkloadConfig shares with ClusterSpec: both
// derive from it, so the rack harness hands them over in one assignment.
struct RackShape {
  // Two-tier fabric: > 1 spreads the clients over this many group ToRs
  // (contiguous blocks of ceil(clients/groups)), each trunked into the core.
  int client_groups = 1;
  // Client-uplink propagation; 0 keeps the fabric's link_propagation. Short
  // in-rack DACs (tens of ns) make the lookahead graph heterogeneous, which
  // is where per-edge horizons pull away from the global min.
  Nanos client_propagation = 0;
  // ToR <-> core trunk propagation; 0 keeps the fabric's link_propagation.
  // Hall-scale optical runs are an order of magnitude longer than in-rack
  // DACs; the wider the trunk lookahead, the coarser the per-edge epoch
  // steps each client group can take independently of the core.
  Nanos trunk_propagation = 0;
  // Split only: the epoch-horizon policy. kPerEdge computes per-domain LBTS
  // horizons at each barrier; kGlobalMin is the single min-lookahead
  // horizon, kept for A/B epoch accounting. Outcomes are policy-invariant;
  // only epoch counts move.
  sim::HorizonPolicy horizon_policy = sim::HorizonPolicy::kPerEdge;
};

struct ClusterSpec : RackShape {
  // Hosts after the clients, attached to the core switch in this order. A
  // memory server gets 8 cores; the spot host gets one 1-core machine per
  // agent (Cluster::AddSpotAgent); the bystander is a bare 25 Gbps NIC for
  // contending flows (Figure 14).
  enum class Host { kMemory, kSpot, kBystander };
  // kPair cuts the clients off from everything else (two domains); kPacked
  // takes one partition group per topology node from `pack_groups`.
  enum class Split { kSerial, kPair, kPerNode, kPacked };

  int clients = 1;
  int client_cores = 16;
  BitRate client_uplink = BitRate::Gbps(100);
  std::vector<Host> hosts = {Host::kMemory, Host::kSpot};
  // Every switch's queues, ECN and PFC, and every NIC's Go-Back-N and DCQCN.
  net::Switch::Config switches{
      .pipeline_latency = rdma::FabricParams{}.switch_pipeline};
  rdma::NicConfig nic;
  Split split = Split::kSerial;
  std::vector<int> pack_groups;
  int workers = 0;  // split only; 0 → hardware concurrency
};

// One host: its NIC on the owning domain's loop, its memory, and (except on
// the bystander) its RDMA device and machine.
struct ClusterHost {
  ClusterHost(sim::Simulation& sim, net::NodeId address, BitRate rate,
              Nanos propagation)
      : nic(sim, address, rate, propagation) {}

  net::TopoNodeId node = 0;
  net::TopoNodeId attach_node = 0;  // the switch node the NIC hangs off
  net::Switch* attach = nullptr;
  net::HostNic nic;
  SparseMemory mem;
  std::optional<rdma::Device> dev;
  std::optional<sim::Machine> machine;  // clients and memory servers

  net::NodeId id() const { return nic.id(); }
};

// Fabric-wide congestion counters, whole run (switch ones across the core
// and any group ToRs; NIC ones across every device).
struct FabricCounters {
  std::uint64_t switch_drops = 0;
  std::uint64_t ecn_marked = 0;
  std::uint64_t pfc_pauses = 0;
  std::uint64_t link_pauses = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t cnps = 0;
};

class Cluster {
 public:
  // The root loop: client 0's domain (everything when serial).
  sim::Simulation sim;

  // `hub` may be null (telemetry off). The caller keeps the hub; the cluster
  // leaves it with no gauge pointing into the run and a frozen clock.
  explicit Cluster(ClusterSpec spec, telemetry::Hub* hub = nullptr);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // The topology a spec builds, before anything exists: what a caller packs
  // (net::PackDomains) into ClusterSpec::pack_groups.
  static net::Topology PlanTopology(const ClusterSpec& spec);
  // One partition group per node of a packed copy of `topo`.
  static std::vector<int> PackGroups(net::Topology topo,
                                     const std::vector<std::uint64_t>& rates,
                                     int budget);

  // ---- hosts -------------------------------------------------------------
  ClusterHost& client(int k) { return *clients_[Index(k)]; }
  ClusterHost& memory(int m) { return *memories_[Index(m)]; }
  ClusterHost& spot() { return *spot_; }
  ClusterHost& bystander() { return *bystander_; }
  // The client host whose fabric address is `address`.
  ClusterHost& client_at(net::NodeId address);

  // ---- fabric ------------------------------------------------------------
  net::Switch& sw() { return *core_; }
  net::Switch& group_tor(int g) { return *leaves_[Index(g)].sw; }
  const net::TrunkPorts& trunk(int g) const { return leaves_[Index(g)].trunk; }
  int group_of_client(int k) const;
  net::TopoNodeId switch_node() const { return spec_.clients; }
  net::TopoNodeId group_tor_node(int g) const {
    return spec_.clients + 1 + static_cast<int>(spec_.hosts.size()) + g;
  }
  const net::Topology& topology() const { return topo_; }
  const net::Partition& partition() const { return partition_; }
  FabricCounters Counters() const;

  // ---- event loops -------------------------------------------------------
  sim::Simulation& sim_for(net::TopoNodeId node) {
    return domains_.sim_for(node);
  }
  sim::Simulation& domain_sim(int domain) {
    return domains_.domain_sim(domain);
  }
  sim::DomainGroup* group() const { return domains_.group(); }
  bool split() const { return group() != nullptr; }
  // Runs an event on every domain at `when`: a global event between epochs
  // when split (all domains quiescent at `when`), a root event otherwise.
  template <typename F>
  void ScheduleGlobal(Nanos when, F&& fn) {
    if (sim::DomainGroup* g = group()) {
      g->ScheduleGlobal(when, std::forward<F>(fn));
    } else {
      sim.ScheduleAt(when, std::forward<F>(fn));
    }
  }
  void Run() { domains_.Run(); }
  void RunFor(Nanos duration) { domains_.RunFor(duration); }
  Nanos Now() const { return domains_.Now(); }
  std::uint64_t EventsProcessed() const { return domains_.EventsProcessed(); }
  // Sum of per-domain epochs sat out (0 when serial).
  std::uint64_t EpochsSkipped() const;

  // ---- telemetry ---------------------------------------------------------
  // The caller's hub snapshot with every shard folded in (shard tracers
  // merge into the hub's tracer). Call once, after the run.
  telemetry::Snapshot MergedSnapshot();

  // ---- clients and engines -----------------------------------------------
  // A Cowbird client on client host `k`, instrumented on that host's shard.
  core::CowbirdClient& AddClient(int k, core::CowbirdClient::Config config);
  // A spot agent on a fresh 1-core machine of the spot host.
  spot::SpotAgent& AddSpotAgent(spot::SpotAgent::Config config);
  // The P4 engine, installed as the core switch's processor.
  p4::CowbirdP4Engine& AddP4Engine(p4::CowbirdP4Engine::Config config);
  p4::CowbirdP4Engine& p4() { return *p4_; }

  // Phase I: connects `client`'s instance to an engine through memory
  // servers `memories` (indices), then adds it, resuming from `resume`.
  spot::SpotConnection AttachSpot(
      spot::SpotAgent& agent, const core::CowbirdClient& client,
      const std::vector<int>& memories = {0},
      const offload::InstanceProgress* resume = nullptr);
  void AttachP4(const core::CowbirdClient& client, std::uint32_t qpn_base,
                const std::vector<int>& memories = {0},
                const offload::InstanceProgress* resume = nullptr);

  // Registry hooks for one engine over every memory server. A graceful
  // spot detach exports and removes the instance; a crash detach also halts
  // the engine's QPs mid-flight (no zombie retransmissions), and its attach
  // reconciles a resume snapshot with the client's published red block.
  // Every P4 attach takes a fresh QPN block starting at 0x800, so a
  // re-attach never collides with the QPs an earlier one left behind.
  enum class Detach { kGraceful, kCrash };
  offload::EngineBinding SpotBinding(spot::SpotAgent& agent, std::string name,
                                     Detach detach = Detach::kGraceful);
  offload::EngineBinding P4Binding();

 private:
  struct Leaf {
    std::unique_ptr<net::Switch> sw;
    net::TrunkPorts trunk;
  };

  static std::size_t Index(int i) { return static_cast<std::size_t>(i); }
  // The shard of the domain that owns `node` (null when telemetry is off).
  telemetry::Hub* HubFor(net::TopoNodeId node) {
    return shards_.ForDomain(partition_.domain_of(node));
  }
  std::vector<rdma::Device*> MemoryDevices(const std::vector<int>& memories);
  std::vector<int> AllMemories() const;
  core::CowbirdClient* FindClient(std::uint32_t instance_id);
  void BindTelemetry();

  ClusterSpec spec_;
  telemetry::Hub* hub_;
  net::Topology topo_;
  net::Partition partition_;
  net::FabricDomains domains_;
  // Declared before everything that registers gauges in a shard, so the
  // shards outlive them all.
  telemetry::HubShards shards_;
  // One entry per binding BindTelemetry made; the destructor runs them all
  // while every bound object is still alive.
  std::vector<std::function<void()>> unbind_;
  std::unique_ptr<net::Switch> core_;
  std::vector<Leaf> leaves_;
  std::vector<std::unique_ptr<ClusterHost>> hosts_;  // spec order
  std::vector<ClusterHost*> clients_;
  std::vector<ClusterHost*> memories_;
  ClusterHost* spot_ = nullptr;
  ClusterHost* bystander_ = nullptr;
  std::vector<std::unique_ptr<core::CowbirdClient>> cowbird_clients_;
  std::vector<std::unique_ptr<sim::Machine>> spot_machines_;
  std::vector<std::unique_ptr<spot::SpotAgent>> agents_;
  std::unique_ptr<p4::CowbirdP4Engine> p4_;
  net::NodeId p4_switch_id_ = 0;
  std::uint32_t p4_next_qpn_ = 0x800;
  // The QPs each crash-mode (agent, instance) attach made.
  std::map<std::pair<const spot::SpotAgent*, std::uint32_t>,
           spot::SpotConnection>
      spot_conns_;
};

}  // namespace cowbird::workload
