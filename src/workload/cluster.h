// The one cluster builder behind every harness.
//
// The evaluation (Section 7) always runs one shape: compute clients, memory
// servers and a spot host behind one switch, all on one event loop. A
// ClusterSpec says which hosts, in which order, with which switch/NIC
// profile; Cluster builds it and owns everything the harnesses used to wire
// by hand:
//
//   * construction order. Hosts get names, fabric addresses and switch
//     ports in spec order (clients first, then the other hosts), which is
//     what keeps every simulated outcome of a given shape byte-identical
//     run to run;
//   * telemetry. With a hub, every device, link, the switch and the event
//     pools are bound to it, the tracer clock is re-seated onto the run and
//     frozen at teardown. Each bound object owns its gauges and removes them
//     when it dies, so teardown needs no unbinding step;
//   * engine attach and detach. Clients and engines are built here, so
//     each gets the hub; Attach and Detach are the only way an instance
//     reaches or leaves an engine (ConnectSpotEngine/ConnectP4Engine +
//     AddInstance, and ExportProgress + RemoveInstance).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/sparse_memory.h"
#include "core/client.h"
#include "net/switch.h"
#include "offload/progress.h"
#include "p4/engine.h"
#include "rdma/device.h"
#include "rdma/params.h"
#include "sim/simulation.h"
#include "sim/thread.h"
#include "spot/agent.h"
#include "spot/setup.h"
#include "telemetry/hub.h"

namespace cowbird::workload {

// Testbed-wide constants (Section 7): 100 Gbps ConnectX-5 NICs, one switch.
inline constexpr BitRate kHostLinkRate = BitRate::Gbps(100);
inline constexpr Nanos kLinkPropagation = 150;  // rack-scale cabling
inline constexpr Nanos kSwitchPipeline = 300;   // Tofino ingress-to-egress

struct ClusterSpec {
  // Hosts after the clients, attached to the switch in this order. A
  // memory server gets 8 cores; the spot host gets one 1-core machine per
  // agent (Cluster::AddSpotAgent); the bystander is a bare 25 Gbps NIC for
  // contending flows (Figure 14).
  enum class Host { kMemory, kSpot, kBystander };

  int clients = 1;
  int client_cores = 16;
  BitRate client_uplink = kHostLinkRate;
  std::vector<Host> hosts = {Host::kMemory, Host::kSpot};
  // The switch's queues, ECN and PFC, and every NIC's Go-Back-N and DCQCN.
  net::Switch::Config switches{.pipeline_latency = kSwitchPipeline};
  rdma::NicConfig nic;
};

// One host: its NIC, its memory, and (except on the bystander) its RDMA
// device and machine.
struct ClusterHost {
  ClusterHost(sim::Simulation& sim, std::string host_name, net::NodeId address,
              BitRate rate, Nanos propagation)
      : name(std::move(host_name)), nic(sim, address, rate, propagation) {}

  std::string name;  // "client0", "memory1", "spot", "bystander"
  net::HostNic nic;
  SparseMemory mem;
  std::optional<rdma::Device> dev;
  std::optional<sim::Machine> machine;  // clients and memory servers

  net::NodeId id() const { return nic.id(); }
};

// Fabric-wide congestion counters, whole run (NIC ones across every
// device).
struct FabricCounters {
  std::uint64_t switch_drops = 0;
  std::uint64_t ecn_marked = 0;
  std::uint64_t pfc_pauses = 0;
  std::uint64_t link_pauses = 0;
  std::uint64_t retransmissions = 0;
  // The hosts whose NIC retransmitted, in spec order: (name, count).
  std::vector<std::pair<std::string, std::uint64_t>> retransmissions_by_node;
  std::uint64_t cnps = 0;
};

class Cluster {
 public:
  // The run's one event loop.
  sim::Simulation sim;

  // `hub` may be null (telemetry off). The caller keeps the hub; the cluster
  // leaves it with no gauge pointing into the run and a frozen clock.
  explicit Cluster(ClusterSpec spec, telemetry::Hub* hub = nullptr);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // ---- hosts -------------------------------------------------------------
  ClusterHost& client(int k) { return *clients_[Index(k)]; }
  ClusterHost& memory(int m) { return *memories_[Index(m)]; }
  ClusterHost& spot() { return *spot_; }
  ClusterHost& bystander() { return *bystander_; }
  // The client host whose fabric address is `address`.
  ClusterHost& client_at(net::NodeId address);

  // ---- fabric ------------------------------------------------------------
  net::Switch& sw() { return *switch_; }
  FabricCounters Counters() const;

  // The hub's snapshot, taken while every gauge the cluster bound is still
  // live; empty with telemetry off.
  telemetry::Snapshot TakeSnapshot() const;

  // ---- clients and engines -----------------------------------------------
  // A Cowbird client on client host `k`.
  core::CowbirdClient& AddClient(int k, core::CowbirdClient::Config config);
  // A spot agent on a fresh 1-core machine of the spot host. The k-th agent
  // added gets index k (its staging arena and telemetry label).
  spot::SpotAgent& AddSpotAgent(spot::SpotAgent::Config config);
  // The P4 engine, installed as the switch's processor.
  p4::CowbirdP4Engine& AddP4Engine(p4::CowbirdP4Engine::Config config);
  p4::CowbirdP4Engine& p4() { return *p4_; }

  // An engine this cluster built, as Attach and Detach name it: one of its
  // Spot agents, or its P4 engine (`agent` null).
  struct Engine {
    Engine(spot::SpotAgent& spot_agent) : agent(&spot_agent) {}
    Engine(p4::CowbirdP4Engine&) {}
    spot::SpotAgent* agent = nullptr;
  };

  // Phase I: connects `client`'s instance to `engine` through memory servers
  // `memories` (indices; empty = every server), then adds it. A `resume`
  // snapshot is reconciled with the client's published red block first, so
  // the engine never re-delivers what the client already retired. Each P4
  // attach takes the next QPN block (0x800, 0x820, ...), so a re-attach
  // never collides with the QPs an earlier one left behind.
  void Attach(Engine engine, const core::CowbirdClient& client,
              const std::vector<int>& memories = {},
              const offload::InstanceProgress* resume = nullptr);
  // Exports the instance's progress from `engine` and removes it, returning
  // the snapshot to resume from. `halt` is a crash: the Spot QPs of the
  // attach stop mid-flight (no drain, no zombie retransmissions).
  std::optional<offload::InstanceProgress> Detach(
      Engine engine, const core::CowbirdClient& client, bool halt = false);
  // The red block `client` has seen published, one entry per thread.
  std::vector<offload::ThreadProgress> PublishedProgress(
      const core::CowbirdClient& client);

 private:
  static std::size_t Index(int i) { return static_cast<std::size_t>(i); }
  std::vector<rdma::Device*> MemoryDevices(const std::vector<int>& memories);
  void BindTelemetry();

  ClusterSpec spec_;
  telemetry::Hub* hub_;
  // The event pools' gauges (the Simulation does not link telemetry/).
  telemetry::CallbackGauges pool_gauges_;
  std::unique_ptr<net::Switch> switch_;
  std::vector<std::unique_ptr<ClusterHost>> hosts_;  // spec order
  std::vector<ClusterHost*> clients_;
  std::vector<ClusterHost*> memories_;
  ClusterHost* spot_ = nullptr;
  ClusterHost* bystander_ = nullptr;
  std::vector<std::unique_ptr<core::CowbirdClient>> cowbird_clients_;
  std::vector<std::unique_ptr<sim::Machine>> spot_machines_;
  std::vector<std::unique_ptr<spot::SpotAgent>> agents_;
  std::unique_ptr<p4::CowbirdP4Engine> p4_;
  std::uint32_t p4_next_qpn_ = 0x800;
  // The QPs each Spot (agent, instance) attach made, for a halting detach.
  std::map<std::pair<const spot::SpotAgent*, std::uint32_t>,
           spot::SpotConnection>
      spot_conns_;
};

}  // namespace cowbird::workload
