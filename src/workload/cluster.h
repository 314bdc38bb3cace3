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
//     frozen at teardown;
//   * engine attach. Clients and engines are built here, so each gets the
//     hub; AttachSpot/AttachP4 (and the registry bindings built on them)
//     are the one place that runs ConnectSpotEngine/ConnectP4Engine +
//     AddInstance;
//   * teardown order. Every gauge the cluster bound is unbound before the
//     object behind it is destroyed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/sparse_memory.h"
#include "core/client.h"
#include "net/switch.h"
#include "offload/registry.h"
#include "p4/engine.h"
#include "rdma/device.h"
#include "rdma/params.h"
#include "sim/simulation.h"
#include "sim/thread.h"
#include "spot/agent.h"
#include "spot/setup.h"
#include "telemetry/hub.h"

namespace cowbird::workload {

struct ClusterSpec {
  // Hosts after the clients, attached to the switch in this order. A
  // memory server gets 8 cores; the spot host gets one 1-core machine per
  // agent (Cluster::AddSpotAgent); the bystander is a bare 25 Gbps NIC for
  // contending flows (Figure 14).
  enum class Host { kMemory, kSpot, kBystander };

  int clients = 1;
  int client_cores = 16;
  BitRate client_uplink = BitRate::Gbps(100);
  std::vector<Host> hosts = {Host::kMemory, Host::kSpot};
  // The switch's queues, ECN and PFC, and every NIC's Go-Back-N and DCQCN.
  net::Switch::Config switches{
      .pipeline_latency = rdma::FabricParams{}.switch_pipeline};
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
  // A spot agent on a fresh 1-core machine of the spot host.
  spot::SpotAgent& AddSpotAgent(spot::SpotAgent::Config config);
  // The P4 engine, installed as the switch's processor.
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
  static std::size_t Index(int i) { return static_cast<std::size_t>(i); }
  std::vector<rdma::Device*> MemoryDevices(const std::vector<int>& memories);
  std::vector<int> AllMemories() const;
  core::CowbirdClient* FindClient(std::uint32_t instance_id);
  void BindTelemetry();

  ClusterSpec spec_;
  telemetry::Hub* hub_;
  // One entry per binding BindTelemetry made; the destructor runs them all
  // while every bound object is still alive.
  std::vector<std::function<void()>> unbind_;
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
  net::NodeId p4_switch_id_ = 0;
  std::uint32_t p4_next_qpn_ = 0x800;
  // The QPs each crash-mode (agent, instance) attach made.
  std::map<std::pair<const spot::SpotAgent*, std::uint32_t>,
           spot::SpotConnection>
      spot_conns_;
};

}  // namespace cowbird::workload
