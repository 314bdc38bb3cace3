// The topology graph and its partitioner (net/topology.h):
//
//   * Topology round-trips nodes (kind, name, fabric address) and edges
//     (endpoints, propagation, auto-generated names).
//   * PartitionTopology assigns one domain per partition group with domain
//     ids in first-appearance order, emits cut edges per direction in edge
//     order, and derives the epoch horizon as the minimum lookahead over
//     cut edges only.
//   * A zero-propagation cut is reported as a structured error naming the
//     edge and both endpoints; intra-domain edges never trip it.
//   * FabricDomains aliases domain 0 to the caller's root Simulation,
//     creates no group for a single-domain partition, and drives an N-way
//     DomainGroup bit-identically for any worker count.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "net/topology.h"
#include "sim/parallel.h"
#include "sim/simulation.h"
#include "workload/cluster.h"

namespace cowbird {
namespace {

using net::FabricDomains;
using net::Partition;
using net::PartitionTopology;
using net::TopoNodeId;
using net::TopoNodeKind;
using net::Topology;

// ------------------------------------------------------------------- Topology

TEST(TopologyTest, RoundTripsNodesAndEdges) {
  Topology topo;
  const TopoNodeId host =
      topo.AddNode(TopoNodeKind::kComputeHost, "client0", /*address=*/1);
  const TopoNodeId tor = topo.AddNode(TopoNodeKind::kSwitch, "tor");
  const TopoNodeId mem =
      topo.AddNode(TopoNodeKind::kMemoryServer, "mem0", /*address=*/2);
  const int uplink = topo.AddEdge(host, tor, 200, "uplink[client0]");
  const int auto_named = topo.AddEdge(mem, tor, 150);

  ASSERT_EQ(topo.node_count(), 3);
  ASSERT_EQ(topo.edge_count(), 2);
  EXPECT_EQ(topo.node(host).kind, TopoNodeKind::kComputeHost);
  EXPECT_EQ(topo.node(host).name, "client0");
  EXPECT_EQ(topo.node(host).address, 1u);
  EXPECT_EQ(topo.node(tor).address, 0u);
  EXPECT_EQ(topo.edge(uplink).a, host);
  EXPECT_EQ(topo.edge(uplink).b, tor);
  EXPECT_EQ(topo.edge(uplink).propagation, 200);
  EXPECT_EQ(topo.edge(uplink).name, "uplink[client0]");
  // Unnamed edges self-describe from their endpoint names.
  EXPECT_EQ(topo.edge(auto_named).name, "mem0<->tor");
}

TEST(TopologyTest, KindNamesCoverEveryKind) {
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kComputeHost), "compute");
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kMemoryServer), "memory");
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kSpotHost), "spot");
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kBystanderHost),
               "bystander");
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kSwitch), "switch");
}

// ------------------------------------------------------------------ Partition

TEST(PartitionTest, UngroupedNodesPartitionAlone) {
  Topology topo;
  topo.AddNode(TopoNodeKind::kComputeHost, "a");
  topo.AddNode(TopoNodeKind::kSwitch, "b");
  topo.AddNode(TopoNodeKind::kMemoryServer, "c");
  const Partition part = PartitionTopology(topo);
  EXPECT_EQ(part.domain_count(), 3);
  for (TopoNodeId n = 0; n < 3; ++n) EXPECT_EQ(part.domain_of(n), n);
}

TEST(PartitionTest, GroupsFuseWithFirstAppearanceDomainOrder) {
  Topology topo;
  const TopoNodeId n0 = topo.AddNode(TopoNodeKind::kComputeHost, "n0");
  const TopoNodeId n1 = topo.AddNode(TopoNodeKind::kSwitch, "n1");
  const TopoNodeId n2 = topo.AddNode(TopoNodeKind::kMemoryServer, "n2");
  const TopoNodeId n3 = topo.AddNode(TopoNodeKind::kSpotHost, "n3");
  // Group tags are arbitrary labels; domain ids follow first appearance in
  // node order, so node 0 always lands in domain 0.
  topo.SetGroup(n0, 7);
  topo.SetGroup(n2, 7);
  topo.SetGroup(n3, 2);
  const Partition part = PartitionTopology(topo);
  EXPECT_EQ(part.domain_count(), 3);
  EXPECT_EQ(part.domain_of(n0), 0);
  EXPECT_EQ(part.domain_of(n1), 1);  // ungrouped singleton
  EXPECT_EQ(part.domain_of(n2), 0);
  EXPECT_EQ(part.domain_of(n3), 2);
}

TEST(PartitionTest, GroupAllCollapsesToOneDomainWithNoCuts) {
  Topology topo;
  const TopoNodeId a = topo.AddNode(TopoNodeKind::kComputeHost, "a");
  const TopoNodeId b = topo.AddNode(TopoNodeKind::kSwitch, "b");
  topo.AddEdge(a, b, 0);  // zero propagation is fine intra-domain
  topo.GroupAll(0);
  const Partition part = PartitionTopology(topo);
  EXPECT_EQ(part.domain_count(), 1);
  EXPECT_TRUE(part.cut_edges().empty());
  EXPECT_EQ(part.lookahead(), sim::kNoEventTime);
  EXPECT_FALSE(part.zero_lookahead_error().has_value());
}

TEST(PartitionTest, CutEdgesEmittedPerDirectionWithMinLookahead) {
  Topology topo;
  const TopoNodeId a = topo.AddNode(TopoNodeKind::kComputeHost, "a");
  const TopoNodeId b = topo.AddNode(TopoNodeKind::kSwitch, "b");
  const TopoNodeId c = topo.AddNode(TopoNodeKind::kMemoryServer, "c");
  const int ab = topo.AddEdge(a, b, 200);
  const int bc = topo.AddEdge(b, c, 150);
  // Fuse b and c: only a<->b is cut; b<->c places no bound on the horizon.
  topo.SetGroup(b, 1);
  topo.SetGroup(c, 1);
  const Partition part = PartitionTopology(topo);
  ASSERT_EQ(part.domain_count(), 2);
  ASSERT_EQ(part.cut_edges().size(), 2u);
  EXPECT_EQ(part.cut_edges()[0].edge, ab);
  EXPECT_EQ(part.cut_edges()[0].src_domain, 0);
  EXPECT_EQ(part.cut_edges()[0].dst_domain, 1);
  EXPECT_EQ(part.cut_edges()[1].src_domain, 1);
  EXPECT_EQ(part.cut_edges()[1].dst_domain, 0);
  EXPECT_EQ(part.lookahead(), 200);
  (void)bc;

  // Split the fused pair too: now both edges are cut and the horizon drops
  // to the smaller propagation.
  topo.SetGroup(c, 2);
  const Partition finer = PartitionTopology(topo);
  EXPECT_EQ(finer.domain_count(), 3);
  EXPECT_EQ(finer.cut_edges().size(), 4u);
  EXPECT_EQ(finer.lookahead(), 150);
}

TEST(PartitionTest, ZeroLookaheadCutNamesEdgeAndBothEndpoints) {
  Topology topo;
  const TopoNodeId a = topo.AddNode(TopoNodeKind::kComputeHost, "clientX");
  const TopoNodeId b = topo.AddNode(TopoNodeKind::kSwitch, "torY");
  topo.AddEdge(a, b, 0, "uplink[clientX]");
  const Partition part = PartitionTopology(topo);
  ASSERT_TRUE(part.zero_lookahead_error().has_value());
  const std::string& error = *part.zero_lookahead_error();
  EXPECT_NE(error.find("zero-lookahead cut"), std::string::npos) << error;
  EXPECT_NE(error.find("uplink[clientX]"), std::string::npos) << error;
  EXPECT_NE(error.find("'clientX' (domain 0)"), std::string::npos) << error;
  EXPECT_NE(error.find("'torY' (domain 1)"), std::string::npos) << error;
}

TEST(PartitionTest, DescribeListsDomainMapCutsAndHorizon) {
  Topology topo;
  const TopoNodeId a = topo.AddNode(TopoNodeKind::kComputeHost, "host");
  const TopoNodeId b = topo.AddNode(TopoNodeKind::kSwitch, "tor");
  topo.AddEdge(a, b, 250);
  const Partition part = PartitionTopology(topo);
  const std::string text = part.Describe(topo);
  EXPECT_NE(text.find("2 domains"), std::string::npos) << text;
  EXPECT_NE(text.find("'host' (compute) -> domain 0"), std::string::npos)
      << text;
  EXPECT_NE(text.find("'tor' (switch) -> domain 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("epoch horizon: 250 ns"), std::string::npos) << text;
}

// -------------------------------------------------------------- FabricDomains

TEST(FabricDomainsTest, SingleDomainAliasesRootWithNoGroup) {
  Topology topo;
  topo.AddNode(TopoNodeKind::kComputeHost, "a");
  topo.AddNode(TopoNodeKind::kSwitch, "b");
  topo.AddEdge(0, 1, 100);
  topo.GroupAll(0);
  const Partition part = PartitionTopology(topo);
  sim::Simulation root;
  FabricDomains fabric(root, part);
  EXPECT_EQ(fabric.group(), nullptr);
  EXPECT_EQ(&fabric.sim_for(0), &root);
  EXPECT_EQ(&fabric.sim_for(1), &root);
  bool ran = false;
  root.ScheduleAt(10, [&] { ran = true; });
  fabric.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(fabric.Now(), root.Now());
  EXPECT_EQ(fabric.EventsProcessed(), root.EventsProcessed());
}

TEST(FabricDomainsTest, SplitOwnsOneSimulationPerExtraDomain) {
  Topology topo;
  topo.AddNode(TopoNodeKind::kComputeHost, "a");
  topo.AddNode(TopoNodeKind::kSwitch, "b");
  topo.AddNode(TopoNodeKind::kMemoryServer, "c");
  topo.AddEdge(0, 1, 100);
  topo.AddEdge(1, 2, 100);
  const Partition part = PartitionTopology(topo);
  sim::Simulation root;
  FabricDomains fabric(root, part, /*workers=*/1);
  ASSERT_NE(fabric.group(), nullptr);
  EXPECT_EQ(fabric.group()->domain_count(), 3);
  EXPECT_EQ(&fabric.domain_sim(0), &root);
  EXPECT_NE(&fabric.domain_sim(1), &root);
  EXPECT_NE(&fabric.domain_sim(2), &fabric.domain_sim(1));
}

// A 4-domain chain driven end to end: an event hops domain to domain across
// the cut edges. The arrival times and event totals must be identical for
// any worker count — the N-way generalization of the 2-domain pin.
TEST(FabricDomainsTest, NWayChainBitIdenticalAcrossWorkerCounts) {
  constexpr int kNodes = 4;
  constexpr Nanos kHop = 100;
  struct Outcome {
    std::vector<Nanos> arrival;
    std::uint64_t events = 0;
    bool operator==(const Outcome& o) const {
      return arrival == o.arrival && events == o.events;
    }
  };
  auto run = [&](int workers) {
    Topology topo;
    for (int n = 0; n < kNodes; ++n) {
      topo.AddNode(TopoNodeKind::kComputeHost, "n" + std::to_string(n));
    }
    for (int n = 0; n + 1 < kNodes; ++n) topo.AddEdge(n, n + 1, kHop);
    const Partition part = PartitionTopology(topo);
    sim::Simulation root;
    FabricDomains fabric(root, part, workers);
    sim::DomainGroup* group = fabric.group();
    // Register every cut edge the way a wired testbed's links would.
    for (const net::CutEdgeInfo& cut : part.cut_edges()) {
      sim::CutEdge edge;
      edge.src = cut.src_domain;
      edge.dst = cut.dst_domain;
      edge.lookahead = cut.lookahead;
      edge.link = topo.edge(cut.edge).name;
      edge.src_node = topo.node(topo.edge(cut.edge).a).name;
      edge.dst_node = topo.node(topo.edge(cut.edge).b).name;
      group->NoteCrossLink(edge);
    }

    Outcome outcome;
    outcome.arrival.assign(kNodes, -1);
    std::function<void(int)> hop;
    hop = [&](int d) {
      outcome.arrival[static_cast<std::size_t>(d)] =
          fabric.domain_sim(d).Now();
      if (d + 1 < kNodes) {
        group->CrossPost(d, d + 1, fabric.domain_sim(d).Now() + kHop,
                         [&hop, d] { hop(d + 1); });
      }
    };
    fabric.domain_sim(0).ScheduleAt(50, [&] { hop(0); });
    fabric.Run();
    outcome.events = fabric.EventsProcessed();
    return outcome;
  };

  const Outcome one = run(1);
  EXPECT_EQ(one.arrival, (std::vector<Nanos>{50, 150, 250, 350}));
  for (int workers : {2, 4, 8}) {
    EXPECT_TRUE(run(workers) == one) << "workers=" << workers;
  }
}

// ----------------------------------------------------- testbeds as topologies

TEST(TestbedTopologyTest, SerialAndSplitReduceToExpectedPartitions) {
  workload::Cluster serial{workload::ClusterSpec{}};
  EXPECT_EQ(serial.partition().domain_count(), 1);
  EXPECT_EQ(serial.group(), nullptr);

  workload::ClusterSpec spec;
  spec.split = workload::ClusterSpec::Split::kPair;
  spec.workers = 1;
  workload::Cluster split(spec);
  EXPECT_EQ(split.partition().domain_count(), 2);
  ASSERT_NE(split.group(), nullptr);
  // The PR 5 layout through the general partitioner: the compute host alone
  // in domain 0, switch + memory/spot fused in domain 1.
  EXPECT_EQ(split.partition().domain_of(split.client(0).node), 0);
  EXPECT_EQ(split.partition().domain_of(split.switch_node()), 1);
}

workload::ClusterSpec FanInSpec(int clients, int memory_servers) {
  workload::ClusterSpec spec;
  spec.clients = clients;
  spec.hosts.assign(static_cast<std::size_t>(memory_servers),
                    workload::ClusterSpec::Host::kMemory);
  spec.hosts.push_back(workload::ClusterSpec::Host::kSpot);
  return spec;
}

TEST(TestbedTopologyTest, FanInSplitsOneDomainPerNode) {
  workload::ClusterSpec spec = FanInSpec(3, 2);
  spec.split = workload::ClusterSpec::Split::kPerNode;
  spec.workers = 1;
  workload::Cluster cluster(spec);
  // 3 clients + switch + 2 memory servers + spot host = 7 nodes, 7 domains.
  EXPECT_EQ(cluster.topology().node_count(), 7);
  EXPECT_EQ(cluster.partition().domain_count(), 7);
  ASSERT_TRUE(cluster.split());
  // Every client uplink is a cut edge: 6 directed cuts per... 6 edges × 2.
  EXPECT_EQ(cluster.partition().cut_edges().size(), 12u);
  EXPECT_GT(cluster.partition().lookahead(), 0);

  workload::Cluster serial(FanInSpec(3, 2));
  EXPECT_EQ(serial.partition().domain_count(), 1);
  EXPECT_FALSE(serial.split());
}

TEST(TestbedTopologyTest, TwoTierFanInAppendsGroupTorsAfterLegacyNodes) {
  workload::ClusterSpec spec = FanInSpec(6, 2);
  spec.client_groups = 2;
  spec.split = workload::ClusterSpec::Split::kPerNode;
  spec.workers = 1;
  workload::Cluster cluster(spec);
  // 6 clients + core + 2 memories + spot + 2 group ToRs = 12 nodes; the
  // group ToRs append after the legacy ids so client/switch/memory/spot
  // node ids are unchanged from the flat fabric.
  EXPECT_EQ(cluster.topology().node_count(), 12);
  EXPECT_EQ(cluster.partition().domain_count(), 12);
  EXPECT_EQ(cluster.switch_node(), 6);
  EXPECT_EQ(cluster.spot().node, 9);
  EXPECT_EQ(cluster.group_tor_node(0), 10);
  EXPECT_EQ(cluster.group_tor_node(1), 11);
  // Contiguous client blocks of ceil(6/2) = 3.
  EXPECT_EQ(cluster.group_of_client(0), 0);
  EXPECT_EQ(cluster.group_of_client(2), 0);
  EXPECT_EQ(cluster.group_of_client(3), 1);
  EXPECT_EQ(cluster.group_of_client(5), 1);
  EXPECT_EQ(cluster.client(0).attach_node, cluster.group_tor_node(0));
  EXPECT_EQ(cluster.client(5).attach_node, cluster.group_tor_node(1));
  // 6 client uplinks + 2 memory + 1 spot + 2 trunks = 11 edges, all cut
  // under the per-node split, emitted per direction.
  EXPECT_EQ(cluster.partition().cut_edges().size(), 22u);
  // Leaves default-route unknown destinations (memories, spot) up their
  // trunk; the core routes each client block down the matching trunk.
  EXPECT_EQ(cluster.group_tor(0).RouteFor(cluster.memory(0).id()),
            cluster.trunk(0).b_port);
  EXPECT_EQ(cluster.sw().RouteFor(cluster.client(0).id()),
            cluster.trunk(0).a_port);
  EXPECT_EQ(cluster.sw().RouteFor(cluster.client(5).id()),
            cluster.trunk(1).a_port);
}

// ---------------------------------------------------------------- PackDomains

TEST(PackDomainsTest, BalancesRatesUnderBudgetAndMatchesPartitioner) {
  // A fan-in star with one hot switch and two hot hosts. Under budget 3 the
  // 2x-fair-share cap (ceil(2*43/3) = 29) keeps the hot hosts out of the
  // switch's group: only the light hosts contract onto the switch.
  Topology topo;
  for (int h = 0; h < 5; ++h) {
    topo.AddNode(TopoNodeKind::kComputeHost, "h" + std::to_string(h));
  }
  const TopoNodeId sw = topo.AddNode(TopoNodeKind::kSwitch, "s");
  for (TopoNodeId h = 0; h < 5; ++h) topo.AddEdge(h, sw, 100);
  const std::vector<std::uint64_t> rates = {10, 10, 1, 1, 1, 20};
  EXPECT_EQ(net::PackDomains(topo, rates, 3), 3);
  EXPECT_EQ(topo.node(0).group, 0);
  EXPECT_EQ(topo.node(1).group, 1);
  for (TopoNodeId n : {TopoNodeId{2}, TopoNodeId{3}, TopoNodeId{4}, sw}) {
    EXPECT_EQ(topo.node(n).group, 2) << "node " << n;
  }
  // Group tags are numbered by first appearance in node order, so the
  // partitioner reproduces them verbatim as domain ids.
  const Partition part = PartitionTopology(topo);
  EXPECT_EQ(part.domain_count(), 3);
  for (TopoNodeId n = 0; n < topo.node_count(); ++n) {
    EXPECT_EQ(part.domain_of(n), topo.node(n).group) << "node " << n;
  }
}

TEST(PackDomainsTest, EqualRatesContractInEdgeIdOrderDeterministically) {
  auto build = [] {
    Topology topo;
    for (int n = 0; n < 4; ++n) {
      topo.AddNode(TopoNodeKind::kComputeHost, "n" + std::to_string(n));
    }
    topo.AddEdge(0, 1, 100);
    topo.AddEdge(1, 2, 100);
    topo.AddEdge(2, 3, 100);
    return topo;
  };
  const std::vector<std::uint64_t> rates = {1, 1, 1, 1};
  // All edge weights tie; the edge-id tie-break contracts the chain head
  // first, every time.
  Topology once = build();
  EXPECT_EQ(net::PackDomains(once, rates, 2), 2);
  Topology again = build();
  EXPECT_EQ(net::PackDomains(again, rates, 2), 2);
  for (TopoNodeId n = 0; n < once.node_count(); ++n) {
    EXPECT_EQ(once.node(n).group, again.node(n).group) << "node " << n;
  }
  EXPECT_EQ(once.node(0).group, 0);
  EXPECT_EQ(once.node(1).group, 0);
  EXPECT_EQ(once.node(2).group, 0);
  EXPECT_EQ(once.node(3).group, 1);
}

TEST(PackDomainsTest, RemainderFoldFusesLightestComponents) {
  // No edges at all: phase 1 has nothing to contract, so the remainder fold
  // must reach the budget by repeatedly fusing the two lightest components
  // (ties broken by lower minimum node id).
  Topology topo;
  for (int n = 0; n < 4; ++n) {
    topo.AddNode(TopoNodeKind::kComputeHost, "n" + std::to_string(n));
  }
  const std::vector<std::uint64_t> rates = {5, 3, 2, 2};
  EXPECT_EQ(net::PackDomains(topo, rates, 2), 2);
  EXPECT_EQ(topo.node(0).group, 0);  // the heavy node stays alone
  EXPECT_EQ(topo.node(1).group, 1);
  EXPECT_EQ(topo.node(2).group, 1);
  EXPECT_EQ(topo.node(3).group, 1);
}

TEST(PackDomainsTest, DegenerateBudgetsFallBackToSingletons) {
  auto build = [] {
    Topology topo;
    for (int n = 0; n < 3; ++n) {
      topo.AddNode(TopoNodeKind::kComputeHost, "n" + std::to_string(n));
    }
    topo.AddEdge(0, 1, 100);
    topo.AddEdge(1, 2, 100);
    return topo;
  };
  const std::vector<std::uint64_t> rates = {4, 4, 4};
  for (const int budget : {0, -1, 3, 10}) {
    Topology topo = build();
    EXPECT_EQ(net::PackDomains(topo, rates, budget), 3) << budget;
    for (TopoNodeId n = 0; n < topo.node_count(); ++n) {
      EXPECT_EQ(topo.node(n).group, n) << "budget " << budget;
    }
  }
}

}  // namespace
}  // namespace cowbird
