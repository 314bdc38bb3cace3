#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "net/flow.h"
#include "net/link.h"
#include "net/packet.h"
#include "net/switch.h"
#include "sim/simulation.h"

namespace cowbird::net {
namespace {

Packet TestPacket(NodeId src, NodeId dst, std::size_t payload,
                  Priority prio = Priority::kRdma) {
  return MakeUdpPacket(src, dst, payload, prio);
}

TEST(Headers, EthernetRoundTrip) {
  EthernetHeader h;
  h.dst_mac = 0x020000000007ull;
  h.src_mac = 0x020000000003ull;
  h.ether_type = kEtherTypeIpv4;
  std::vector<std::uint8_t> buf(kEthernetHeaderBytes);
  h.Serialize(buf);
  const auto parsed = EthernetHeader::Parse(buf);
  EXPECT_EQ(parsed.dst_mac, h.dst_mac);
  EXPECT_EQ(parsed.src_mac, h.src_mac);
  EXPECT_EQ(parsed.ether_type, h.ether_type);
}

TEST(Headers, Ipv4RoundTrip) {
  Ipv4Header h;
  h.dscp = 2;
  h.total_length = 1500;
  h.src_ip = 0x0A000001;
  h.dst_ip = 0x0A000002;
  std::vector<std::uint8_t> buf(kIpv4HeaderBytes);
  h.Serialize(buf);
  const auto parsed = Ipv4Header::Parse(buf);
  EXPECT_EQ(parsed.dscp, h.dscp);
  EXPECT_EQ(parsed.total_length, h.total_length);
  EXPECT_EQ(parsed.src_ip, h.src_ip);
  EXPECT_EQ(parsed.dst_ip, h.dst_ip);
  EXPECT_EQ(parsed.protocol, kIpProtoUdp);
}

TEST(Headers, UdpRoundTripAndPacketLayout) {
  Packet p = TestPacket(3, 7, 100);
  EXPECT_EQ(p.bytes.size(), kL2L3L4Bytes + 100);
  const auto udp = UdpHeader::Parse(
      std::span<const std::uint8_t>(p.bytes)
          .subspan(kEthernetHeaderBytes + kIpv4HeaderBytes));
  EXPECT_EQ(udp.dst_port, kRoceUdpPort);
  EXPECT_EQ(udp.length, kUdpHeaderBytes + 100);
  const auto ip = Ipv4Header::Parse(p.L3());
  EXPECT_EQ(ip.dst_ip, 0x0A000007u);
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  sim::Simulation sim;
  Link link(sim, BitRate::Gbps(100), /*propagation=*/500);
  Nanos delivered_at = -1;
  link.set_receiver([&](Packet) { delivered_at = sim.Now(); });
  Packet p = TestPacket(1, 2, 1226 - kL2L3L4Bytes - kWireExtraBytes);
  // Wire bytes = 1226 - ... adjust: just compute expected from WireBytes.
  const Nanos tx = BitRate::Gbps(100).TransmitTime(p.WireBytes());
  link.Send(std::move(p));
  sim.Run();
  EXPECT_EQ(delivered_at, tx + 500);
}

TEST(Link, BackToBackPacketsPipeline) {
  sim::Simulation sim;
  Link link(sim, BitRate::Gbps(10), /*propagation=*/1000);
  std::vector<Nanos> deliveries;
  link.set_receiver([&](Packet) { deliveries.push_back(sim.Now()); });
  Packet a = TestPacket(1, 2, 58);  // 100B frame + 24B overhead
  Packet b = TestPacket(1, 2, 58);
  const Nanos tx = BitRate::Gbps(10).TransmitTime(a.WireBytes());
  link.Send(std::move(a));
  link.Send(std::move(b));
  sim.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], tx + 1000);
  EXPECT_EQ(deliveries[1], 2 * tx + 1000);  // serialized, then pipelined
}

TEST(Link, DropFilterDropsSelectively) {
  sim::Simulation sim;
  Link link(sim, BitRate::Gbps(100), 10);
  int received = 0;
  link.set_receiver([&](Packet) { ++received; });
  int countdown = 1;
  link.set_drop_filter([&](const Packet&) { return countdown-- == 0; });
  link.Send(TestPacket(1, 2, 64));  // dropped (countdown 1→0? no: 1st call returns countdown==0? countdown=1 → false, then 0)
  link.Send(TestPacket(1, 2, 64));  // dropped
  link.Send(TestPacket(1, 2, 64));  // delivered (countdown negative)
  sim.Run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(link.packets_dropped(), 1u);
  EXPECT_EQ(link.packets_delivered(), 2u);
}

TEST(Link, FaultFilterDropIsCountedInBothBuckets) {
  sim::Simulation sim;
  Link link(sim, BitRate::Gbps(100), 10);
  int received = 0;
  link.set_receiver([&](Packet) { ++received; });
  int seen = 0;
  link.set_fault_filter([&](const Packet&) {
    return FaultAction{.drop = ++seen == 2};
  });
  for (int i = 0; i < 3; ++i) link.Send(TestPacket(1, 2, 64));
  sim.Run();
  EXPECT_EQ(received, 2);
  // A fault-injected drop shows up both as a generic drop and as an
  // attributable injected fault.
  EXPECT_EQ(link.packets_dropped(), 1u);
  EXPECT_EQ(link.faults_dropped(), 1u);
  EXPECT_EQ(link.packets_delivered(), 2u);
}

TEST(Link, FaultFilterDuplicateDeliversExtraCopies) {
  sim::Simulation sim;
  Link link(sim, BitRate::Gbps(100), 10);
  int received = 0;
  link.set_receiver([&](Packet) { ++received; });
  int seen = 0;
  link.set_fault_filter([&](const Packet&) {
    return FaultAction{.duplicate = (++seen == 1) ? 2 : 0};
  });
  link.Send(TestPacket(1, 2, 64));  // delivered three times
  link.Send(TestPacket(1, 2, 64));  // delivered once
  sim.Run();
  EXPECT_EQ(received, 4);
  // The counter tracks extra copies (the injector's unit of accounting),
  // and the copies bypass the filter — a fault is never compounded.
  EXPECT_EQ(link.faults_duplicated(), 2u);
  EXPECT_EQ(link.packets_dropped(), 0u);
  EXPECT_EQ(link.packets_delivered(), 4u);
}

TEST(Link, FaultFilterDelayAndReorderLandInDistinctBuckets) {
  sim::Simulation sim;
  Link link(sim, BitRate::Gbps(100), /*propagation=*/10);
  std::vector<Nanos> deliveries;
  link.set_receiver([&](Packet) { deliveries.push_back(sim.Now()); });
  int seen = 0;
  link.set_fault_filter([&](const Packet&) {
    // Packet 1: plain delay. Packet 2: reordering hold — long enough for
    // packet 3 to overtake it.
    switch (++seen) {
      case 1:
        return FaultAction{.delay = 100};
      case 2:
        return FaultAction{.delay = 10000, .reorder = true};
      default:
        return FaultAction{};
    }
  });
  for (int i = 0; i < 3; ++i) link.Send(TestPacket(1, 2, 64));
  sim.Run();
  ASSERT_EQ(deliveries.size(), 3u);
  // The held packet arrived last even though it was sent second.
  EXPECT_GT(deliveries.back(), deliveries[1]);
  // A reordering hold is a reorder fault, not a delay fault: each
  // FaultAction lands in exactly one latency bucket.
  EXPECT_EQ(link.faults_delayed(), 1u);
  EXPECT_EQ(link.faults_reordered(), 1u);
  EXPECT_EQ(link.faults_dropped(), 0u);
  EXPECT_EQ(link.packets_delivered(), 3u);
}

// The link hands each packet, with the tag it was sent with, to the
// dequeue callback as the packet starts: back to back, at 0 and one
// transmit time later.
TEST(Link, DequeueCallbackSeesEachPacketWithItsTagAsItStarts) {
  sim::Simulation sim;
  Link link(sim, BitRate::Gbps(100), 10);
  std::vector<std::pair<int, Nanos>> starts;
  link.set_dequeue_callback([&](const Packet&, int tag) {
    starts.emplace_back(tag, sim.Now());
  });
  Packet p = TestPacket(1, 2, 64);
  const Nanos tx = BitRate::Gbps(100).TransmitTime(p.WireBytes());
  link.Send(std::move(p), 7);
  link.Send(TestPacket(1, 2, 64), 9);
  sim.Run();
  EXPECT_EQ(starts, (std::vector<std::pair<int, Nanos>>{{7, 0}, {9, tx}}));
}

// A link reserves its transmit-done key when a packet starts and queues
// the event only when a packet waits: packets that each find the link idle
// cost one delivery event apiece and no transmit-done event.
TEST(Link, IdleLinkDispatchesOnlyDeliveryEvents) {
  sim::Simulation sim;
  Link link(sim, BitRate::Gbps(100), /*propagation=*/500);
  std::vector<Nanos> deliveries;
  link.set_receiver([&](Packet) { deliveries.push_back(sim.Now()); });
  constexpr int kPackets = 10;
  for (int i = 0; i < kPackets; ++i) {
    sim.ScheduleAt(i * 1'000, [&] { link.Send(TestPacket(1, 2, 64)); });
  }
  sim.Run();
  ASSERT_EQ(deliveries.size(), static_cast<std::size_t>(kPackets));
  const Nanos tx = BitRate::Gbps(100).TransmitTime(
      TestPacket(1, 2, 64).WireBytes());
  EXPECT_EQ(deliveries.back(), (kPackets - 1) * 1'000 + tx + 500);
  // kPackets send events plus kPackets deliveries.
  EXPECT_EQ(sim.EventsProcessed(), 2u * kPackets);
}

// A send at exactly the end of a transmission finds the link busy when its
// event sorts before the transmit-done key (the packet queues and the
// transmit-done event starts it) and idle when it sorts after (the packet
// starts at once). Either way it leaves at the same instant.
TEST(Link, SendAtExactlyBusyUntilOrdersAgainstTheReservedKey) {
  for (const bool before : {true, false}) {
    sim::Simulation sim;
    Link link(sim, BitRate::Gbps(10), /*propagation=*/100);
    std::vector<Nanos> deliveries;
    link.set_receiver([&](Packet) { deliveries.push_back(sim.Now()); });
    Packet first = TestPacket(1, 2, 64);
    const Nanos tx = BitRate::Gbps(10).TransmitTime(first.WireBytes());
    bool idle_at_send = false;
    auto send_second = [&] {
      idle_at_send = link.TransmitterIdle();
      link.Send(TestPacket(1, 2, 64));
    };
    if (before) sim.ScheduleAt(tx, send_second);
    link.Send(std::move(first));
    if (!before) sim.ScheduleAt(tx, send_second);
    sim.Run();
    EXPECT_EQ(idle_at_send, !before) << (before ? "before" : "after");
    EXPECT_EQ(deliveries, (std::vector<Nanos>{tx + 100, 2 * tx + 100}))
        << (before ? "before" : "after");
    // The send event, two deliveries, and a transmit-done event only when
    // the second packet had to wait for it.
    EXPECT_EQ(sim.EventsProcessed(), before ? 4u : 3u)
        << (before ? "before" : "after");
    EXPECT_TRUE(link.TransmitterIdle());
  }
}

// With no propagation delay a delivery sorts before its transmit-done key;
// once the run drains, the link still reads idle and starts the next
// packet at once.
TEST(Link, ZeroPropagationLinkIsIdleOnceTheRunDrains) {
  sim::Simulation sim;
  Link link(sim, BitRate::Gbps(100), /*propagation=*/0);
  std::vector<Nanos> deliveries;
  link.set_receiver([&](Packet) { deliveries.push_back(sim.Now()); });
  Packet p = TestPacket(1, 2, 64);
  const Nanos tx = BitRate::Gbps(100).TransmitTime(p.WireBytes());
  link.Send(std::move(p));
  sim.Run();
  EXPECT_EQ(sim.Now(), tx);
  EXPECT_TRUE(link.TransmitterIdle());
  link.Send(TestPacket(1, 2, 64));
  sim.Run();
  EXPECT_EQ(deliveries, (std::vector<Nanos>{tx, 2 * tx}));
  EXPECT_EQ(sim.EventsProcessed(), 2u);
}

// Packets held by a pause start when it lifts: at the pause timer if the
// transmitter is idle then, and at the end of the control frame on the
// wire if the pause lifts while one is still transmitting.
TEST(Link, PauseHeldPacketsStartWhenThePauseLifts) {
  {
    sim::Simulation sim;
    Link link(sim, BitRate::Gbps(100), /*propagation=*/10);
    std::vector<Nanos> deliveries;
    link.set_receiver([&](Packet) { deliveries.push_back(sim.Now()); });
    link.PauseData(Micros(5));
    Packet p = TestPacket(1, 2, 64);
    const Nanos tx = BitRate::Gbps(100).TransmitTime(p.WireBytes());
    link.Send(std::move(p));
    link.Send(TestPacket(1, 2, 64));
    sim.Run();
    EXPECT_EQ(deliveries, (std::vector<Nanos>{Micros(5) + tx + 10,
                                              Micros(5) + 2 * tx + 10}));
  }
  {
    sim::Simulation sim;
    Link link(sim, BitRate::Mbps(100), /*propagation=*/10);
    std::vector<std::pair<Priority, Nanos>> deliveries;
    link.set_receiver(
        [&](Packet p) { deliveries.emplace_back(p.priority, sim.Now()); });
    Packet data = TestPacket(1, 2, 64);
    Packet control = TestPacket(1, 2, 64, Priority::kControl);
    const Nanos tx = BitRate::Mbps(100).TransmitTime(data.WireBytes());
    ASSERT_GT(tx, 1'000);
    link.PauseData(1'000);  // lifts while the control frame transmits
    link.Send(std::move(data));
    link.Send(std::move(control));
    sim.Run();
    ASSERT_EQ(deliveries.size(), 2u);
    EXPECT_EQ(deliveries[0],
              std::make_pair(Priority::kControl, tx + Nanos{10}));
    EXPECT_EQ(deliveries[1],
              std::make_pair(Priority::kRdma, 2 * tx + Nanos{10}));
    EXPECT_FALSE(link.data_paused());
  }
}

class StarFixture : public ::testing::Test {
 protected:
  static constexpr Nanos kProp = 250;

  StarFixture()
      : sw_(sim_, Switch::Config{}),
        host_a_(sim_, 1, BitRate::Gbps(100), kProp),
        host_b_(sim_, 2, BitRate::Gbps(100), kProp),
        host_c_(sim_, 3, BitRate::Gbps(25), kProp) {
    host_a_.ConnectTo(sw_);
    host_b_.ConnectTo(sw_);
    host_c_.ConnectTo(sw_);
  }

  sim::Simulation sim_;
  Switch sw_;
  HostNic host_a_, host_b_, host_c_;
};

TEST_F(StarFixture, ForwardsBetweenHosts) {
  int received_b = 0, received_a = 0;
  host_b_.SetDefaultReceiver([&](Packet p) {
    ++received_b;
    EXPECT_EQ(p.src, 1u);
  });
  host_a_.SetDefaultReceiver([&](Packet) { ++received_a; });
  host_a_.Send(TestPacket(1, 2, 128));
  host_a_.Send(TestPacket(1, 2, 128));
  sim_.Run();
  EXPECT_EQ(received_b, 2);
  EXPECT_EQ(received_a, 0);
  EXPECT_EQ(sw_.forwarded(), 2u);
}

TEST_F(StarFixture, UnroutableIsDropped) {
  int received = 0;
  host_b_.SetDefaultReceiver([&](Packet) { ++received; });
  host_a_.Send(TestPacket(1, 99, 128));
  sim_.Run();
  EXPECT_EQ(received, 0);
}

TEST_F(StarFixture, StrictPriorityServesHighFirst) {
  // Saturate the 25 Gbps link to host C with bulk packets, then inject a
  // control packet: it must jump the queue.
  std::vector<Priority> arrival_order;
  host_c_.SetDefaultReceiver(
      [&](Packet p) { arrival_order.push_back(p.priority); });
  for (int i = 0; i < 20; ++i) {
    host_a_.Send(TestPacket(1, 3, 1400, Priority::kBulk));
  }
  // The control packet leaves host B slightly later but arrives at the
  // switch while bulk packets are still queued for C's egress.
  sim_.ScheduleAt(2000, [&] {
    host_b_.Send(TestPacket(2, 3, 64, Priority::kControl));
  });
  sim_.Run();
  ASSERT_EQ(arrival_order.size(), 21u);
  // The control packet must not be last; it should overtake most of the
  // bulk backlog.
  std::size_t control_pos = 0;
  for (std::size_t i = 0; i < arrival_order.size(); ++i) {
    if (arrival_order[i] == Priority::kControl) control_pos = i;
  }
  EXPECT_LT(control_pos, 8u);
}

// Frames move through a HostNic onto its uplink: the sender's buffer slot
// travels with the frame, no copy is taken. The slot cache is per thread,
// so a fresh thread counts from zero.
TEST(HostNic, SendMovesTheFrameOntoTheUplink) {
  std::uint64_t high_water = 0;
  int received = 0;
  std::thread([&] {
    sim::Simulation sim;
    Switch sw(sim, Switch::Config{});
    HostNic a(sim, 1, BitRate::Gbps(100), 100);
    HostNic b(sim, 2, BitRate::Gbps(100), 100);
    a.ConnectTo(sw);
    b.ConnectTo(sw);
    b.SetDefaultReceiver([&](Packet) { ++received; });
    a.Send(TestPacket(1, 2, 1024));
    sim.Run();
    high_water = PacketBuffer::stats().high_water;
  }).join();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(high_water, 1u);
}

TEST_F(StarFixture, EgressTailDropWhenFull) {
  sim::Simulation sim;
  Switch tiny(sim, Switch::Config{.egress_queue_capacity = 3000,
                                  .pipeline_latency = 100});
  HostNic a(sim, 1, BitRate::Gbps(100), 100);
  HostNic b(sim, 2, BitRate::Mbps(100), 100);  // slow egress
  a.ConnectTo(tiny);
  b.ConnectTo(tiny);
  int received = 0;
  b.SetDefaultReceiver([&](Packet) { ++received; });
  for (int i = 0; i < 50; ++i) a.Send(TestPacket(1, 2, 1400));
  sim.Run();
  EXPECT_GT(tiny.egress_drops(b.switch_port()), 0u);
  EXPECT_LT(received, 50);
  EXPECT_GT(received, 0);
}

TEST_F(StarFixture, GreedyFlowSaturatesBottleneck) {
  GreedyFlow flow(host_a_, host_c_, 0);
  flow.Start();
  sim_.RunFor(Millis(2));
  // Host C's link is 25 Gbps; payload goodput should be close to line rate
  // minus header overhead (~4% for 1400B payloads + headers + wire extra).
  EXPECT_GT(flow.GoodputGbps(), 22.0);
  EXPECT_LT(flow.GoodputGbps(), 25.0);
}

TEST_F(StarFixture, TwoFlowsShareBottleneckFairly) {
  GreedyFlow f1(host_a_, host_c_, 0);
  GreedyFlow f2(host_b_, host_c_, 1);
  f1.Start();
  f2.Start();
  sim_.RunFor(Millis(4));
  const double total = f1.GoodputGbps() + f2.GoodputGbps();
  EXPECT_GT(total, 22.0);
  // Round-robin-ish fairness within the same priority class.
  EXPECT_NEAR(f1.GoodputGbps(), f2.GoodputGbps(), 3.0);
}

// --- shared-fabric congestion: finite queues, ECN, PFC -------------------
//
// The congestion fixtures all push 1442-byte frames (1400B payload) from a
// 100 Gbps host into a slow egress, so arrivals outrun the drain by orders
// of magnitude and the queue depths at each arrival are exactly computable:
// the first packet drains straight to the link, every later one stacks up.

constexpr std::size_t kCongPayload = 1400;
constexpr Bytes kCongFrame = kL2L3L4Bytes + kCongPayload;  // 1442 buffered

// A frame whose first payload byte carries `seq`, to check arrival order.
Packet NumberedPacket(NodeId src, NodeId dst, int seq) {
  Packet p = TestPacket(src, dst, kCongPayload);
  p.MutableL4Payload()[0] = static_cast<std::uint8_t>(seq);
  return p;
}

Packet EctPacket(NodeId src, NodeId dst) {
  Packet p = TestPacket(src, dst, kCongPayload);
  p.SetEcnBits(kEcnEct0);
  return p;
}

// Five back-to-back frames find the egress queue at depths 0 (drained to
// the link immediately), 0, 1×, 2×, and 3× kCongFrame bytes. Marking is
// on-arrival against the pre-enqueue depth, so the threshold boundary is
// pinned by where the first CE shows up.
std::vector<std::uint8_t> EcnBitsSeen(Bytes ecn_threshold, bool ect) {
  sim::Simulation sim;
  Switch sw(sim, Switch::Config{.pipeline_latency = 100,
                                .ecn_threshold = ecn_threshold});
  HostNic a(sim, 1, BitRate::Gbps(100), 100);
  HostNic b(sim, 2, BitRate::Mbps(10), 100);
  a.ConnectTo(sw);
  b.ConnectTo(sw);
  std::vector<std::uint8_t> seen;
  b.SetDefaultReceiver([&](Packet p) { seen.push_back(p.EcnBits()); });
  for (int i = 0; i < 5; ++i) {
    a.Send(ect ? EctPacket(1, 2) : TestPacket(1, 2, kCongPayload));
  }
  sim.Run();
  return seen;
}

TEST(SwitchEcn, MarksThePacketThatFindsTheQueueExactlyAtThreshold) {
  // Threshold == 2 frames: the 4th packet arrives to find exactly that
  // depth and must be the first one marked (>= comparison).
  const auto seen = EcnBitsSeen(2 * kCongFrame, /*ect=*/true);
  ASSERT_EQ(seen.size(), 5u);
  const std::vector<std::uint8_t> want = {kEcnEct0, kEcnEct0, kEcnEct0,
                                          kEcnCe, kEcnCe};
  EXPECT_EQ(seen, want);
}

TEST(SwitchEcn, OneByteBelowThresholdIsNotMarked) {
  // One byte above the 4th packet's arrival depth: it squeaks under, only
  // the 5th is marked.
  const auto seen = EcnBitsSeen(2 * kCongFrame + 1, /*ect=*/true);
  ASSERT_EQ(seen.size(), 5u);
  const std::vector<std::uint8_t> want = {kEcnEct0, kEcnEct0, kEcnEct0,
                                          kEcnEct0, kEcnCe};
  EXPECT_EQ(seen, want);
}

TEST(SwitchEcn, NonEctPacketsAreNeverMarked) {
  const auto seen = EcnBitsSeen(kCongFrame, /*ect=*/false);
  ASSERT_EQ(seen.size(), 5u);
  for (const std::uint8_t bits : seen) EXPECT_EQ(bits, kEcnNotCapable);
}

TEST(SwitchQueue, OverflowAuditsDropsAndPreservesFifoOrder) {
  // Capacity = 2 frames + slack. Burst 1: packet 0 drains to the link,
  // 1 and 2 queue, 3–5 tail-drop. Burst 2 lands after packets 1 and 2
  // transmitted (the queue is empty again but the link is busy with 2):
  // 6 and 7 queue, 8 and 9 tail-drop. Survivors stay in arrival order and
  // every packet is accounted for as delivered or dropped.
  sim::Simulation sim;
  Switch sw(sim, Switch::Config{.egress_queue_capacity = 2 * kCongFrame + 100,
                                .pipeline_latency = 100});
  HostNic a(sim, 1, BitRate::Gbps(100), 100);
  HostNic b(sim, 2, BitRate::Mbps(10), 100);
  a.ConnectTo(sw);
  b.ConnectTo(sw);
  std::vector<int> seen;
  b.SetDefaultReceiver(
      [&](Packet p) { seen.push_back(p.L4Payload()[0]); });
  for (int i = 0; i < 6; ++i) a.Send(NumberedPacket(1, 2, i));
  sim.ScheduleAt(Millis(3), [&] {
    for (int i = 6; i < 10; ++i) a.Send(NumberedPacket(1, 2, i));
  });
  sim.Run();
  const std::vector<int> want = {0, 1, 2, 6, 7};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(sw.egress_drops(b.switch_port()), 5u);
  EXPECT_EQ(sw.egress_drops(a.switch_port()), 0u);
  EXPECT_EQ(sw.total_drops(), 5u);
  EXPECT_EQ(seen.size() + sw.total_drops(), 10u);
}

// Every packet that waits at a busy egress port gets sent: the link starts
// the next one as each finishes, so a backlog of several packets drains
// back to back instead of stalling after one.
TEST(SwitchQueue, BackloggedPortDrainsEveryPacketBackToBack) {
  sim::Simulation sim;
  Switch sw(sim, Switch::Config{.pipeline_latency = 100});
  HostNic a(sim, 1, BitRate::Gbps(100), 100);
  HostNic b(sim, 2, BitRate::Mbps(10), 100);  // slow egress
  a.ConnectTo(sw);
  b.ConnectTo(sw);
  std::vector<Nanos> arrivals;
  b.SetDefaultReceiver([&](Packet) { arrivals.push_back(sim.Now()); });
  constexpr int kPackets = 5;
  for (int i = 0; i < kPackets; ++i) a.Send(TestPacket(1, 2, kCongPayload));
  sim.Run();
  ASSERT_EQ(arrivals.size(), static_cast<std::size_t>(kPackets));
  const Nanos egress_tx = BitRate::Mbps(10).TransmitTime(
      TestPacket(1, 2, kCongPayload).WireBytes());
  for (int i = 1; i < kPackets; ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], egress_tx) << "packet " << i;
  }
  EXPECT_EQ(sw.forwarded(), static_cast<std::uint64_t>(kPackets));
  EXPECT_TRUE(sw.EgressLink(b.switch_port()).TransmitterIdle());
}

TEST(SwitchPfc, PauseResumeRoundTripIsLossless) {
  // 60 frames from a 100G host into a 10G egress. The switch pauses the
  // sender's ingress when its buffered bytes cross the pause threshold, the
  // host NIC honors the pause at its MAC (uplink data classes held), and an
  // explicit resume arrives once the backlog drains — so the burst survives
  // a queue that it would otherwise overflow.
  sim::Simulation sim;
  Switch sw(sim, Switch::Config{.egress_queue_capacity = 16 * kCongFrame,
                                .pipeline_latency = 100,
                                .pfc_enabled = true,
                                .pfc_pause_threshold = 7 * kCongFrame,
                                .pfc_resume_threshold = 3 * kCongFrame});
  HostNic a(sim, 1, BitRate::Gbps(100), 100);
  HostNic b(sim, 2, BitRate::Gbps(10), 100);
  a.ConnectTo(sw);
  b.ConnectTo(sw);
  int received = 0;
  b.SetDefaultReceiver([&](Packet) { ++received; });
  for (int i = 0; i < 60; ++i) a.Send(TestPacket(1, 2, kCongPayload));
  sim.Run();
  EXPECT_EQ(received, 60);
  EXPECT_EQ(sw.total_drops(), 0u);
  EXPECT_GE(sw.pfc_pauses_sent(), 1u);
  EXPECT_GE(sw.pfc_resumes_sent(), 1u);
  // The host's uplink saw the pause frames and actually idled.
  EXPECT_GE(a.uplink().pauses_received(), 1u);
  EXPECT_GT(a.uplink().paused_ns(), 0u);
  EXPECT_FALSE(a.uplink().data_paused());  // resumed by the end
}

// A paused egress port keeps its backlog in the one queue that tail drop,
// ECN and the PFC watermarks count: 30 frames toward a paused host cross
// the sender's pause threshold, so the switch pauses the sender. Once the
// pause lifts, every frame arrives in order and none is dropped.
TEST(SwitchPfc, PausedEgressKeepsItsBacklogAndPausesTheSender) {
  sim::Simulation sim;
  Switch sw(sim, Switch::Config{.egress_queue_capacity = 64 * kCongFrame,
                                .pipeline_latency = 100,
                                .pfc_enabled = true,
                                .pfc_pause_threshold = 7 * kCongFrame,
                                .pfc_resume_threshold = 3 * kCongFrame});
  HostNic a(sim, 1, BitRate::Gbps(100), 100);
  HostNic b(sim, 2, BitRate::Gbps(10), 100);
  a.ConnectTo(sw);
  b.ConnectTo(sw);
  std::vector<int> seen;
  b.SetDefaultReceiver(
      [&](Packet p) { seen.push_back(p.L4Payload()[0]); });
  sw.EgressLink(b.switch_port()).PauseData(Micros(20));
  constexpr int kFrames = 30;
  for (int i = 0; i < kFrames; ++i) a.Send(NumberedPacket(1, 2, i));
  sim.RunUntil(Micros(10));
  EXPECT_TRUE(seen.empty());
  EXPECT_GE(sw.pfc_pauses_sent(), 1u);
  EXPECT_GE(a.uplink().pauses_received(), 1u);
  sim.Run();
  std::vector<int> want(kFrames);
  for (int i = 0; i < kFrames; ++i) want[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(seen, want);
  EXPECT_EQ(sw.total_drops(), 0u);
}

// A host sending to itself makes one port both the packet's ingress and
// its egress: the resume that a start sends back out of that port queues
// behind the starting packet instead of sharing its transmitter.
TEST(SwitchPfc, ResumeOutOfTheStartingPortQueuesBehindThePacket) {
  sim::Simulation sim;
  Switch sw(sim, Switch::Config{.pipeline_latency = 100,
                                .pfc_enabled = true,
                                .pfc_pause_threshold = 7 * kCongFrame,
                                .pfc_resume_threshold = 3 * kCongFrame});
  HostNic a(sim, 1, BitRate::Gbps(100), 100);
  a.ConnectTo(sw);
  std::vector<std::pair<int, Nanos>> seen;
  a.SetDefaultReceiver([&](Packet p) {
    seen.emplace_back(p.L4Payload()[0], sim.Now());
  });
  sw.EgressLink(a.switch_port()).PauseData(Micros(5));
  constexpr int kFrames = 10;
  for (int i = 0; i < kFrames; ++i) a.Send(NumberedPacket(1, 1, i));
  sim.Run();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kFrames));
  const Nanos tx = BitRate::Gbps(100).TransmitTime(
      NumberedPacket(1, 1, 0).WireBytes());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, static_cast<int>(i));
    // One transmitter: no two frames leave less than a frame time apart.
    if (i > 0) {
      EXPECT_GE(seen[i].second - seen[i - 1].second, tx);
    }
  }
  EXPECT_GE(sw.pfc_pauses_sent(), 1u);
  EXPECT_EQ(sw.pfc_resumes_sent(), sw.pfc_pauses_sent());
  EXPECT_FALSE(a.uplink().data_paused());
  EXPECT_TRUE(sw.EgressLink(a.switch_port()).TransmitterIdle());
}

TEST(Link, PauseHoldsDataWhileControlKeepsFlowing) {
  sim::Simulation sim;
  Link link(sim, BitRate::Gbps(100), /*propagation=*/10);
  std::vector<std::pair<Priority, Nanos>> deliveries;
  link.set_receiver(
      [&](Packet p) { deliveries.emplace_back(p.priority, sim.Now()); });
  link.PauseData(Micros(5));
  link.Send(TestPacket(1, 2, 64));                      // held by the pause
  link.Send(TestPacket(1, 2, 64, Priority::kControl));  // flows through
  sim.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].first, Priority::kControl);
  EXPECT_LT(deliveries[0].second, Micros(1));
  EXPECT_EQ(deliveries[1].first, Priority::kRdma);
  EXPECT_GE(deliveries[1].second, Micros(5));  // released at pause expiry
  EXPECT_EQ(link.pauses_received(), 1u);
  EXPECT_EQ(link.paused_ns(), static_cast<std::uint64_t>(Micros(5)));
}

TEST(SwitchProcessor, CustomProcessorCanRewriteAndMultiply) {
  sim::Simulation sim;
  Switch sw(sim, Switch::Config{});
  HostNic a(sim, 1, BitRate::Gbps(100), 100);
  HostNic b(sim, 2, BitRate::Gbps(100), 100);
  a.ConnectTo(sw);
  b.ConnectTo(sw);

  // A processor that duplicates every packet.
  class Duplicator : public PacketProcessor {
   public:
    void Process(Switch& s, int, Packet p,
                 std::vector<ForwardAction>& out) override {
      const int port = s.RouteFor(p.dst);
      out.push_back({port, p});
      out.push_back({port, std::move(p)});
    }
  };
  Duplicator dup;
  sw.SetProcessor(&dup);

  int received = 0;
  b.SetDefaultReceiver([&](Packet) { ++received; });
  a.Send(TestPacket(1, 2, 64));
  sim.Run();
  EXPECT_EQ(received, 2);
}

}  // namespace
}  // namespace cowbird::net
