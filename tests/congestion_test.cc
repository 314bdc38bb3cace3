// Shared-fabric congestion behavior, end to end:
//
//   * DCQCN rate convergence at the QP level — two flows incast into one
//     congested egress port converge to within 10% of fair share, and a
//     victim flow on an uncongested port keeps >= 90% of its solo rate.
//     Both are property tests: COWBIRD_TEST_SEED varies the read offset
//     streams, the convergence claims must hold for any seed.
//   * An enabled but never-marked DCQCN leaves the 16-node rack workload
//     byte-identical to a congestion-disabled run.
//   * The chaos congestion scenarios (incast / victim / pause_storm) pass
//     their invariant checks, surface their counters, and stay
//     bit-deterministic: the seed sweep report is byte-identical for any
//     --jobs value.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chaos/runner.h"
#include "chaos/sweep.h"
#include "common/rng.h"
#include "common/sparse_memory.h"
#include "net/switch.h"
#include "rdma/congestion.h"
#include "rdma/device.h"
#include "rdma/qp.h"
#include "sim/simulation.h"
#include "test_seed.h"
#include "workload/cluster.h"
#include "workload/scale_workload.h"

namespace cowbird {
namespace {

using rdma::QpPair;
using testing::TestSeed;

// ---------------------------------------------------------------- DCQCN

constexpr Bytes kReadBytes = 4096;
constexpr Bytes kPoolBytes = MiB(8);
constexpr std::uint64_t kPoolBase = 0x100000;

// Four hosts on one switch, fabric tuned like the abl_incast ECN policy:
// shallow marked queues, DCQCN on every NIC, and a Go-Back-N timeout above
// the congested RTT so pacing delay is not misread as loss. PFC stays off
// here on purpose — a pause asserted against a memory host's ingress would
// hold its whole uplink (head-of-line blocking), and these tests isolate
// what the *rate control* converges to.
struct CongestedFabric {
  static constexpr int kHosts = 5;

  sim::Simulation sim;
  rdma::NicConfig nic_config;
  net::Switch sw;
  std::vector<std::unique_ptr<net::HostNic>> nics;
  std::vector<std::unique_ptr<SparseMemory>> mems;
  std::vector<std::unique_ptr<rdma::Device>> devs;

  static rdma::NicConfig MakeNicConfig() {
    rdma::NicConfig nc;
    nc.retransmit_timeout = Millis(1);
    nc.dcqcn.enabled = true;
    // Gentler loop than the 12-client bench tuning: with only two flows a
    // cut on every recovery step parks both at the floor, so space the
    // CNPs two recovery periods apart and recover faster. This is ordinary
    // DCQCN deployment tuning — the convergence claim is about the
    // equilibrium, not one parameter point.
    nc.dcqcn.cnp_interval = Micros(50);
    nc.dcqcn.rate_ai_gbps = 4.0;
    nc.dcqcn.min_rate_gbps = 5.0;
    return nc;
  }

  CongestedFabric()
      : nic_config(MakeNicConfig()),
        sw(sim, net::Switch::Config{
                    // Deep enough to absorb the opening burst (two 32-deep
                    // windows of 4 KiB responses land before the first CNP
                    // can): one tail-drop costs a 1 ms Go-Back-N stall and
                    // turns the run into an RTO cycle instead of a pacing
                    // equilibrium. Marking still starts at 16 KiB.
                    .egress_queue_capacity = KiB(512),
                    .pipeline_latency = workload::kSwitchPipeline,
                    .ecn_threshold = KiB(16),
                }) {
    for (int h = 0; h < kHosts; ++h) {
      nics.push_back(std::make_unique<net::HostNic>(
          sim, static_cast<net::NodeId>(h + 1), workload::kHostLinkRate,
          workload::kLinkPropagation));
      mems.push_back(std::make_unique<SparseMemory>());
      devs.push_back(
          std::make_unique<rdma::Device>(*nics[h], *mems[h], nic_config));
      nics[h]->ConnectTo(sw);
    }
  }
};

// Closed-loop read driver: keeps `window` 4 KiB reads outstanding on one QP
// pair, reposting on every completion at seeded random pool offsets, and
// counts the bytes completed inside the [measure_from, measure_until)
// window. Polling rides the event loop (no SimThread): a short periodic
// pump pops completions and reposts.
class ReadLoad {
 public:
  ReadLoad(sim::Simulation& sim, QpPair pair, const rdma::MemoryRegion* mr,
           int window, std::uint64_t seed)
      : sim_(&sim), pair_(pair), mr_(mr), window_(window), rng_(seed) {}

  void Start(Nanos measure_from, Nanos measure_until) {
    measure_from_ = measure_from;
    measure_until_ = measure_until;
    for (int i = 0; i < window_; ++i) PostOne();
    Pump();
  }

  std::uint64_t measured_bytes() const { return measured_bytes_; }
  double MeasuredGbps() const {
    return static_cast<double>(measured_bytes_) * 8.0 /
           static_cast<double>(measure_until_ - measure_from_);
  }

 private:
  void PostOne() {
    const std::uint64_t record =
        rng_.Next() % (kPoolBytes / kReadBytes);
    pair_.a->PostSend(rdma::SendWqe{
        rdma::WqeOp::kRead, next_wr_++,
        /*laddr=*/0x20000 + (next_wr_ % 64) * kReadBytes,
        mr_->base + record * kReadBytes, mr_->rkey,
        static_cast<std::uint32_t>(kReadBytes), true});
  }

  void Pump() {
    const Nanos now = sim_->Now();
    while (auto cqe = pair_.a_send_cq->Pop()) {
      if (now >= measure_from_ && now < measure_until_) {
        measured_bytes_ += kReadBytes;
      }
      if (now < measure_until_) PostOne();
    }
    if (now < measure_until_) {
      sim_->ScheduleAfter(500, [this] { Pump(); });
    }
  }

  sim::Simulation* sim_;
  QpPair pair_;
  const rdma::MemoryRegion* mr_;
  int window_;
  Rng rng_;
  std::uint64_t next_wr_ = 0;
  Nanos measure_from_ = 0;
  Nanos measure_until_ = 0;
  std::uint64_t measured_bytes_ = 0;
};

// Long enough that the sawtooth's phase does not dominate the average: the
// fairness claim is about the converged mean, several periods in.
constexpr Nanos kWarmup = Millis(1);
constexpr Nanos kMeasure = Millis(8);

TEST(DcqcnConvergence, TwoCompetingFlowsConvergeToFairShare) {
  const std::uint64_t seed = TestSeed(21);
  COWBIRD_SCOPED_SEED(seed);
  CongestedFabric f;
  // Host 0 reads from hosts 1 and 2 simultaneously: two 100G response
  // streams incast into host 0's single 100G egress port.
  QpPair flow1 = ConnectQueuePairs(*f.devs[0], *f.devs[1]);
  QpPair flow2 = ConnectQueuePairs(*f.devs[0], *f.devs[2]);
  const auto* mr1 = f.devs[1]->RegisterMemory(kPoolBase, kPoolBytes);
  const auto* mr2 = f.devs[2]->RegisterMemory(kPoolBase, kPoolBytes);

  ReadLoad load1(f.sim, flow1, mr1, /*window=*/32, seed * 2 + 1);
  ReadLoad load2(f.sim, flow2, mr2, /*window=*/32, seed * 2 + 2);
  load1.Start(kWarmup, kWarmup + kMeasure);
  load2.Start(kWarmup, kWarmup + kMeasure);
  f.sim.Run();

  const double rate1 = load1.MeasuredGbps();
  const double rate2 = load2.MeasuredGbps();
  const double fair = (rate1 + rate2) / 2;
  // The control loop really ran: marks were made and CNPs echoed back.
  EXPECT_GT(f.sw.ecn_marked(), 0u);
  EXPECT_GT(f.devs[1]->congestion()->cnps_received(), 0u);
  EXPECT_GT(f.devs[2]->congestion()->cnps_received(), 0u);
  // Convergence: each flow within 10% of the fair share of whatever the
  // two of them achieved together, and the total did not collapse (the
  // congestion-unaware failure mode is a retransmission storm that leaves
  // a fraction of line rate).
  EXPECT_GT(rate1, 0.9 * fair) << rate1 << " vs " << rate2;
  EXPECT_LT(rate1, 1.1 * fair) << rate1 << " vs " << rate2;
  EXPECT_GT(rate1 + rate2, 50.0) << "aggregate collapsed";
}

TEST(DcqcnConvergence, VictimFlowOnUncongestedPortKeepsItsSoloRate) {
  const std::uint64_t seed = TestSeed(22);
  COWBIRD_SCOPED_SEED(seed);
  // The victim (host 3) reads from host 4 while host 0 incasts from hosts
  // 1 and 2: the victim's path — host 4's uplink, the switch, host 3's
  // egress port — is disjoint from the congested port at every queue. The
  // property pins port-level isolation: congestion control must confine
  // the incast to port 0 (per-port queues, no shared-buffer accounting,
  // no pause that reaches an innocent ingress), so the victim keeps
  // >= 90% of its solo rate. A victim sharing the *sender host's uplink*
  // with the incast is the chaos kVictim scenario's job, where the fair
  // verdict is checker invariants rather than a rate floor.
  const auto run = [&](bool with_incast) {
    CongestedFabric f;
    QpPair victim = ConnectQueuePairs(*f.devs[3], *f.devs[4]);
    const auto* mr1 = f.devs[1]->RegisterMemory(kPoolBase, kPoolBytes);
    const auto* mr2 = f.devs[2]->RegisterMemory(kPoolBase, kPoolBytes);
    const auto* mr4 = f.devs[4]->RegisterMemory(kPoolBase, kPoolBytes);
    ReadLoad victim_load(f.sim, victim, mr4, /*window=*/32, seed * 3 + 1);
    std::unique_ptr<ReadLoad> incast1, incast2;
    if (with_incast) {
      QpPair flow1 = ConnectQueuePairs(*f.devs[0], *f.devs[1]);
      QpPair flow2 = ConnectQueuePairs(*f.devs[0], *f.devs[2]);
      incast1 = std::make_unique<ReadLoad>(f.sim, flow1, mr1, 32,
                                           seed * 3 + 2);
      incast2 = std::make_unique<ReadLoad>(f.sim, flow2, mr2, 32,
                                           seed * 3 + 3);
      incast1->Start(kWarmup, kWarmup + kMeasure);
      incast2->Start(kWarmup, kWarmup + kMeasure);
    }
    victim_load.Start(kWarmup, kWarmup + kMeasure);
    f.sim.Run();
    if (with_incast) {
      // The incast genuinely congested port 0 while the victim measured.
      EXPECT_GT(f.sw.ecn_marked(), 0u);
    }
    return victim_load.MeasuredGbps();
  };
  const double solo = run(/*with_incast=*/false);
  const double contended = run(/*with_incast=*/true);
  EXPECT_GT(solo, 1.0);
  EXPECT_GE(contended, 0.9 * solo) << "solo=" << solo;
}

// ------------------------------------------------------------ rack fabric

using workload::Paradigm;
using workload::RunScaleWorkload;
using workload::ScaleWorkloadConfig;
using workload::ScaleWorkloadResult;

ScaleWorkloadConfig Base(Paradigm paradigm) {
  ScaleWorkloadConfig c;  // 12 clients + 2 memory servers: the 16-node rack
  c.paradigm = paradigm;
  c.records = 20'000;
  c.warmup = Micros(100);
  c.measure = Micros(400);
  return c;
}

bool SameOutcome(const ScaleWorkloadResult& a, const ScaleWorkloadResult& b) {
  return a.client_ops == b.client_ops && a.ops == b.ops &&
         a.sim_events == b.sim_events && a.elapsed == b.elapsed;
}

TEST(ScaleSimTest, DcqcnEnabledButUnmarkedIsByteIdenticalToDefault) {
  // The default fabric never marks (ecn_threshold = 0), so an enabled
  // CongestionManager must not shift a single timestamp: unpaced flows
  // take the identical code path as a congestion-disabled run (the pacing
  // purity contract in rdma/congestion.h). This is what lets DCQCN be
  // switched on fleet-wide without re-baselining the uncontended goldens.
  const ScaleWorkloadResult off = RunScaleWorkload(Base(Paradigm::kCowbird));
  ScaleWorkloadConfig c = Base(Paradigm::kCowbird);
  c.dcqcn.enabled = true;
  const ScaleWorkloadResult on = RunScaleWorkload(c);
  EXPECT_EQ(on.ecn_marked, 0u);
  EXPECT_TRUE(SameOutcome(off, on));
}

// ------------------------------------------------- paced emission

// A packet as it reached the switch: when, and (flow, index) from its PSN.
struct Departure {
  Nanos at = 0;
  std::uint32_t flow = 0;
  std::uint32_t index = 0;
};

// Order-sensitive FNV-1a digest of a departure list.
std::uint64_t Digest(const std::vector<Departure>& seen) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (const Departure& d : seen) {
    mix(static_cast<std::uint64_t>(d.at));
    mix(d.flow);
    mix(d.index);
  }
  return h;
}

// One DCQCN NIC whose data packets are observed as they reach the switch;
// a packet's PSN carries its (flow, index).
struct PacedNic {
  CongestedFabric f;
  rdma::Device& dev = *f.devs[0];
  rdma::CongestionManager& cc = *dev.congestion();
  std::vector<Departure> seen;

  PacedNic() {
    f.nics[0]->uplink().set_drop_filter([this](const net::Packet& p) {
      const std::uint32_t tag = rdma::ParseRdmaPacket(p)->bth.psn;
      seen.push_back(Departure{f.sim.Now(), tag >> 16, tag & 0xFFFF});
      return true;  // observed at the switch; nothing needs delivering
    });
  }

  void Emit(std::uint32_t flow, std::uint32_t index) {
    rdma::Bth bth;
    bth.opcode = rdma::Opcode::kSendOnly;
    bth.dest_qp = 1;
    bth.psn = (flow << 16) | index;
    const std::vector<std::uint8_t> payload(1000, 0);
    dev.EmitPaced(flow, rdma::BuildRdmaPacket(f.nics[0]->id(),
                                              f.nics[1]->id(),
                                              net::Priority::kRdma, bth,
                                              nullptr, nullptr, payload));
  }

  // Runs until flow `qpn` is back at line rate (its pacing stopped).
  void RecoverToLineRate(std::uint32_t qpn) {
    const double line = cc.FlowRateGbps(1000);  // a flow never cut
    while (cc.FlowRateGbps(qpn) < line) f.sim.RunFor(Micros(5));
  }
};

// Where the packet numbered `index` stands in its flow's emit order, for a
// flow that emitted packets 0 .. first-1 and then 1000, 1001, ...
std::uint32_t EmitOrder(std::uint32_t index, std::uint32_t first) {
  return index >= 1000 ? first + (index - 1000) : index;
}

// Two DCQCN flows of one NIC held by their leaky buckets: flow 1 cut to the
// 5 Gbps floor with 400 packets queued, flow 2 cut to 25 Gbps with 8.
// Flow 1 recovers to line rate (which stops its pacing) while packets of
// it still wait, is cut again, and sends four more. A re-pacing CNP never
// moves the bucket back, so they leave after the 400 waiting ones: every
// flow's packets leave in emit order, each at the time its bucket gave it
// at emit.
TEST(PacedEmission, TwoFlowsOneRepacedLeaveAtPinnedTimesAndOrder) {
  PacedNic n;
  for (int i = 0; i < 5; ++i) n.cc.OnCnpReceived(1);
  for (int i = 0; i < 2; ++i) n.cc.OnCnpReceived(2);
  for (std::uint32_t i = 0; i < 400; ++i) {
    n.Emit(1, i);
    if (i < 8) n.Emit(2, i);
  }
  n.RecoverToLineRate(1);
  const Nanos repaced_at = n.f.sim.Now();
  const std::size_t left_before = n.seen.size();
  n.cc.OnCnpReceived(1);
  for (std::uint32_t i = 1000; i < 1004; ++i) n.Emit(1, i);
  n.f.sim.Run();

  const std::vector<Departure>& seen = n.seen;
  ASSERT_EQ(seen.size(), 412u);
  EXPECT_LT(left_before, 408u);  // flow 1 still had packets waiting
  std::vector<std::uint32_t> next(3, 0);
  std::size_t new_ones_at = 0;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    const Departure& d = seen[i];
    if (d.index >= 1000 && new_ones_at == 0) new_ones_at = i;
    EXPECT_EQ(EmitOrder(d.index, 400), next[d.flow]++) << "departure " << i;
  }
  // The re-paced packets leave last, after every waiting one.
  EXPECT_EQ(new_ones_at, seen.size() - 4);
  EXPECT_GT(seen[new_ones_at].at, repaced_at);
  // Pinned departures.
  EXPECT_EQ(repaced_at, 525000);
  EXPECT_EQ(left_before, 312u);
  EXPECT_EQ(new_ones_at, 408u);
  EXPECT_EQ(seen[new_ones_at].at, 692887);
  EXPECT_EQ(seen.back().at, 693406);
  EXPECT_EQ(Digest(seen), 11986830826554325381ull);
}

// A flow that recovers to line rate while packets of it still wait, and
// then emits with no CNP in between, sends its new packets behind the
// waiting ones. Once it holds nothing, its next packet takes the
// congestion-off path again: it reaches the switch as soon after emit as
// one of a flow that was never cut.
TEST(PacedEmission, RecoveredFlowSendsBehindItsWaitingPackets) {
  PacedNic n;
  for (int i = 0; i < 5; ++i) n.cc.OnCnpReceived(1);
  for (std::uint32_t i = 0; i < 400; ++i) n.Emit(1, i);
  n.RecoverToLineRate(1);
  const std::size_t left_before = n.seen.size();
  ASSERT_LT(left_before, 400u);  // flow 1 still has packets waiting
  for (std::uint32_t i = 1000; i < 1004; ++i) n.Emit(1, i);
  n.f.sim.Run();

  ASSERT_EQ(n.seen.size(), 404u);
  for (std::size_t i = 0; i < n.seen.size(); ++i) {
    EXPECT_EQ(EmitOrder(n.seen[i].index, 400), i) << "departure " << i;
  }

  const auto transit = [&n](std::uint32_t flow) {
    const Nanos emitted_at = n.f.sim.Now();
    n.Emit(flow, 2000);
    n.f.sim.Run();
    return n.seen.back().at - emitted_at;
  };
  EXPECT_EQ(transit(1), transit(3));
}

// ------------------------------------------------- chaos scenario suite

using chaos::ChaosOptions;
using chaos::ChaosResult;
using chaos::CongestionScenario;
using chaos::EngineKind;

TEST(ChaosCongestion, ScenariosPassAndSurfaceTheirCounters) {
  for (const EngineKind engine : {EngineKind::kSpot, EngineKind::kP4}) {
    for (const CongestionScenario scenario :
         {CongestionScenario::kIncast, CongestionScenario::kVictim,
          CongestionScenario::kPauseStorm}) {
      ChaosOptions opt = chaos::SweepOptions(engine, /*seed=*/4);
      opt.plan.congestion = scenario;
      const ChaosResult result = chaos::RunChaos(opt);
      EXPECT_TRUE(result.Passed())
          << chaos::EngineKindName(engine) << " "
          << chaos::CongestionScenarioName(scenario);
      if (scenario == CongestionScenario::kPauseStorm) {
        EXPECT_GT(result.link_pauses, 0u);
      } else {
        // Incast and victim shrink the queues and turn on ECN+DCQCN; the
        // contention must actually mark packets and echo CNPs.
        EXPECT_GT(result.ecn_marked, 0u);
        EXPECT_GT(result.cnps, 0u);
      }
    }
  }
}

// The storm holds the links toward the compute and memory hosts; the
// switch queues behind them must cross its own PFC watermark and pause
// their senders, on both engines, while every run stays correct.
TEST(ChaosCongestion, PauseStormDrivesTheSwitchPfc) {
  for (const EngineKind engine : {EngineKind::kSpot, EngineKind::kP4}) {
    std::uint64_t switch_pauses = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      ChaosOptions opt = chaos::SweepOptions(engine, seed);
      opt.plan.congestion = CongestionScenario::kPauseStorm;
      const ChaosResult result = chaos::RunChaos(opt);
      EXPECT_TRUE(result.Passed())
          << chaos::EngineKindName(engine) << " seed " << seed;
      switch_pauses += result.pfc_pauses;
    }
    EXPECT_GT(switch_pauses, 0u) << chaos::EngineKindName(engine);
  }
}

TEST(ChaosCongestion, IncastSweepReportByteIdenticalAcrossJobs) {
  chaos::SweepConfig config;
  config.engines = {EngineKind::kSpot};
  config.seeds = 3;
  config.start = 2;
  config.congestion = CongestionScenario::kIncast;
  config.jobs = 1;
  const chaos::SweepOutcome one = chaos::RunSweep(config);
  EXPECT_TRUE(one.ok) << one.report;
  config.jobs = 4;
  const chaos::SweepOutcome many = chaos::RunSweep(config);
  EXPECT_TRUE(many.ok) << many.report;
  EXPECT_EQ(one.report, many.report);
}

}  // namespace
}  // namespace cowbird
