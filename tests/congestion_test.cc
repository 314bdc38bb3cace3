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
