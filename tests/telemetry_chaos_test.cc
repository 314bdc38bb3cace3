// Cross-check between the two independent fault-accounting paths: the
// FaultInjector records every decision it makes (decided_* counts in
// ChaosResult), and each net::Link counts the faults actually applied to
// its traffic, surfaced through the telemetry registry as labeled gauges.
// An instrumented chaos run must show the two in exact agreement, bucket
// by bucket — any drift means a fault was applied but not decided, or
// decided but silently lost.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chaos/runner.h"
#include "telemetry/hub.h"
#include "workload/hash_workload.h"
#include "workload/scale_workload.h"

namespace cowbird::chaos {
namespace {

// Sums one gauge family ("link_faults_dropped", ...) across all its series
// in the snapshot (every link, every engine).
std::uint64_t SumGauge(const telemetry::Snapshot& snap,
                       const std::string& family) {
  std::uint64_t sum = 0;
  bool found = false;
  const std::string prefix = family + "{";
  for (const auto& entry : snap.gauges) {
    if (entry.key.compare(0, prefix.size(), prefix) == 0) {
      sum += static_cast<std::uint64_t>(entry.value);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no gauges for " << family;
  return sum;
}

ChaosOptions FaultyOptions(std::uint64_t seed) {
  ChaosOptions options;
  options.engine = EngineKind::kSpot;
  options.seed = seed;
  options.workload.threads = 2;
  options.workload.ops_per_thread = 150;
  options.plan.drop_rate = 0.02;
  options.plan.duplicate_rate = 0.02;
  options.plan.reorder_rate = 0.02;
  options.plan.delay_rate = 0.02;
  return options;
}

TEST(TelemetryChaos, LinkGaugesMatchInjectorAuditExactly) {
  telemetry::Hub hub([] { return Nanos{0}; });  // re-seated by RunChaos
  const ChaosResult result = RunChaos(FaultyOptions(7), &hub);
  ASSERT_TRUE(result.Passed()) << result.violations.size() << " violations";
  EXPECT_GT(result.faults_injected, 0u);

  const telemetry::Snapshot& snap = result.telemetry;
  EXPECT_EQ(SumGauge(snap, "link_faults_dropped"),
            result.decided_dropped);
  EXPECT_EQ(SumGauge(snap, "link_faults_duplicated"),
            result.decided_duplicated);
  EXPECT_EQ(SumGauge(snap, "link_faults_reordered"),
            result.decided_reordered);
  EXPECT_EQ(SumGauge(snap, "link_faults_delayed"),
            result.decided_delayed);
  // Something actually flowed, and the engine counters surfaced too: the
  // serving agent's series, summed with its standby's, counts its work.
  EXPECT_GT(SumGauge(snap, "link_packets_delivered"), 0u);
  EXPECT_TRUE(
      snap.GaugeValue("engine_ops_completed{agent=0,engine=spot,node=3}")
          .has_value());
  EXPECT_GT(SumGauge(snap, "engine_ops_completed"), 0u);
}

TEST(TelemetryChaos, CleanRunShowsZeroFaultGauges) {
  ChaosOptions options;
  options.engine = EngineKind::kP4;
  options.seed = 3;
  options.workload.ops_per_thread = 100;
  telemetry::Hub hub([] { return Nanos{0}; });
  const ChaosResult result = RunChaos(options, &hub);
  ASSERT_TRUE(result.Passed());
  EXPECT_EQ(result.faults_injected, 0u);
  EXPECT_EQ(SumGauge(result.telemetry, "link_faults_dropped"), 0u);
  EXPECT_EQ(SumGauge(result.telemetry, "link_faults_duplicated"), 0u);
}

TEST(TelemetryChaos, InstrumentedRunMatchesUninstrumentedRun) {
  // Telemetry must be a pure observer: same options, same history digest,
  // with and without a hub.
  const ChaosOptions options = FaultyOptions(11);
  telemetry::Hub hub([] { return Nanos{0}; });
  const ChaosResult with_hub = RunChaos(options, &hub);
  const ChaosResult without_hub = RunChaos(options);
  ASSERT_TRUE(with_hub.Passed());
  ASSERT_TRUE(without_hub.Passed());
  EXPECT_EQ(with_hub.history.size(), without_hub.history.size());
  EXPECT_EQ(with_hub.reads_checked, without_hub.reads_checked);
  EXPECT_EQ(with_hub.writes_completed, without_hub.writes_completed);
  EXPECT_EQ(with_hub.faults_injected, without_hub.faults_injected);
  EXPECT_EQ(with_hub.decided_dropped, without_hub.decided_dropped);
}

// Every gauge a run registered left the hub with the object it read.
void ExpectNoGaugeLeft(const telemetry::Hub& hub, std::string_view run) {
  for (const auto& entry : hub.metrics.TakeSnapshot().gauges) {
    ADD_FAILURE() << run << " left gauge " << entry.key;
  }
}

TEST(TelemetryChaos, HubSurvivesHarnessTeardownWithFrozenClock) {
  // The run's simulation dies inside RunChaos; the tracer clock must have
  // been frozen at the final virtual time, and the trace must still export
  // and validate after the fact.
  telemetry::Hub hub([] { return Nanos{0}; });
  const ChaosResult result = RunChaos(FaultyOptions(5), &hub);
  ASSERT_TRUE(result.Passed());
  EXPECT_GT(hub.tracer.Now(), 0);
  std::string error;
  EXPECT_TRUE(
      telemetry::ValidateChromeTrace(hub.tracer.ToChromeTraceJson(), &error))
      << error;
  // Post-teardown snapshots see no gauge at all: one left registered would
  // read a destroyed link, device, switch, pool, client or engine. Every
  // harness and shape that binds something of its own is checked, each
  // into a fresh hub.
  ExpectNoGaugeLeft(hub, "chaos spot");

  std::vector<std::pair<std::string, ChaosOptions>> chaos_runs;
  for (const EngineKind engine : {EngineKind::kSpot, EngineKind::kP4}) {
    ChaosOptions options = FaultyOptions(5);
    options.engine = engine;
    options.workload.ops_per_thread = 100;
    const std::string name =
        std::string("chaos ") + (engine == EngineKind::kSpot ? "spot" : "p4");
    chaos_runs.emplace_back(name, options);
    options.plan.migrate = true;
    chaos_runs.emplace_back(name + " migration", options);
    options.plan.migrate = false;
    options.plan.congestion = CongestionScenario::kIncast;
    chaos_runs.emplace_back(name + " incast", options);
  }
  for (const auto& [name, options] : chaos_runs) {
    telemetry::Hub h([] { return Nanos{0}; });
    EXPECT_TRUE(RunChaos(options, &h).Passed()) << name;
    ExpectNoGaugeLeft(h, name);
  }

  for (const workload::Paradigm paradigm :
       {workload::Paradigm::kCowbird, workload::Paradigm::kCowbirdP4}) {
    telemetry::Hub h([] { return Nanos{0}; });
    workload::HashWorkloadConfig c;
    c.paradigm = paradigm;
    c.records = 10'000;
    c.warmup = Micros(20);
    c.measure = Micros(100);
    c.write_fraction = 0.3;
    c.telemetry = &h;
    (void)workload::RunHashWorkload(c);
    ExpectNoGaugeLeft(h, workload::ParadigmName(paradigm));
  }

  workload::ScaleWorkloadConfig scale;
  scale.clients = 2;
  scale.records = 1'000;
  scale.warmup = Micros(20);
  scale.measure = Micros(200);
  {
    telemetry::Hub h([] { return Nanos{0}; });
    workload::ScaleWorkloadConfig c = scale;
    c.incast = true;
    c.ecn_threshold = KiB(20);
    c.dcqcn.enabled = true;
    c.telemetry = &h;
    (void)workload::RunScaleWorkload(c);
    ExpectNoGaugeLeft(h, "scale dcqcn");
  }
  {
    telemetry::Hub h([] { return Nanos{0}; });
    workload::ScaleWorkloadConfig c = scale;
    c.migrate = true;
    c.migrate_start = Micros(60);
    c.telemetry = &h;
    (void)workload::RunScaleWorkload(c);
    ExpectNoGaugeLeft(h, "scale migration");
  }
}

// True when the snapshot holds some labeled gauge of family `name`.
bool HasSeries(const telemetry::Snapshot& snap, std::string_view name) {
  for (const auto& entry : snap.gauges) {
    if (entry.key.starts_with(std::string(name) + "{")) return true;
  }
  return false;
}

void ExpectFabricSeries(const telemetry::Snapshot& snap, const char* run) {
  EXPECT_TRUE(HasSeries(snap, "nic_packets_sent")) << run;
  EXPECT_TRUE(HasSeries(snap, "qp_retransmissions")) << run;
  EXPECT_TRUE(HasSeries(snap, "link_packets_delivered")) << run;
  EXPECT_TRUE(HasSeries(snap, "switch_queue_high_water_bytes")) << run;
  EXPECT_TRUE(snap.GaugeValue("pool_high_water{pool=sim_events}").has_value())
      << run;
}

TEST(TelemetryHarnesses, EveryHarnessBindsTheSameFabricSeries) {
  {
    telemetry::Hub hub([] { return Nanos{0}; });
    workload::HashWorkloadConfig c;
    c.records = 10'000;
    c.warmup = Micros(20);
    c.measure = Micros(100);
    c.telemetry = &hub;
    ExpectFabricSeries(workload::RunHashWorkload(c).telemetry, "hash");
  }
  {
    telemetry::Hub hub([] { return Nanos{0}; });
    workload::ScaleWorkloadConfig c;
    c.clients = 2;
    c.records = 1'000;
    c.warmup = Micros(20);
    c.measure = Micros(100);
    c.telemetry = &hub;
    ExpectFabricSeries(workload::RunScaleWorkload(c).telemetry, "scale");
  }
  {
    telemetry::Hub hub([] { return Nanos{0}; });
    ExpectFabricSeries(RunChaos(FaultyOptions(3), &hub).telemetry, "chaos");
  }
}

}  // namespace
}  // namespace cowbird::chaos
