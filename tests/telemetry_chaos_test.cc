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

#include "chaos/runner.h"
#include "telemetry/hub.h"
#include "workload/hash_workload.h"
#include "workload/scale_workload.h"

namespace cowbird::chaos {
namespace {

// Sums one link gauge family ("link_faults_dropped", ...) across all links
// in the snapshot.
std::uint64_t SumLinkGauge(const telemetry::Snapshot& snap,
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
  EXPECT_EQ(SumLinkGauge(snap, "link_faults_dropped"),
            result.decided_dropped);
  EXPECT_EQ(SumLinkGauge(snap, "link_faults_duplicated"),
            result.decided_duplicated);
  EXPECT_EQ(SumLinkGauge(snap, "link_faults_reordered"),
            result.decided_reordered);
  EXPECT_EQ(SumLinkGauge(snap, "link_faults_delayed"),
            result.decided_delayed);
  // Something actually flowed, and the engine counters surfaced too.
  EXPECT_GT(SumLinkGauge(snap, "link_packets_delivered"), 0u);
  EXPECT_TRUE(
      snap.GaugeValue("engine_ops_completed{engine=spot,node=3}").has_value());
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
  EXPECT_EQ(SumLinkGauge(result.telemetry, "link_faults_dropped"), 0u);
  EXPECT_EQ(SumLinkGauge(result.telemetry, "link_faults_duplicated"), 0u);
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
  // Post-teardown snapshots no longer see the per-run gauges: a callback
  // gauge left bound would read a destroyed link, device, switch or pool.
  const telemetry::Snapshot after = hub.metrics.TakeSnapshot();
  for (const auto& entry : after.gauges) {
    for (const char* family : {"link_", "nic_", "switch_", "pool_high_water"}) {
      EXPECT_EQ(entry.key.find(family), std::string::npos) << entry.key;
    }
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
