// Unit tests for the telemetry layer: metric registry semantics (label
// canonicalization, handle dedup, snapshot determinism, one layout in every
// build mode), callback-gauge ownership, virtual-time span
// tracing, op-lifecycle breakdowns, the Chrome Trace Event export (golden
// file + structural validator), and the minimal JSON writer/parser the
// exports are built on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/units.h"
#include "net/link.h"
#include "sim/simulation.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace cowbird::telemetry {
namespace {

// A handle is one pointer whether or not NDEBUG is set, so code built in
// different modes can share handles and registries (perfbench builds its
// driver separately from the library).
static_assert(sizeof(Counter) == sizeof(void*));
static_assert(sizeof(Histogram) == sizeof(void*));

// ---------------------------------------------------------------------------
// JSON writer / parser
// ---------------------------------------------------------------------------

TEST(TelemetryJson, WriterEmitsCompactDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.String("a\"b\\c\n");
  w.Key("n");
  w.Uint(42);
  w.Key("arr");
  w.BeginArray();
  w.Int(-1);
  w.Bool(true);
  w.Double(1.5);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\",\"n\":42,\"arr\":[-1,true,1.5]}");
}

TEST(TelemetryJson, RoundTripsThroughParser) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("probe");
  w.Key("values");
  w.BeginArray();
  w.Uint(1);
  w.Uint(2);
  w.EndArray();
  w.EndObject();

  std::string error;
  const auto doc = ParseJson(w.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->IsObject());
  const JsonValue* name = doc->Find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->string, "probe");
  const JsonValue* values = doc->Find("values");
  ASSERT_NE(values, nullptr);
  ASSERT_EQ(values->array.size(), 2u);
  EXPECT_EQ(values->array[1].number, 2.0);
}

TEST(TelemetryJson, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{").has_value());
  EXPECT_FALSE(ParseJson("{}garbage").has_value());
  EXPECT_FALSE(ParseJson("{\"a\":1,\"a\":2}").has_value());  // duplicate key
  EXPECT_FALSE(ParseJson("[1,]").has_value());
  std::string error;
  EXPECT_FALSE(ParseJson("nul", &error).has_value());
  EXPECT_FALSE(error.empty());
}

// Arrays nested `depth` deep around a number.
std::string Nested(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') + "1" +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(TelemetryJson, ParserRefusesNestingDeeperThan64) {
  EXPECT_TRUE(ParseJson(Nested(64)).has_value());
  std::string error;
  EXPECT_FALSE(ParseJson(Nested(65), &error).has_value());
  EXPECT_EQ(error, "offset 64: nesting deeper than 64");
  // Refused at the cap, long before the recursion could exhaust the stack.
  EXPECT_FALSE(ParseJson(Nested(100'000)).has_value());
}

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

TEST(MetricRegistry, CanonicalKeySortsLabels) {
  EXPECT_EQ(CanonicalMetricKey("ops", {}), "ops");
  EXPECT_EQ(CanonicalMetricKey("ops", {{"b", "2"}, {"a", "1"}}),
            "ops{a=1,b=2}");
}

TEST(MetricRegistry, LabelOrderDedupsToOneSeries) {
  MetricRegistry registry;
  Counter c1 = registry.GetCounter("ops", {{"engine", "p4"}, {"thread", "0"}});
  Counter c2 = registry.GetCounter("ops", {{"thread", "0"}, {"engine", "p4"}});
  c1.Add();
  c2.Add(2);
  EXPECT_EQ(c1.value(), 3u);
  EXPECT_EQ(registry.TakeSnapshot().counters.size(), 1u);
}

TEST(MetricRegistry, InstanceLabelsIsolateSeries) {
  // Two engine instances share metric names but never cells.
  MetricRegistry registry;
  Counter a = registry.GetCounter("engine_ops", {{"instance", "1"}});
  Counter b = registry.GetCounter("engine_ops", {{"instance", "2"}});
  a.Add(5);
  b.Add(7);
  const Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.CounterValue("engine_ops{instance=1}"), 5u);
  EXPECT_EQ(snap.CounterValue("engine_ops{instance=2}"), 7u);
  EXPECT_FALSE(snap.CounterValue("engine_ops{instance=3}").has_value());
}

TEST(MetricRegistry, UnboundHandlesAreSafe) {
  Counter counter;
  Histogram histogram;
  CallbackGauges gauges;
  counter.Add(3);
  histogram.Observe(100);
  gauges.Clear();  // holds nothing, bound to no registry
  // No registry involved; the writes go nowhere.
  EXPECT_EQ(counter.value(), 0u);
}

TEST(MetricRegistry, GaugesAndCallbackGauges) {
  MetricRegistry registry;
  CallbackGauges gauges;
  std::int64_t live = 99;
  gauges.Register(registry, "live", {}, [&live] { return live; });
  gauges.Register(registry, "depth", {{"qp", "to_compute"}},
                  [] { return std::int64_t{-2}; });
  live = 41;  // evaluated only at snapshot time

  Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.GaugeValue("depth{qp=to_compute}"), -2);
  EXPECT_EQ(snap.GaugeValue("live"), 41);

  gauges.Clear();
  gauges.Clear();  // idempotent
  snap = registry.TakeSnapshot();
  EXPECT_TRUE(snap.gauges.empty());
}

TEST(MetricRegistry, ReregisteringCallbackGaugeReplacesIt) {
  // Migration rebinds: the new instance's callback takes over the series.
  MetricRegistry registry;
  CallbackGauges old_owner, new_owner;
  old_owner.Register(registry, "inflight", {}, [] { return 1; });
  new_owner.Register(registry, "inflight", {}, [] { return 2; });
  const Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.GaugeValue("inflight"), 2);
}

TEST(MetricRegistry, SnapshotIsDeterministic) {
  auto populate = [](MetricRegistry& registry, CallbackGauges& gauges) {
    // Insertion order differs from canonical order on purpose.
    registry.GetCounter("z_ops", {{"b", "2"}}).Add(9);
    registry.GetCounter("a_ops", {{"x", "1"}, {"a", "0"}}).Add(4);
    gauges.Register(registry, "depth", {}, [] { return -3; });
    registry.GetHistogram("lat").Observe(1000);
    registry.GetHistogram("lat").Observe(3);
    gauges.Register(registry, "cb", {{"k", "v"}}, [] { return 7; });
  };
  MetricRegistry r1, r2;
  CallbackGauges g1, g2;
  populate(r1, g1);
  populate(r2, g2);
  const std::string j1 = r1.TakeSnapshot().ToJson();
  const std::string j2 = r2.TakeSnapshot().ToJson();
  EXPECT_EQ(j1, j2);
  // Same registry snapshotted twice is also byte-identical.
  EXPECT_EQ(r1.TakeSnapshot().ToJson(), j1);

  std::string error;
  const auto doc = ParseJson(j1, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->object.size(), 2u);
  // Canonical (sorted) order, not insertion order.
  EXPECT_EQ(counters->object[0].first, "a_ops{a=0,x=1}");
  EXPECT_EQ(counters->object[1].first, "z_ops{b=2}");
  const JsonValue* gauges = doc->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_EQ(gauges->object.size(), 2u);
  EXPECT_EQ(gauges->object[0].first, "cb{k=v}");
  EXPECT_EQ(gauges->object[1].first, "depth");
}

// ---------------------------------------------------------------------------
// Callback-gauge ownership
// ---------------------------------------------------------------------------

TEST(CallbackGauges, DestroyingOrClearingTheSetRemovesItsSeries) {
  MetricRegistry registry;
  CallbackGauges kept;
  kept.Register(registry, "kept", {}, [] { return 1; });
  {
    CallbackGauges scoped;
    scoped.Register(registry, "scoped", {{"k", "a"}}, [] { return 2; });
    scoped.Register(registry, "scoped", {{"k", "b"}}, [] { return 3; });
    EXPECT_EQ(registry.TakeSnapshot().gauges.size(), 3u);
  }
  Snapshot snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.GaugeValue("kept"), 1);

  kept.Clear();
  EXPECT_TRUE(registry.TakeSnapshot().gauges.empty());
  kept.Clear();  // idempotent
  // A cleared set registers again, and its destructor removes that too.
  kept.Register(registry, "again", {}, [] { return 4; });
  EXPECT_EQ(registry.TakeSnapshot().GaugeValue("again"), 4);
}

TEST(CallbackGauges, SeriesALaterOwnerReplacedSurvivesTheEarlierOwner) {
  // An instance re-attached elsewhere re-registers its series before the
  // old binding dies; the old owner must not take the new one with it.
  MetricRegistry registry;
  CallbackGauges later;
  {
    CallbackGauges earlier;
    earlier.Register(registry, "inflight", {{"instance", "1"}},
                     [] { return 1; });
    earlier.Register(registry, "only_earlier", {}, [] { return 5; });
    later.Register(registry, "inflight", {{"instance", "1"}},
                   [] { return 2; });
  }
  const Snapshot snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.GaugeValue("inflight{instance=1}"), 2);
}

TEST(CallbackGauges, SecondBindTelemetryReplacesTheObjectsSeries) {
  sim::Simulation sim;
  MetricRegistry registry;
  auto link_series = [&registry](std::string_view label) {
    int n = 0;
    for (const auto& entry : registry.TakeSnapshot().gauges) {
      if (entry.key.starts_with("link_") &&
          entry.key.find(label) != std::string::npos) {
        ++n;
      }
    }
    return n;
  };
  {
    net::Link link(sim, BitRate::Gbps(100), 150);
    link.BindTelemetry(registry, {{"link", "first"}});
    const int per_bind = link_series("link=first");
    EXPECT_GT(per_bind, 0);
    link.BindTelemetry(registry, {{"link", "second"}});
    EXPECT_EQ(link_series("link=first"), 0);
    EXPECT_EQ(link_series("link=second"), per_bind);
    EXPECT_EQ(registry.TakeSnapshot().gauges.size(),
              static_cast<std::size_t>(per_bind));
  }
  EXPECT_TRUE(registry.TakeSnapshot().gauges.empty());
}

TEST(MetricRegistry, SnapshotHistogramEntries) {
  MetricRegistry registry;
  Histogram h = registry.GetHistogram("lat", {{"engine", "spot"}});
  for (int i = 0; i < 100; ++i) h.Observe(1000);  // bucket 10
  const Snapshot snap = registry.TakeSnapshot();
  const auto* entry = snap.FindHistogram("lat{engine=spot}");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 100u);
  EXPECT_EQ(entry->p50, 1023u);
  EXPECT_EQ(entry->p99, 1023u);
  ASSERT_EQ(entry->buckets.size(), 1u);
  EXPECT_EQ(entry->buckets[0].first, 10);
  EXPECT_EQ(entry->buckets[0].second, 100u);
}

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

TEST(SpanTracer, SpansFollowTheVirtualClock) {
  Nanos now = 0;
  SpanTracer tracer([&now] { return now; });
  now = 1000;
  const auto outer = tracer.Begin("engine/probe", "round");
  now = 1200;
  const auto inner = tracer.Begin("engine/probe", "fetch");
  now = 1500;
  tracer.End(inner);
  now = 2000;
  tracer.End(outer);
  tracer.Instant("engine/gbn", "recover");
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.instant_count(), 1u);

  const std::string json = tracer.ToChromeTraceJson();
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(json, &error)) << error;
}

TEST(SpanTracer, EndOnInvalidHandleIsNoOp) {
  Nanos now = 0;
  SpanTracer tracer([&now] { return now; });
  tracer.End(SpanTracer::SpanHandle{});
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(SpanTracer, CapacityCapsCountDrops) {
  Nanos now = 0;
  SpanTracer tracer([&now] { return now; });
  tracer.SetSpanCapacity(2);
  tracer.SetInstantCapacity(1);
  tracer.SetOpCapacity(1);
  (void)tracer.Begin("t", "a");
  (void)tracer.Begin("t", "b");
  (void)tracer.Begin("t", "c");  // dropped
  tracer.Instant("t", "x");
  tracer.Instant("t", "y");  // dropped
  tracer.RecordOp(OpKey{1, 0, false, 1}, OpPhase::kIssue);
  tracer.RecordOp(OpKey{1, 0, false, 2}, OpPhase::kIssue);  // dropped
  EXPECT_EQ(tracer.dropped_spans(), 1u);
  EXPECT_EQ(tracer.dropped_instants(), 1u);
  EXPECT_EQ(tracer.dropped_ops(), 1u);
  // Re-stamping a tracked op is not a drop.
  tracer.RecordOp(OpKey{1, 0, false, 1}, OpPhase::kRetired);
  EXPECT_EQ(tracer.dropped_ops(), 1u);
}

TEST(SpanTracer, OpBreakdownSegmentsTileTheTotal) {
  Nanos now = 0;
  SpanTracer tracer([&now] { return now; });
  const OpKey key{7, 3, true, 12};
  const Nanos stamps[] = {100, 250, 300, 900, 1400};
  for (int p = 0; p < kNumOpPhases; ++p) {
    tracer.RecordOpAt(key, static_cast<OpPhase>(p), stamps[p]);
  }
  const OpBreakdown* op = tracer.FindOp(key);
  ASSERT_NE(op, nullptr);
  EXPECT_TRUE(op->Complete());
  EXPECT_EQ(op->Total(), 1300);
  EXPECT_EQ(op->SumOfSegments(), op->Total());
  EXPECT_EQ(op->Segment(0), 150);
  EXPECT_EQ(op->Segment(3), 500);
  EXPECT_EQ(key.ToString(), "i7/t3/W#12");
}

TEST(SpanTracer, FirstStampWins) {
  // A GBN retransmit or crash migration can re-parse an op; its lifecycle
  // started at the first observation.
  Nanos now = 0;
  SpanTracer tracer([&now] { return now; });
  const OpKey key{1, 0, false, 1};
  tracer.RecordOpAt(key, OpPhase::kParsed, 500);
  tracer.RecordOpAt(key, OpPhase::kParsed, 900);
  EXPECT_EQ(tracer.FindOp(key)->PhaseAt(OpPhase::kParsed), 500);
}

TEST(SpanTracer, ChromeTraceGolden) {
  // Byte-exact golden for a tiny deterministic trace: one closed span, one
  // instant, and one fully recorded op. Loadable in chrome://tracing.
  Nanos now = 0;
  SpanTracer tracer([&now] { return now; });
  now = 1000;
  const auto span = tracer.Begin("p4/i1/probe", "probe");
  now = 2500;
  tracer.End(span);
  now = 3000;
  tracer.Instant("p4/gbn", "recover");
  const OpKey key{1, 0, false, 1};
  tracer.RecordOpAt(key, OpPhase::kIssue, 100);
  tracer.RecordOpAt(key, OpPhase::kParsed, 1100);
  tracer.RecordOpAt(key, OpPhase::kExecute, 1100);
  tracer.RecordOpAt(key, OpPhase::kDone, 2100);
  tracer.RecordOpAt(key, OpPhase::kRetired, 3100);

  const std::string json = tracer.ToChromeTraceJson();
  std::string error;
  ASSERT_TRUE(ValidateChromeTrace(json, &error)) << error << "\n" << json;

  const std::string golden =
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"cowbird-sim\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"ops/i1/t0\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"p4/gbn\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":3,"
      "\"args\":{\"name\":\"p4/i1/probe\"}},"
      "{\"name\":\"R#1\",\"cat\":\"op\",\"ph\":\"b\",\"ts\":0.100,\"pid\":1,"
      "\"tid\":1,\"id\":\"i1/t0/R#1\"},"
      "{\"name\":\"probe_pickup\",\"cat\":\"op\",\"ph\":\"b\",\"ts\":0.100,"
      "\"pid\":1,\"tid\":1,\"id\":\"i1/t0/R#1\"},"
      "{\"name\":\"probe\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":1.000,"
      "\"pid\":1,\"tid\":3,\"dur\":1.500},"
      "{\"name\":\"probe_pickup\",\"cat\":\"op\",\"ph\":\"e\",\"ts\":1.100,"
      "\"pid\":1,\"tid\":1,\"id\":\"i1/t0/R#1\"},"
      "{\"name\":\"engine_queue\",\"cat\":\"op\",\"ph\":\"b\",\"ts\":1.100,"
      "\"pid\":1,\"tid\":1,\"id\":\"i1/t0/R#1\"},"
      "{\"name\":\"engine_queue\",\"cat\":\"op\",\"ph\":\"e\",\"ts\":1.100,"
      "\"pid\":1,\"tid\":1,\"id\":\"i1/t0/R#1\"},"
      "{\"name\":\"fabric_pool\",\"cat\":\"op\",\"ph\":\"b\",\"ts\":1.100,"
      "\"pid\":1,\"tid\":1,\"id\":\"i1/t0/R#1\"},"
      "{\"name\":\"fabric_pool\",\"cat\":\"op\",\"ph\":\"e\",\"ts\":2.100,"
      "\"pid\":1,\"tid\":1,\"id\":\"i1/t0/R#1\"},"
      "{\"name\":\"publish_deliver\",\"cat\":\"op\",\"ph\":\"b\",\"ts\":2.100,"
      "\"pid\":1,\"tid\":1,\"id\":\"i1/t0/R#1\"},"
      "{\"name\":\"recover\",\"cat\":\"span\",\"ph\":\"i\",\"ts\":3.000,"
      "\"pid\":1,\"tid\":2,\"s\":\"t\"},"
      "{\"name\":\"publish_deliver\",\"cat\":\"op\",\"ph\":\"e\",\"ts\":3.100,"
      "\"pid\":1,\"tid\":1,\"id\":\"i1/t0/R#1\"},"
      "{\"name\":\"R#1\",\"cat\":\"op\",\"ph\":\"e\",\"ts\":3.100,\"pid\":1,"
      "\"tid\":1,\"id\":\"i1/t0/R#1\"}"
      "]}";
  EXPECT_EQ(json, golden);
}

TEST(SpanTracer, OpenSpansClampToNow) {
  Nanos now = 100;
  SpanTracer tracer([&now] { return now; });
  (void)tracer.Begin("t", "open");
  now = 700;
  const std::string json = tracer.ToChromeTraceJson();
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(json, &error)) << error;
  EXPECT_NE(json.find("\"dur\":0.600"), std::string::npos) << json;
}

TEST(SpanTracer, SinglePhaseOpExportsAsInstant) {
  Nanos now = 0;
  SpanTracer tracer([&now] { return now; });
  tracer.RecordOpAt(OpKey{2, 1, true, 5}, OpPhase::kParsed, 400);
  const std::string json = tracer.ToChromeTraceJson();
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(json, &error)) << error;
  EXPECT_NE(json.find("\"name\":\"W#5:parsed\""), std::string::npos) << json;
}

TEST(ValidateChromeTrace, RejectsStructuralViolations) {
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace("not json", &error));
  EXPECT_FALSE(ValidateChromeTrace("{}", &error));  // no traceEvents
  // X without dur.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1,\"pid\":1,"
      "\"tid\":1}]}",
      &error));
  // Unbalanced async pair.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"cat\":\"op\",\"ph\":\"b\","
      "\"ts\":1,\"pid\":1,\"tid\":1,\"id\":\"x\"}]}",
      &error));
  // 'e' before its 'b'.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"cat\":\"op\",\"ph\":\"e\","
      "\"ts\":1,\"pid\":1,\"tid\":1,\"id\":\"x\"}]}",
      &error));
  // Well-formed minimal trace passes.
  EXPECT_TRUE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1,\"pid\":1,"
      "\"tid\":1,\"dur\":0}]}",
      &error))
      << error;
}

}  // namespace
}  // namespace cowbird::telemetry
