// One bag of telemetry state for a simulation run: a metric registry plus a
// span tracer bound to the run's virtual clock.
//
// Components take a `telemetry::Hub*` in their Config and treat nullptr as
// "telemetry off": counters fall back to unbound handles (writes are
// no-ops), span/op recording is skipped behind a single pointer test. The
// workload harness constructs one Hub per run:
//
//   telemetry::Hub hub([&sim] { return sim.Now(); });
//   config.telemetry = &hub;
//   ...
//   WriteFile("trace.json", hub.tracer.ToChromeTraceJson());
//   WriteFile("snapshot.json", hub.metrics.TakeSnapshot().ToJson());
#pragma once

#include <utility>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace cowbird::telemetry {

struct Hub {
  explicit Hub(Clock clock) : tracer(std::move(clock)) {}
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  MetricRegistry metrics;
  SpanTracer tracer;
};

}  // namespace cowbird::telemetry
