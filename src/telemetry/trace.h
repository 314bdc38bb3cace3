// Virtual-time span tracing for the simulator, exported as Chrome Trace
// Event Format JSON (load in chrome://tracing or https://ui.perfetto.dev).
//
// Two kinds of record:
//
//   * Generic spans/instants on named tracks — engine activities like probe
//     rounds, GBN recovery windows, hazard pauses. Exported as complete
//     ("X") and instant ("i") events; each track becomes a named thread.
//   * Op lifecycle phases — every client op is keyed by
//     OpKey{instance, thread, is_write, seq} (the client and both engines
//     compute identical keys independently, because all sides assign
//     1-based per-type sequence numbers in FIFO order). Each side stamps
//     the phase boundaries it owns against the shared virtual clock:
//
//       kIssue    client enqueued the op (before any post cost is charged)
//       kParsed   engine fetched + parsed the metadata entry (probe pickup)
//       kExecute  engine issued the data-path transfer
//       kDone     engine completed the op and published progress
//       kRetired  client observed the red block and delivered the result
//
//     The four segments between consecutive boundaries tile the op's whole
//     client-observed latency exactly — tests assert the sum matches to the
//     nanosecond. Ops overlap freely within a thread (async issue), so they
//     are exported as async ("b"/"e") event nests, one id per op.
//
// The tracer reads time through a Clock callback rather than depending on
// sim::Simulation, keeping the telemetry library at the bottom of the
// dependency graph.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace cowbird::telemetry {

using Clock = std::function<Nanos()>;

// Identity of one client op, computable independently by client and engine.
struct OpKey {
  std::uint32_t instance_id = 0;
  std::uint32_t thread = 0;
  bool is_write = false;
  std::uint64_t seq = 0;  // 1-based per-(instance, thread, type) sequence

  friend auto operator<=>(const OpKey&, const OpKey&) = default;
  std::string ToString() const;  // e.g. "i1/t0/R#12"
};

enum class OpPhase : int {
  kIssue = 0,
  kParsed = 1,
  kExecute = 2,
  kDone = 3,
  kRetired = 4,
};
inline constexpr int kNumOpPhases = 5;
inline constexpr int kNumOpSegments = kNumOpPhases - 1;

const char* OpPhaseName(OpPhase phase);
// Segment i covers phase i -> phase i+1: "probe_pickup", "engine_queue",
// "fabric_pool", "publish_deliver".
const char* OpSegmentName(int segment);

// Recorded phase boundaries for one op; kUnset where never stamped.
struct OpBreakdown {
  static constexpr Nanos kUnset = -1;

  OpKey key;
  std::array<Nanos, kNumOpPhases> at = {kUnset, kUnset, kUnset, kUnset,
                                        kUnset};

  Nanos PhaseAt(OpPhase phase) const { return at[static_cast<int>(phase)]; }
  bool Complete() const;
  // Retired minus issue; only meaningful when Complete().
  Nanos Total() const;
  // Duration of segment i; only meaningful when Complete().
  Nanos Segment(int segment) const;
  Nanos SumOfSegments() const;
};

class SpanTracer {
 public:
  explicit SpanTracer(Clock clock);
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  Nanos Now() const { return clock_(); }

  // Re-seats the clock — for harnesses that build their simulation after
  // the hub exists (the chaos runner owns a private Simulation per run).
  void SetClock(Clock clock) { clock_ = std::move(clock); }

  // -- Generic spans ------------------------------------------------------
  struct SpanHandle {
    std::size_t index = static_cast<std::size_t>(-1);
    bool valid() const { return index != static_cast<std::size_t>(-1); }
  };
  SpanHandle Begin(std::string_view track, std::string_view name);
  void End(SpanHandle handle);  // no-op on an invalid handle
  void Instant(std::string_view track, std::string_view name);

  // -- Op lifecycle -------------------------------------------------------
  void RecordOp(const OpKey& key, OpPhase phase) {
    RecordOpAt(key, phase, clock_());
  }
  // Explicit-timestamp variant for callers that capture Now() before
  // charging simulated work (the client's issue path does).
  void RecordOpAt(const OpKey& key, OpPhase phase, Nanos ts);

  const OpBreakdown* FindOp(const OpKey& key) const;
  const std::map<OpKey, OpBreakdown>& ops() const { return ops_; }

  std::size_t span_count() const { return spans_.size(); }
  std::size_t instant_count() const { return instants_.size(); }

  // Long benchmark runs can issue millions of ops; recording stops at the
  // capacity and counts what was dropped rather than growing without bound.
  void SetOpCapacity(std::size_t n) { op_capacity_ = n; }
  void SetSpanCapacity(std::size_t n) { span_capacity_ = n; }
  void SetInstantCapacity(std::size_t n) { instant_capacity_ = n; }
  std::uint64_t dropped_ops() const { return dropped_ops_; }
  std::uint64_t dropped_spans() const { return dropped_spans_; }
  std::uint64_t dropped_instants() const { return dropped_instants_; }

  // Chrome Trace Event Format JSON: {"displayTimeUnit":"ns",
  // "traceEvents":[...]}. Deterministic for a deterministic run. Spans
  // still open are clamped to the current virtual time.
  std::string ToChromeTraceJson() const;

 private:
  struct Span {
    std::string track;
    std::string name;
    Nanos begin = 0;
    Nanos end = -1;  // -1 while open
  };
  struct InstantEvent {
    std::string track;
    std::string name;
    Nanos ts = 0;
  };

  Clock clock_;
  std::vector<Span> spans_;
  std::vector<InstantEvent> instants_;
  std::map<OpKey, OpBreakdown> ops_;
  std::size_t op_capacity_ = 1u << 18;
  std::size_t span_capacity_ = 1u << 18;
  std::size_t instant_capacity_ = 1u << 18;
  std::uint64_t dropped_ops_ = 0;
  std::uint64_t dropped_spans_ = 0;
  std::uint64_t dropped_instants_ = 0;
};

// Structural validator for the exported trace (used by tests and the bench
// drivers): parses the JSON strictly, checks every event has name/ph/ts/
// pid/tid, "X" events carry a non-negative dur, and async "b"/"e" pairs
// balance per id with non-decreasing timestamps.
bool ValidateChromeTrace(std::string_view json, std::string* error = nullptr);

}  // namespace cowbird::telemetry
