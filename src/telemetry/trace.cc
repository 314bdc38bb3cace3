#include "telemetry/trace.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/check.h"
#include "telemetry/json.h"

namespace cowbird::telemetry {

std::string OpKey::ToString() const {
  return "i" + std::to_string(instance_id) + "/t" + std::to_string(thread) +
         "/" + (is_write ? "W#" : "R#") + std::to_string(seq);
}

const char* OpPhaseName(OpPhase phase) {
  switch (phase) {
    case OpPhase::kIssue: return "issue";
    case OpPhase::kParsed: return "parsed";
    case OpPhase::kExecute: return "execute";
    case OpPhase::kDone: return "done";
    case OpPhase::kRetired: return "retired";
  }
  return "?";
}

const char* OpSegmentName(int segment) {
  switch (segment) {
    case 0: return "probe_pickup";
    case 1: return "engine_queue";
    case 2: return "fabric_pool";
    case 3: return "publish_deliver";
  }
  return "?";
}

bool OpBreakdown::Complete() const {
  for (const Nanos ts : at) {
    if (ts == kUnset) return false;
  }
  return true;
}

Nanos OpBreakdown::Total() const {
  return at[kNumOpPhases - 1] - at[0];
}

Nanos OpBreakdown::Segment(int segment) const {
  COWBIRD_CHECK(segment >= 0 && segment < kNumOpSegments);
  return at[segment + 1] - at[segment];
}

Nanos OpBreakdown::SumOfSegments() const {
  Nanos sum = 0;
  for (int i = 0; i < kNumOpSegments; ++i) sum += Segment(i);
  return sum;
}

SpanTracer::SpanTracer(Clock clock) : clock_(std::move(clock)) {
  COWBIRD_CHECK(clock_ != nullptr);
}

SpanTracer::SpanHandle SpanTracer::Begin(std::string_view track,
                                         std::string_view name) {
  if (spans_.size() >= span_capacity_) {
    ++dropped_spans_;
    return SpanHandle{};
  }
  Span span;
  span.track = std::string(track);
  span.name = std::string(name);
  span.begin = clock_();
  spans_.push_back(std::move(span));
  return SpanHandle{spans_.size() - 1};
}

void SpanTracer::End(SpanHandle handle) {
  if (!handle.valid()) return;
  COWBIRD_CHECK(handle.index < spans_.size());
  Span& span = spans_[handle.index];
  COWBIRD_CHECK(span.end == -1);
  span.end = clock_();
  COWBIRD_CHECK(span.end >= span.begin);
}

void SpanTracer::Instant(std::string_view track, std::string_view name) {
  if (instants_.size() >= instant_capacity_) {
    ++dropped_instants_;
    return;
  }
  instants_.push_back({std::string(track), std::string(name), clock_()});
}

void SpanTracer::RecordOpAt(const OpKey& key, OpPhase phase, Nanos ts) {
  auto it = ops_.find(key);
  if (it == ops_.end()) {
    if (ops_.size() >= op_capacity_) {
      ++dropped_ops_;
      return;
    }
    it = ops_.emplace(key, OpBreakdown{}).first;
    it->second.key = key;
  }
  // First stamp wins: a retransmitted or crash-migrated op may be parsed a
  // second time, but its lifecycle started at the first observation.
  Nanos& slot = it->second.at[static_cast<int>(phase)];
  if (slot == OpBreakdown::kUnset) slot = ts;
}

const OpBreakdown* SpanTracer::FindOp(const OpKey& key) const {
  const auto it = ops_.find(key);
  return it == ops_.end() ? nullptr : &it->second;
}

namespace {

// One Chrome trace event, pre-sorted by (ts, creation order) at export.
struct TraceEvent {
  Nanos ts = 0;
  std::size_t order = 0;
  char ph = 'X';
  std::string name;
  const char* cat = "span";
  std::string id;  // async events only
  int tid = 0;
  Nanos dur = 0;  // X only
};

// Chrome trace timestamps are microseconds; emit ns as fractional us so no
// precision is lost.
void EmitMicros(JsonWriter& w, Nanos ns) {
  COWBIRD_CHECK(ns >= 0);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  w.RawNumber(buf);
}

}  // namespace

std::string SpanTracer::ToChromeTraceJson() const {
  const Nanos now = clock_();

  // Assign tids: every track name, sorted, so the layout is deterministic
  // regardless of first-use order.
  std::set<std::string> track_names;
  for (const Span& span : spans_) track_names.insert(span.track);
  for (const InstantEvent& ev : instants_) track_names.insert(ev.track);
  for (const auto& [key, breakdown] : ops_) {
    (void)breakdown;
    track_names.insert("ops/i" + std::to_string(key.instance_id) + "/t" +
                       std::to_string(key.thread));
  }
  std::map<std::string, int> tid_of;
  int next_tid = 1;
  for (const std::string& name : track_names) tid_of[name] = next_tid++;

  std::vector<TraceEvent> events;
  events.reserve(spans_.size() + instants_.size() + ops_.size() * 10);
  auto add = [&events](TraceEvent ev) {
    ev.order = events.size();
    events.push_back(std::move(ev));
  };

  for (const Span& span : spans_) {
    TraceEvent ev;
    ev.ts = span.begin;
    ev.ph = 'X';
    ev.name = span.name;
    ev.tid = tid_of.at(span.track);
    ev.dur = (span.end == -1 ? now : span.end) - span.begin;
    add(std::move(ev));
  }
  for (const InstantEvent& instant : instants_) {
    TraceEvent ev;
    ev.ts = instant.ts;
    ev.ph = 'i';
    ev.name = instant.name;
    ev.tid = tid_of.at(instant.track);
    add(std::move(ev));
  }
  for (const auto& [key, breakdown] : ops_) {
    std::vector<int> recorded;
    for (int i = 0; i < kNumOpPhases; ++i) {
      if (breakdown.at[i] != OpBreakdown::kUnset) recorded.push_back(i);
    }
    if (recorded.empty()) continue;
    const int tid = tid_of.at("ops/i" + std::to_string(key.instance_id) +
                              "/t" + std::to_string(key.thread));
    const std::string id = key.ToString();
    const std::string op_name =
        (key.is_write ? "W#" : "R#") + std::to_string(key.seq);
    if (recorded.size() == 1) {
      TraceEvent ev;
      ev.ts = breakdown.at[recorded[0]];
      ev.ph = 'i';
      ev.name = op_name + ":" +
                OpPhaseName(static_cast<OpPhase>(recorded[0]));
      ev.cat = "op";
      ev.tid = tid;
      add(std::move(ev));
      continue;
    }
    // Outer async span over the whole recorded lifetime, with one nested
    // async span per segment between consecutive recorded phases.
    auto async = [&](char ph, std::string name, Nanos ts) {
      TraceEvent ev;
      ev.ts = ts;
      ev.ph = ph;
      ev.name = std::move(name);
      ev.cat = "op";
      ev.id = id;
      ev.tid = tid;
      add(std::move(ev));
    };
    async('b', op_name, breakdown.at[recorded.front()]);
    for (std::size_t i = 0; i + 1 < recorded.size(); ++i) {
      const int from = recorded[i];
      const int to = recorded[i + 1];
      const std::string segment =
          to == from + 1
              ? OpSegmentName(from)
              : std::string(OpPhaseName(static_cast<OpPhase>(from))) + ".." +
                    OpPhaseName(static_cast<OpPhase>(to));
      async('b', segment, breakdown.at[from]);
      async('e', segment, breakdown.at[to]);
    }
    async('e', op_name, breakdown.at[recorded.back()]);
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.order < b.order;
                   });

  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ns");
  w.Key("traceEvents");
  w.BeginArray();
  // Process / thread naming metadata first.
  w.BeginObject();
  w.Key("name");
  w.String("process_name");
  w.Key("ph");
  w.String("M");
  w.Key("ts");
  w.Uint(0);
  w.Key("pid");
  w.Uint(1);
  w.Key("tid");
  w.Uint(0);
  w.Key("args");
  w.BeginObject();
  w.Key("name");
  w.String("cowbird-sim");
  w.EndObject();
  w.EndObject();
  for (const auto& [track, tid] : tid_of) {
    w.BeginObject();
    w.Key("name");
    w.String("thread_name");
    w.Key("ph");
    w.String("M");
    w.Key("ts");
    w.Uint(0);
    w.Key("pid");
    w.Uint(1);
    w.Key("tid");
    w.Int(tid);
    w.Key("args");
    w.BeginObject();
    w.Key("name");
    w.String(track);
    w.EndObject();
    w.EndObject();
  }
  for (const TraceEvent& ev : events) {
    w.BeginObject();
    w.Key("name");
    w.String(ev.name);
    w.Key("cat");
    w.String(ev.cat);
    w.Key("ph");
    w.String(std::string_view(&ev.ph, 1));
    w.Key("ts");
    EmitMicros(w, ev.ts);
    w.Key("pid");
    w.Uint(1);
    w.Key("tid");
    w.Int(ev.tid);
    if (ev.ph == 'X') {
      w.Key("dur");
      EmitMicros(w, ev.dur);
    }
    if (ev.ph == 'i') {
      w.Key("s");
      w.String("t");
    }
    if (ev.ph == 'b' || ev.ph == 'e') {
      w.Key("id");
      w.String(ev.id);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

bool ValidateChromeTrace(std::string_view json, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr && error->empty()) *error = message;
    return false;
  };
  std::string parse_error;
  const auto doc = ParseJson(json, &parse_error);
  if (!doc) return fail("parse error: " + parse_error);
  if (!doc->IsObject()) return fail("top level is not an object");
  const JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->IsArray()) {
    return fail("missing traceEvents array");
  }
  // Open async ("b") event timestamps per cat/id, used as a stack.
  std::map<std::string, std::vector<double>> open_async;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& ev = events->array[i];
    const std::string at = "event " + std::to_string(i) + ": ";
    if (!ev.IsObject()) return fail(at + "not an object");
    const JsonValue* name = ev.Find("name");
    if (name == nullptr || !name->IsString()) return fail(at + "bad name");
    const JsonValue* ph = ev.Find("ph");
    if (ph == nullptr || !ph->IsString() || ph->string.size() != 1) {
      return fail(at + "bad ph");
    }
    for (const char* field : {"ts", "pid", "tid"}) {
      const JsonValue* v = ev.Find(field);
      if (v == nullptr || !v->IsNumber()) {
        return fail(at + "bad " + field);
      }
    }
    const double ts = ev.Find("ts")->number;
    if (ts < 0) return fail(at + "negative ts");
    switch (ph->string[0]) {
      case 'M':
        break;
      case 'i':
        break;
      case 'X': {
        const JsonValue* dur = ev.Find("dur");
        if (dur == nullptr || !dur->IsNumber() || dur->number < 0) {
          return fail(at + "X event without non-negative dur");
        }
        break;
      }
      case 'b':
      case 'e': {
        const JsonValue* cat = ev.Find("cat");
        const JsonValue* id = ev.Find("id");
        if (cat == nullptr || !cat->IsString() || id == nullptr ||
            !id->IsString()) {
          return fail(at + "async event without cat/id");
        }
        auto& stack = open_async[cat->string + "\x1f" + id->string];
        if (ph->string[0] == 'b') {
          stack.push_back(ts);
        } else {
          if (stack.empty()) return fail(at + "'e' without matching 'b'");
          if (ts < stack.back()) return fail(at + "'e' before its 'b'");
          stack.pop_back();
        }
        break;
      }
      default:
        return fail(at + "unknown ph '" + ph->string + "'");
    }
  }
  for (const auto& [id, stack] : open_async) {
    if (!stack.empty()) {
      return fail("unbalanced async span id " + id.substr(id.find('\x1f') + 1));
    }
  }
  return true;
}

}  // namespace cowbird::telemetry
