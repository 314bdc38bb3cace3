// Minimal JSON support for the telemetry layer.
//
// Two halves, both deliberately small:
//
//   * JsonWriter — an append-only emitter used by Snapshot::ToJson and
//     SpanTracer::ToChromeTraceJson. Output is deterministic: callers emit
//     keys in a fixed order and the writer never reorders anything, which is
//     what lets tests golden-file the exported documents byte for byte.
//   * JsonValue / ParseJson — a strict recursive-descent parser used by the
//     golden-file validators (trace and bench snapshots round-trip through
//     it in tests). It supports exactly the subset the emitters produce:
//     objects, arrays, strings with \-escapes, numbers, booleans, null.
//
// Nothing here is a general-purpose JSON library; it exists so the repo can
// validate its own machine-readable outputs without an external dependency.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cowbird::telemetry {

std::string JsonEscape(std::string_view raw);

// Formats a double the way the emitters do: integers without a fraction,
// everything else with up to 6 significant decimals, never scientific for
// the magnitudes telemetry produces.
std::string JsonNumber(double value);

class JsonWriter {
 public:
  // Structural helpers; the writer tracks comma placement.
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void Key(std::string_view key);  // must be inside an object
  void String(std::string_view value);
  void Uint(std::uint64_t value);
  void Int(std::int64_t value);
  void Double(double value);
  void Bool(bool value);
  void RawNumber(std::string_view formatted);

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  void Comma();

  std::string out_;
  // One entry per open container: true once a value was written at that
  // level (so the next value needs a comma first).
  std::vector<bool> need_comma_;
  bool pending_key_ = false;
};

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  // Insertion-ordered object members (duplicate keys rejected at parse).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsNumber() const { return kind == Kind::kNumber; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

// Deepest container nesting ParseJson accepts; the emitters nest at most
// 5 deep.
constexpr int kMaxJsonDepth = 64;

// Strict parse of a complete document. Returns nullopt (with a position
// and message in *error when provided) on any syntax violation, trailing
// garbage, duplicate object key, or nesting deeper than kMaxJsonDepth.
std::optional<JsonValue> ParseJson(std::string_view text,
                                   std::string* error = nullptr);

}  // namespace cowbird::telemetry
