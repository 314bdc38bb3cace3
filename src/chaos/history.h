// Operation history recording and linearizability checking.
//
// The chaos workload records every client operation as an interval
// [invoke, complete] with a payload digest, and the checker verifies the
// property the paper claims (Sections 4.1/5.3): per-type linearizability
// with read-after-write consistency. The checker is purely history-based —
// it knows nothing about engines, rings, or faults — so the same code
// audits both engines under any fault plan, and a dumped history is enough
// to re-verify a failure offline.
//
// Model checked, per slot (a (region, offset, length) triple the workload
// always accesses whole):
//   * writes to a slot are versioned by invoke order (the workload gives
//     each slot a single writer thread, making that order total);
//   * a completed read must observe a version in [floor, ceiling] where
//       floor   = max(latest same-thread write invoked before the read,
//                     latest any-thread write completed before the read)
//       ceiling = latest write invoked before the read completed
//     — below the floor is a stale read (the read-after-write violation a
//     broken fence produces), above the ceiling is time travel;
//   * an observed digest matching no write (and not the never-written
//     zero state) is a torn or corrupt read;
//   * per thread and type, completions arrive in invoke order (FIFO), and
//     every invoked operation eventually completes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"

namespace cowbird::chaos {

inline constexpr Nanos kNeverCompleted = -1;

struct OpRecord {
  std::uint64_t id = 0;  // invoke order, unique per run
  int thread = 0;
  bool is_write = false;
  std::uint16_t region = 0;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  Nanos invoke = 0;
  Nanos complete = kNeverCompleted;
  // Writes: digest of the payload written. Reads: digest of the bytes
  // observed at completion (0 while incomplete).
  std::uint64_t digest = 0;
};

struct Violation {
  std::uint64_t op_id = 0;
  std::string kind;    // stable identifier: "stale-read", "torn-read", ...
  std::string detail;  // human-oriented explanation
  std::string Format() const;
};

class HistoryRecorder {
 public:
  // FNV-1a, the digest both sides of the history use.
  static std::uint64_t Digest(std::span<const std::uint8_t> bytes);

  std::uint64_t OnInvoke(int thread, bool is_write, std::uint16_t region,
                         std::uint64_t offset, std::uint32_t length,
                         Nanos now, std::uint64_t write_digest = 0);
  void OnComplete(std::uint64_t op_id, Nanos now,
                  std::uint64_t read_digest = 0);

  const std::vector<OpRecord>& ops() const { return ops_; }

 private:
  std::vector<OpRecord> ops_;  // indexed by id
};

// Verifies the full history; an empty result means the run linearizes.
std::vector<Violation> CheckHistory(const std::vector<OpRecord>& ops);

}  // namespace cowbird::chaos
