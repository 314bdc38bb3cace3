// Red-block progress publication shared by both Phase IV paths.
//
// Both engines finish an operation by writing the compute node's "red"
// bookkeeping block: five little-endian u64 counters, packed so one RDMA
// write updates all of them (core::RedBlock, Table 3 / Figure 4). The
// packing used to be hand-rolled twice — a put64 loop in the P4 engine's
// packet builder and WriteValue calls in the spot agent's staging composer.
// It lives here now, together with the counter struct itself, which doubles
// as the progress snapshot a detach hands from one engine to the next
// attach: the red block is by construction exactly the state a fresh engine
// needs to resume an instance.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/layout.h"
#include "core/request.h"

namespace cowbird::offload {

// Engine-side view of one thread's red block. Field order matches the wire
// layout (core::RedBlock).
struct ThreadProgress {
  std::uint64_t meta_head = 0;       // metadata entries consumed by engine
  std::uint64_t data_head = 0;       // request-data bytes consumed
  std::uint64_t resp_tail = 0;       // response bytes delivered
  std::uint64_t write_progress = 0;  // seq of last completed write
  std::uint64_t read_progress = 0;   // seq of last completed read

  bool operator==(const ThreadProgress&) const = default;
};

class ProgressPublisher {
 public:
  static constexpr std::size_t kBlockBytes = core::kRedBlockBytes;

  // Packs the counters into red-block wire format (little-endian u64s).
  static void Pack(const ThreadProgress& p, std::span<std::uint8_t> out) {
    COWBIRD_CHECK(out.size() >= kBlockBytes);
    PutU64(out, 0, p.meta_head);
    PutU64(out, 8, p.data_head);
    PutU64(out, 16, p.resp_tail);
    PutU64(out, 24, p.write_progress);
    PutU64(out, 32, p.read_progress);
  }

  static ThreadProgress Unpack(std::span<const std::uint8_t> in) {
    COWBIRD_CHECK(in.size() >= kBlockBytes);
    ThreadProgress p;
    p.meta_head = GetU64(in, 0);
    p.data_head = GetU64(in, 8);
    p.resp_tail = GetU64(in, 16);
    p.write_progress = GetU64(in, 24);
    p.read_progress = GetU64(in, 32);
    return p;
  }

 private:
  static void PutU64(std::span<std::uint8_t> out, std::size_t at,
                     std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      out[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
  static std::uint64_t GetU64(std::span<const std::uint8_t> in,
                              std::size_t at) {
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) {
      v |= static_cast<std::uint64_t>(in[at + b]) << (8 * b);
    }
    return v;
  }
};

// A parsed-but-not-yet-completed operation carried in a crash snapshot.
//
// The red-block counters alone are not enough to resume after a *crash*
// (as opposed to a drained handoff): the spot agent advances meta_head at
// parse time, after which the client frees the metadata slots — parsed ops
// that have not completed exist nowhere but in the engine. A snapshot
// therefore carries them explicitly, in probe order:
//   - completed=true: the transfer is ACKed-durable; the survivor only
//     advances progress counters over it (never re-executes).
//   - writes whose payload fetch had consumed the client data ring carry
//     the payload bytes; everything else is replayed through the normal
//     ring-addressed path (client-side reservations are still intact for
//     any op the published counters do not cover).
struct PendingOp {
  core::RequestMetadata meta;
  std::uint64_t seq = 0;   // per-thread per-type sequence (1-based)
  bool completed = false;
  std::vector<std::uint8_t> payload;  // writes only; may be empty
};

// Progress snapshot of a whole instance (one entry per application thread).
// Exported by an engine on detach, consumed by the next engine on attach.
// `pending` is either empty (drained handoff, or an engine like Cowbird-P4
// whose counters only ever cover completed work) or has one list per thread.
struct InstanceProgress {
  std::vector<ThreadProgress> threads;
  std::vector<std::vector<PendingOp>> pending;
  // Set by ReconcileWithPublished, one flag per thread: the counters run
  // ahead of the client's red block, so the engine taking over must publish
  // them even when the thread has nothing pending.
  std::vector<bool> unpublished;
};

// Crash-export reconciliation (the control plane's half of a migration).
//
// A crash-exported snapshot is conservative: it only counts work whose ACK
// the dead engine saw. The client's red block may hold *newer* counters —
// an optimistic publication whose payload provably landed (the red write is
// chained behind the payload on the same RC QP, so counters are never
// visible before data). Resuming from the conservative side would re-deliver
// reads the client already retired, clobbering reused response-ring bytes.
// Every attach therefore reads each thread's published red block and
// merges: every counter is monotone, so element-wise max is exact, and
// pending ops the merged counters cover are dropped.
//
// The merge can also land *ahead* of the red block: a dead engine may have
// completed work whose red write it never got onto the wire. Such threads
// are marked `unpublished`; until an engine publishes them, the client
// cannot retire those ops, and with its window full it issues nothing a
// probe could find.
inline void ReconcileWithPublished(
    InstanceProgress& snapshot, const std::vector<ThreadProgress>& published) {
  COWBIRD_CHECK(snapshot.threads.size() == published.size());
  snapshot.unpublished.assign(snapshot.threads.size(), false);
  for (std::size_t t = 0; t < snapshot.threads.size(); ++t) {
    ThreadProgress& s = snapshot.threads[t];
    const ThreadProgress& p = published[t];
    s.meta_head = std::max(s.meta_head, p.meta_head);
    s.data_head = std::max(s.data_head, p.data_head);
    s.resp_tail = std::max(s.resp_tail, p.resp_tail);
    s.write_progress = std::max(s.write_progress, p.write_progress);
    s.read_progress = std::max(s.read_progress, p.read_progress);
    if (t < snapshot.pending.size()) {
      auto& ops = snapshot.pending[t];
      std::erase_if(ops, [&s](const PendingOp& op) {
        const bool is_write = op.meta.rw_type == core::RwType::kWrite;
        const std::uint64_t covered =
            is_write ? s.write_progress : s.read_progress;
        return op.seq <= covered;
      });
    }
    snapshot.unpublished[t] = s != p;
  }
}

}  // namespace cowbird::offload
