// Progress snapshots handed from one engine to the next.
//
// Both engines finish an operation by writing the compute node's red block
// (core::RedBlock, Table 3 / Figure 4), and the same five counters are what
// a detach exports and the next attach resumes from. This header adds what
// the counters alone cannot carry across a crash, and the merge with what
// the client has already seen published.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "core/layout.h"
#include "core/request.h"

namespace cowbird::offload {

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
  std::vector<core::RedBlock> threads;
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
    InstanceProgress& snapshot, const std::vector<core::RedBlock>& published) {
  COWBIRD_CHECK(snapshot.threads.size() == published.size());
  snapshot.unpublished.assign(snapshot.threads.size(), false);
  for (std::size_t t = 0; t < snapshot.threads.size(); ++t) {
    core::RedBlock& s = snapshot.threads[t];
    const core::RedBlock& p = published[t];
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
