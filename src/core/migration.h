// Live region migration: copy-then-cutover between memory servers.
//
// Moves one range's bytes from its source server to a reserved destination
// extent (a ClusterPool::MigrationPlan) while application traffic keeps
// writing to the source, then hands the coordinator a clean point to flip
// the translation entry. The protocol:
//
//   1. copy pass   — chunked RDMA WRITEs src→dst over a real fabric QP
//                    (the copy stream contends with — and is congestion-
//                    controlled against — foreground traffic and incast).
//   2. dirty chase — a write watch on the source device marks every chunk
//                    an application RDMA WRITE lands in; marked chunks are
//                    re-copied while the engine is still serving. The dirty
//                    bit is cleared *before* the chunk is re-read, so a
//                    racing write re-marks it — never lost.
//   3. final drain — the coordinator detaches the instance from its engine
//                    (workload::Cluster::Detach exports the resume
//                    snapshot), calls BeginFinalDrain(), and
//                    waits for Synced(): no dirty chunks, no copy in
//                    flight. Straggler writes already on the wire still
//                    land, re-mark their chunk, and are chased — Synced()
//                    only holds once they were copied too.
//   4. cutover     — ClusterPool::CommitMove retargets the translation
//                    entry and the instance re-attaches; every re-executed
//                    or new operation resolves to the destination server.
//
// Correctness leans on the same idempotent re-execution argument as the
// crash path (Section 5.3): writes the detached engine had not completed
// are re-executed against the destination; writes it had completed landed
// on the source before the detach and were dirty-chased across.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "core/cluster_pool.h"
#include "rdma/device.h"
#include "rdma/qp.h"
#include "telemetry/hub.h"

namespace cowbird::core {

class RegionMigrator {
 public:
  struct Config {
    Bytes chunk = KiB(64);
    int window = 4;  // outstanding copy WRITEs
    // Optional spans ("migration" track: copy/drain) + counters.
    telemetry::Hub* telemetry = nullptr;
  };

  // `to_dst` must be a connected QP on the *source* device whose peer lives
  // on the destination device; `send_cq` is its send CQ (the migrator takes
  // over its completion callback).
  RegionMigrator(rdma::Device& src_device, rdma::QueuePair& to_dst,
                 rdma::CompletionQueue& send_cq,
                 const ClusterPool::MigrationPlan& plan, Config config);
  ~RegionMigrator();
  RegionMigrator(const RegionMigrator&) = delete;
  RegionMigrator& operator=(const RegionMigrator&) = delete;

  // Arms the write watch and kicks the copy pass. Call from an event.
  void Start();

  // True once the initial pass has covered every chunk and no copy is in
  // flight — dirty chunks may remain; the coordinator may cut over now.
  bool ReadyForCutover() const;

  // Enters the drain phase. The serving engine must already be detached
  // (no new application writes are being *initiated*; stragglers still
  // land and are chased).
  void BeginFinalDrain();

  // Drain phase only: every chunk clean and nothing in flight — source and
  // destination hold identical bytes from here on.
  bool Synced() const;

  // Re-examines the dirty set and posts copies as the window allows. The
  // copy loop normally re-pumps itself off send completions; a straggler
  // write that lands while nothing is in flight marks its chunk with no
  // completion coming, so drain coordinators tick this until Synced().
  void Nudge() { Pump(); }

  // Disarms the write watch. Call after CommitMove.
  void Finish();

  bool started() const { return started_; }
  bool draining() const { return draining_; }
  std::uint64_t bytes_copied() const { return bytes_copied_; }
  std::uint64_t dirty_marks() const { return dirty_marks_; }
  const ClusterPool::MigrationPlan& plan() const { return plan_; }

 private:
  void OnWrite(std::uint64_t addr, std::uint32_t len);
  void Pump();
  void PostChunk(std::size_t index);
  std::size_t ChunkCount() const;

  rdma::Device* src_device_;
  std::uint64_t watch_ = 0;  // the dirty-tracking write watch, once started
  rdma::QueuePair* qp_;
  rdma::CompletionQueue* cq_;
  ClusterPool::MigrationPlan plan_;
  Config config_;

  bool started_ = false;
  bool pass_done_ = false;   // initial sequential sweep finished
  bool draining_ = false;
  bool finished_ = false;
  std::size_t pass_next_ = 0;  // next chunk of the initial sweep
  int outstanding_ = 0;
  std::vector<bool> dirty_;

  std::uint64_t bytes_copied_ = 0;
  std::uint64_t dirty_marks_ = 0;

  telemetry::SpanTracer::SpanHandle copy_span_{};
  telemetry::SpanTracer::SpanHandle drain_span_{};
};

}  // namespace cowbird::core
