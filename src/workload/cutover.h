// Live region migration (DESIGN.md §14): the one object that moves a range
// between memory servers under traffic, in the chaos runner and the rack.
//
// It copies one range's bytes from its source server to a reserved
// destination extent (a ClusterPool::MigrationPlan) while application
// traffic keeps writing to the source, then flips the translation entry:
//
//   1. copy pass   — chunked RDMA WRITEs src→dst over a real fabric QP
//                    (the copy stream contends with — and is congestion-
//                    controlled against — foreground traffic and incast).
//   2. dirty chase — a write watch on the source device marks every chunk
//                    an application RDMA WRITE lands in; marked chunks are
//                    re-copied while the engine is still serving.
//   3. final drain — the instance is detached from its engine
//                    (Cluster::Detach exports the resume snapshot) and the
//                    chase runs until no chunk is dirty and no copy is in
//                    flight. Straggler writes already on the wire still
//                    land, re-mark their chunk, and are chased first.
//   4. cutover     — ClusterPool::CommitMove retargets the translation
//                    entry, the client's ranges are republished and the
//                    instance re-attaches, all inside one event: atomic in
//                    virtual time. Every re-executed or new operation
//                    resolves to the destination server.
//
// A harness constructs it where the copy stream's QP should be connected
// and ticks it on its own cadence; each tick advances at most one stage:
//
//   armed    -> copying   plan the move, arm the write watch, start the pass;
//   copied   -> draining  detach the instance and start the final drain;
//   draining -> done      once source and destination agree, cut over.
//
// The copy loop itself moves copying -> copied when the first pass has
// landed. Correctness leans on the same idempotent re-execution argument as
// the crash path (Section 5.3): writes the detached engine had not completed
// are re-executed against the destination; writes it had completed landed
// on the source before the detach and were dirty-chased across. The instance
// re-attaches to whichever engine serves at that tick, so a crash that lands
// while it is parked only moves the cutover's target.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.h"
#include "core/client.h"
#include "core/cluster_pool.h"
#include "offload/progress.h"
#include "rdma/qp.h"
#include "telemetry/trace.h"
#include "workload/cluster.h"

namespace cowbird::workload {

class RegionCutover {
 public:
  struct Config {
    Bytes chunk = KiB(64);
    int window = 4;  // outstanding copy WRITEs
  };

  // Moves the range of `client`'s `region` at `range_base` from memory
  // server `from` to server `to`. `halt` parks the instance the way a crash
  // detaches it (Cluster::Detach). With a hub on the cluster, the copy and
  // the drain are spans on its "migration" track.
  RegionCutover(Cluster& cluster, core::ClusterPool& pool,
                core::CowbirdClient& client, std::uint16_t region,
                std::uint64_t range_base, int from, int to, Config config,
                bool halt);
  ~RegionCutover();
  RegionCutover(const RegionCutover&) = delete;
  RegionCutover& operator=(const RegionCutover&) = delete;

  // One coordinator step. `serving` is the engine the instance is attached
  // to, or re-attaches to at the cutover. Returns true when the stage moved.
  bool Tick(Cluster::Engine serving);

  // Between the detach and the re-attach: no engine serves the instance.
  bool parked() const { return stage_ == Stage::kDraining; }
  bool done() const { return stage_ == Stage::kDone; }
  // Bytes the copy stream moved (first pass, dirty chase and drain), and
  // chunks an application write marked dirty.
  std::uint64_t bytes_copied() const { return bytes_copied_; }
  std::uint64_t dirty_marks() const { return dirty_marks_; }

 private:
  enum class Stage { kArmed, kCopying, kCopied, kDraining, kDone };

  rdma::Device& source() { return *cluster_.memory(from_).dev; }
  std::size_t ChunkCount() const { return dirty_.size(); }
  void OnWrite(std::uint64_t addr, std::uint32_t len);
  void Pump();
  void PostChunk(std::size_t index);

  Cluster& cluster_;
  core::ClusterPool& pool_;
  core::CowbirdClient& client_;
  std::uint16_t region_;
  std::uint64_t range_base_;
  int from_;
  int to_;
  Config config_;
  bool halt_;
  rdma::QpPair copy_qp_;
  Stage stage_ = Stage::kArmed;
  std::optional<core::ClusterPool::MigrationPlan> plan_;
  std::optional<offload::InstanceProgress> resume_;

  std::uint64_t watch_ = 0;  // the dirty-tracking write watch, once armed
  std::size_t pass_next_ = 0;  // next chunk of the first pass
  int outstanding_ = 0;
  std::vector<bool> dirty_;  // one bit per chunk, sized when armed
  std::uint64_t bytes_copied_ = 0;
  std::uint64_t dirty_marks_ = 0;

  telemetry::SpanTracer::SpanHandle copy_span_{};
  telemetry::SpanTracer::SpanHandle drain_span_{};
};

}  // namespace cowbird::workload
