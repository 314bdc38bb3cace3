// The copy-then-cutover coordinator of a live region migration (DESIGN.md
// §14), the one stage machine behind every harness that moves a region
// under traffic (the chaos runner and the rack).
//
// A harness constructs it where the copy stream's QP should be connected
// and ticks it on its own cadence; each tick advances at most one stage:
//
//   armed    -> copying   plan the move and start the RegionMigrator;
//   copying  -> draining  once the first pass is done, park the instance:
//                         detach it (exporting the resume snapshot) and
//                         start the final drain;
//   draining -> done      once source and destination agree, flip the
//                         pool's translation entry, republish the client's
//                         ranges and re-attach the instance, all inside one
//                         event: atomic in virtual time.
//
// The instance re-attaches to whichever engine serves at that tick, so a
// crash that lands while it is parked only moves the cutover's target.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/check.h"
#include "core/client.h"
#include "core/cluster_pool.h"
#include "core/migration.h"
#include "offload/progress.h"
#include "rdma/qp.h"
#include "workload/cluster.h"

namespace cowbird::workload {

class RegionCutover {
 public:
  // Moves the range of `client`'s `region` at `range_base` from memory
  // server `from` to server `to`. `halt` parks the instance the way a crash
  // detaches it (Cluster::Detach).
  RegionCutover(Cluster& cluster, core::ClusterPool& pool,
                core::CowbirdClient& client, std::uint16_t region,
                std::uint64_t range_base, int from, int to,
                core::RegionMigrator::Config config, bool halt)
      : cluster_(cluster),
        pool_(pool),
        client_(client),
        region_(region),
        range_base_(range_base),
        from_(from),
        to_(to),
        config_(config),
        halt_(halt),
        copy_qp_(rdma::ConnectQueuePairs(*cluster.memory(from).dev,
                                         *cluster.memory(to).dev)) {}

  // One coordinator step. `serving` is the engine the instance is attached
  // to, or re-attaches to at the cutover. Returns true when the stage moved.
  bool Tick(Cluster::Engine serving) {
    switch (stage_) {
      case MigrationStage::kArmed:
        plan_ = pool_.PlanMove(region_, range_base_,
                               cluster_.memory(to_).id());
        COWBIRD_CHECK(plan_.has_value());
        migrator_ = std::make_unique<core::RegionMigrator>(
            *cluster_.memory(from_).dev, *copy_qp_.a, *copy_qp_.a_send_cq,
            *plan_, config_);
        migrator_->Start();
        stage_ = MigrationStage::kCopying;
        return true;
      case MigrationStage::kCopying:
        if (!migrator_->ReadyForCutover()) return false;
        // Stragglers already on the wire still land on the source, re-mark
        // their chunk, and are chased before Synced().
        resume_ = cluster_.Detach(serving, client_, halt_);
        COWBIRD_CHECK(resume_.has_value());
        migrator_->BeginFinalDrain();
        stage_ = MigrationStage::kDraining;
        return true;
      case MigrationStage::kDraining:
        migrator_->Nudge();
        if (!migrator_->Synced()) return false;
        // The resumed engine builds its translation mirror from the new
        // placement, so every re-executed and new operation resolves to
        // the destination server.
        pool_.CommitMove(*plan_);
        client_.SetRegionRanges(region_, pool_.RangesFor(region_));
        migrator_->Finish();
        cluster_.Attach(serving, client_, {from_, to_}, &*resume_);
        stage_ = MigrationStage::kDone;
        return true;
      case MigrationStage::kDone:
        return false;
    }
    return false;
  }

  // Between the detach and the re-attach: no engine serves the instance.
  bool parked() const { return stage_ == MigrationStage::kDraining; }
  bool done() const { return stage_ == MigrationStage::kDone; }
  // Null until the first tick.
  const core::RegionMigrator* migrator() const { return migrator_.get(); }

 private:
  enum class MigrationStage { kArmed, kCopying, kDraining, kDone };

  Cluster& cluster_;
  core::ClusterPool& pool_;
  core::CowbirdClient& client_;
  std::uint16_t region_;
  std::uint64_t range_base_;
  int from_;
  int to_;
  core::RegionMigrator::Config config_;
  bool halt_;
  rdma::QpPair copy_qp_;
  MigrationStage stage_ = MigrationStage::kArmed;
  std::optional<core::ClusterPool::MigrationPlan> plan_;
  std::unique_ptr<core::RegionMigrator> migrator_;
  std::optional<offload::InstanceProgress> resume_;
};

}  // namespace cowbird::workload
