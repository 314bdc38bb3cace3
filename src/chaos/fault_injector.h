// Applies a FaultPlan to fabric links, with exact decision accounting.
//
// One injector installs a fault filter on every attached link. Faults only
// target RDMA packets (LooksLikeRdma) — chaos in the transport is the
// point; mangling non-RDMA control traffic the sim does not retransmit
// would just wedge the run. Every decision the injector makes is counted,
// and the attached links count every fault they actually execute, so a run
// can assert the two sides agree exactly (no fault is silently
// double-applied or lost). Every attached link draws from one seeded RNG,
// in delivery order.
#pragma once

#include <cstdint>
#include <vector>

#include "chaos/fault_plan.h"
#include "common/rng.h"
#include "net/link.h"
#include "sim/simulation.h"

namespace cowbird::chaos {

class FaultInjector {
 public:
  FaultInjector(sim::Simulation& sim, FaultPlan plan, std::uint64_t seed)
      : sim_(&sim), plan_(std::move(plan)), rng_(seed ^ 0xFA017EC7ull) {}

  // Installs this injector's fault filter on the link. The link must
  // outlive the injector's use; one injector can drive many links.
  void Attach(net::Link& link);

  // Decisions made (what the plan asked for), summed over links...
  std::uint64_t decided_dropped() const { return dropped_; }
  // Sum of extra copies requested.
  std::uint64_t decided_duplicated() const { return duplicated_; }
  std::uint64_t decided_reordered() const { return reordered_; }
  std::uint64_t decided_delayed() const { return delayed_; }
  std::uint64_t decided_total() const {
    return decided_dropped() + decided_duplicated() + decided_reordered() +
           decided_delayed();
  }

  // ...must match what the links executed, bucket by bucket.
  bool CountersExact() const;

 private:
  net::FaultAction Decide(const net::Packet& packet);

  sim::Simulation* sim_;
  FaultPlan plan_;
  Rng rng_;
  std::vector<net::Link*> links_;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t delayed_ = 0;
};

}  // namespace cowbird::chaos
