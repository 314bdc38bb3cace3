// Instance → engine assignment for a multi-engine Cowbird deployment.
//
// The two offload engines are now thin backends over the shared core, which
// makes it possible to run *several* of them concurrently — a fleet of spot
// agents, a P4 switch plus spot overflow, etc. — and spread one
// deployment's instances across them. The registry owns that mapping:
//
//   * engines register a backend-agnostic EngineBinding (attach/detach
//     callables that hide the engine-specific connection plumbing: QPs for
//     a spot agent, HostEndpoints for the switch);
//   * instances are placed on the least-loaded live engine (or an explicit
//     preferred engine);
//   * stopping an engine migrates every instance it serves to the
//     survivors: the stopping engine's detach exports the instance's
//     red-block progress snapshot, and the surviving engine's attach
//     resumes probing from exactly that point. In-flight operations past
//     the snapshot are re-probed by the new engine — the same idempotent
//     re-execution argument the Go-Back-N fault-tolerance path relies on
//     (Section 5.3), applied at engine granularity.
//
// The registry does not talk to the network itself; it sequences the
// callbacks. This mirrors the paper's Phase I control plane, where
// instance↔engine wiring is a control-plane concern, not a data-plane one.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "offload/progress.h"

namespace cowbird::offload {

using EngineId = std::uint32_t;
inline constexpr EngineId kNoEngine = 0;

// Backend hooks. `attach` wires an instance into the engine, resuming from
// `resume` when non-null (nullptr = fresh instance). `detach` tears the
// instance down and returns the progress snapshot to resume from; an engine
// that cannot export progress (or no longer knows the instance) returns
// nullopt and the instance is re-attached fresh.
struct EngineBinding {
  std::string name;
  std::function<bool(std::uint32_t instance_id, const InstanceProgress* resume)>
      attach;
  std::function<std::optional<InstanceProgress>(std::uint32_t instance_id)>
      detach;
};

class InstanceRegistry {
 public:
  EngineId AddEngine(EngineBinding binding);

  // Registers an instance and attaches it to `preferred`, or to the
  // least-loaded live engine when kNoEngine. Returns the engine chosen, or
  // kNoEngine if no live engine exists or attach failed.
  EngineId AddInstance(std::uint32_t instance_id,
                       EngineId preferred = kNoEngine);

  // Moves one instance: detach from its current engine (exporting
  // progress), attach to `to` with the snapshot. Returns false if the
  // instance is unknown, `to` is not live, or attach fails.
  bool Reassign(std::uint32_t instance_id, EngineId to);

  // Marks the engine dead and migrates every instance it served to the
  // surviving engines, least-loaded first. Instances that cannot be placed
  // (no survivor, or every attach failed) become unassigned. Returns the
  // ids of the instances that were migrated to a survivor.
  std::vector<std::uint32_t> StopEngine(EngineId id);

  // Two-step reassignment for a copy-then-cutover region migration.
  // BeginHandoff detaches the instance from its engine and parks the
  // exported snapshot inside the registry; the instance is "held" — served
  // by nobody, invisible to placement. The coordinator then drains the
  // region copy and flips the translation entry before CompleteHandoff
  // attaches the instance to `to` (kNoEngine = least-loaded live engine)
  // with the parked snapshot, so the resumed engine sees only the new
  // placement. Returns the engine chosen, or kNoEngine when no live engine
  // accepted the instance (it stays parked and can be retried).
  bool BeginHandoff(std::uint32_t instance_id);
  EngineId CompleteHandoff(std::uint32_t instance_id,
                           EngineId to = kNoEngine);

  EngineId EngineOf(std::uint32_t instance_id) const;
  std::vector<std::uint32_t> InstancesOn(EngineId id) const;
  std::size_t live_engines() const;
  const std::string* EngineName(EngineId id) const;

 private:
  struct Engine {
    EngineBinding binding;
    bool live = true;
  };

  EngineId LeastLoadedLiveEngine(EngineId exclude = kNoEngine) const;

  std::map<EngineId, Engine> engines_;
  std::map<std::uint32_t, EngineId> assignment_;  // kNoEngine = unassigned
  // Snapshots parked between BeginHandoff and CompleteHandoff.
  std::map<std::uint32_t, std::optional<InstanceProgress>> held_;
  EngineId next_id_ = 1;
};

}  // namespace cowbird::offload
