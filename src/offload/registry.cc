#include "offload/registry.h"

#include <limits>

#include "common/check.h"

namespace cowbird::offload {

EngineId InstanceRegistry::AddEngine(EngineBinding binding) {
  COWBIRD_CHECK(binding.attach && binding.detach);
  const EngineId id = next_id_++;
  engines_.emplace(id, Engine{std::move(binding), /*live=*/true});
  return id;
}

EngineId InstanceRegistry::LeastLoadedLiveEngine(EngineId exclude) const {
  EngineId best = kNoEngine;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (const auto& [id, engine] : engines_) {
    if (!engine.live || id == exclude) continue;
    std::size_t load = 0;
    for (const auto& [inst, assigned] : assignment_) {
      (void)inst;
      load += assigned == id;
    }
    if (load < best_load) {  // ties go to the lowest engine id
      best = id;
      best_load = load;
    }
  }
  return best;
}

EngineId InstanceRegistry::AddInstance(std::uint32_t instance_id,
                                       EngineId preferred) {
  COWBIRD_CHECK(assignment_.find(instance_id) == assignment_.end());
  EngineId target = preferred != kNoEngine ? preferred
                                           : LeastLoadedLiveEngine();
  if (target == kNoEngine) return kNoEngine;
  auto it = engines_.find(target);
  if (it == engines_.end() || !it->second.live) return kNoEngine;
  if (!it->second.binding.attach(instance_id, nullptr)) return kNoEngine;
  assignment_[instance_id] = target;
  return target;
}

bool InstanceRegistry::Reassign(std::uint32_t instance_id, EngineId to) {
  auto assigned = assignment_.find(instance_id);
  if (assigned == assignment_.end()) return false;
  auto dest = engines_.find(to);
  if (dest == engines_.end() || !dest->second.live) return false;
  if (assigned->second == to) return true;

  std::optional<InstanceProgress> snapshot;
  if (assigned->second != kNoEngine) {
    auto& from = engines_.at(assigned->second);
    snapshot = from.binding.detach(instance_id);
    assigned->second = kNoEngine;
  }
  const InstanceProgress* resume = snapshot ? &*snapshot : nullptr;
  if (!dest->second.binding.attach(instance_id, resume)) return false;
  assigned->second = to;
  return true;
}

std::vector<std::uint32_t> InstanceRegistry::StopEngine(EngineId id) {
  std::vector<std::uint32_t> migrated;
  auto it = engines_.find(id);
  if (it == engines_.end() || !it->second.live) return migrated;

  const std::vector<std::uint32_t> orphans = InstancesOn(id);
  // Detach everything from the stopping engine first, then mark it dead so
  // placement only considers survivors.
  std::vector<std::optional<InstanceProgress>> snapshots;
  snapshots.reserve(orphans.size());
  for (std::uint32_t inst : orphans) {
    snapshots.push_back(it->second.binding.detach(inst));
    assignment_[inst] = kNoEngine;
  }
  it->second.live = false;

  for (std::size_t i = 0; i < orphans.size(); ++i) {
    const EngineId target = LeastLoadedLiveEngine();
    if (target == kNoEngine) break;  // no survivors: remain unassigned
    const InstanceProgress* resume =
        snapshots[i] ? &*snapshots[i] : nullptr;
    if (engines_.at(target).binding.attach(orphans[i], resume)) {
      assignment_[orphans[i]] = target;
      migrated.push_back(orphans[i]);
    }
  }
  return migrated;
}

bool InstanceRegistry::BeginHandoff(std::uint32_t instance_id) {
  auto assigned = assignment_.find(instance_id);
  if (assigned == assignment_.end() || assigned->second == kNoEngine) {
    return false;
  }
  if (held_.find(instance_id) != held_.end()) return false;
  auto& from = engines_.at(assigned->second);
  held_[instance_id] = from.binding.detach(instance_id);
  assigned->second = kNoEngine;
  return true;
}

EngineId InstanceRegistry::CompleteHandoff(std::uint32_t instance_id,
                                           EngineId to) {
  auto parked = held_.find(instance_id);
  if (parked == held_.end()) return kNoEngine;
  const EngineId target = to != kNoEngine ? to : LeastLoadedLiveEngine();
  if (target == kNoEngine) return kNoEngine;
  auto it = engines_.find(target);
  if (it == engines_.end() || !it->second.live) return kNoEngine;
  const InstanceProgress* resume =
      parked->second ? &*parked->second : nullptr;
  if (!it->second.binding.attach(instance_id, resume)) return kNoEngine;
  assignment_[instance_id] = target;
  held_.erase(parked);
  return target;
}

EngineId InstanceRegistry::EngineOf(std::uint32_t instance_id) const {
  auto it = assignment_.find(instance_id);
  return it == assignment_.end() ? kNoEngine : it->second;
}

std::vector<std::uint32_t> InstanceRegistry::InstancesOn(EngineId id) const {
  std::vector<std::uint32_t> out;
  for (const auto& [inst, assigned] : assignment_) {
    if (assigned == id) out.push_back(inst);
  }
  return out;
}

std::size_t InstanceRegistry::live_engines() const {
  std::size_t n = 0;
  for (const auto& [id, engine] : engines_) {
    (void)id;
    n += engine.live;
  }
  return n;
}

const std::string* InstanceRegistry::EngineName(EngineId id) const {
  auto it = engines_.find(id);
  return it == engines_.end() ? nullptr : &it->second.binding.name;
}

}  // namespace cowbird::offload
