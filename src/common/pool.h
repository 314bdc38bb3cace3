// Allocation-free building blocks for the simulated datapath.
//
// The simulator's throughput is our stand-in for line rate, and a datapath
// that heap-allocates per packet/WQE/op is bounded by the allocator rather
// than the protocol (the same argument Clio and Tiara make about real
// offload hardware). Everything here trades malloc/free for recycled slots:
//
//   * Pool<T>      — free-list object pool with generation-tagged handles.
//                    A handle names (slot, generation); a stale handle of a
//                    recycled slot is detected, not silently honored
//                    (ABA-safe use-after-free detection). Fixed-capacity
//                    pools report exhaustion (null handle + counter);
//                    growable pools add slabs, keeping slot addresses
//                    stable forever.
//   * FixedDeque<T>— ring-buffer deque for the protocol FIFOs (WQE queues,
//                    CQ entries, switch egress queues). Steady-state
//                    push/pop never touches the allocator, unlike
//                    std::deque's block churn.
//   * DenseMap<V>  — open-addressed uint64-key map for hot lookups (batch
//                    tokens) that the tree map's node-per-entry would
//                    otherwise heap-allocate.
//
// None of these are thread-safe; a simulation is single-threaded by design.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace cowbird {

// Names one live object in a Pool. The generation tag makes a recycled
// slot's old handles detectably stale instead of aliasing the new tenant.
struct PoolHandle {
  static constexpr std::uint32_t kInvalidIndex = 0xFFFF'FFFFu;

  std::uint32_t index = kInvalidIndex;
  std::uint32_t generation = 0;

  bool IsNull() const { return index == kInvalidIndex; }
  explicit operator bool() const { return !IsNull(); }
  friend bool operator==(const PoolHandle&, const PoolHandle&) = default;
};

// Counters every pool exposes; surfaced as registry gauges (pool_in_use,
// pool_high_water, pool_exhausted_total) by BindPoolTelemetry below.
struct PoolStats {
  std::uint64_t in_use = 0;
  std::uint64_t high_water = 0;
  std::uint64_t exhausted_total = 0;
};

template <typename T>
class Pool {
 public:
  // `capacity` slots are reserved up front (one allocation, not per
  // object). A growable pool adds same-sized slabs instead of exhausting;
  // addresses stay stable across growth because slabs are never moved.
  explicit Pool(std::size_t capacity, bool growable = false)
      : slab_slots_(capacity == 0 ? 1 : capacity), growable_(growable) {
    AddSlab();
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() {
    for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(slots_.size());
         ++i) {
      if (slots_[i]->live) Destroy(*slots_[i]);
    }
  }

  // Constructs an object in a free slot. Returns the null handle (and bumps
  // exhausted_total) when a fixed-capacity pool is full.
  template <typename... Args>
  PoolHandle Acquire(Args&&... args) {
    if (free_.empty()) {
      if (!growable_ || !AddSlab()) {
        ++stats_.exhausted_total;
        return PoolHandle{};
      }
    }
    const std::uint32_t index = free_.back();
    free_.pop_back();
    Slot& slot = *slots_[index];
    ::new (static_cast<void*>(slot.storage)) T(std::forward<Args>(args)...);
    slot.live = true;
    ++stats_.in_use;
    if (stats_.in_use > stats_.high_water) stats_.high_water = stats_.in_use;
    return PoolHandle{index, slot.generation};
  }

  // Dereferences a handle, CHECK-failing on a stale generation: touching a
  // recycled slot through an old handle is a use-after-free, and a corrupt
  // simulation is worse than an aborted one.
  T* Get(PoolHandle handle) {
    COWBIRD_CHECK(Valid(handle));
    return Ptr(handle.index);
  }
  const T* Get(PoolHandle handle) const {
    COWBIRD_CHECK(Valid(handle));
    return Ptr(handle.index);
  }

  // Null for stale/null handles (the tolerant form: lazy timer
  // cancellation, dropped completions).
  T* TryGet(PoolHandle handle) {
    return Valid(handle) ? Ptr(handle.index) : nullptr;
  }

  bool Valid(PoolHandle handle) const {
    return !handle.IsNull() && handle.index < slots_.size() &&
           slots_[handle.index]->live &&
           slots_[handle.index]->generation == handle.generation;
  }

  // Destroys the object and recycles the slot under a new generation.
  void Release(PoolHandle handle) {
    COWBIRD_CHECK(Valid(handle));
    Recycle(handle.index);
  }

  // The owner's forms, for a handle that cannot be stale because the pool's
  // owner alone holds it and releases it once (the event queue's slots):
  // the generation check is a DCHECK.
  T* GetOwned(PoolHandle handle) {
    COWBIRD_DCHECK(Valid(handle));
    return Ptr(handle.index);
  }
  void ReleaseOwned(PoolHandle handle) {
    COWBIRD_DCHECK(Valid(handle));
    Recycle(handle.index);
  }

  const PoolStats& stats() const { return stats_; }
  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    alignas(T) unsigned char storage[sizeof(T)];
    std::uint32_t generation = 0;
    bool live = false;
  };

  T* Ptr(std::uint32_t index) {
    return std::launder(reinterpret_cast<T*>(slots_[index]->storage));
  }
  const T* Ptr(std::uint32_t index) const {
    return std::launder(reinterpret_cast<const T*>(slots_[index]->storage));
  }
  void Destroy(Slot& slot) {
    std::launder(reinterpret_cast<T*>(slot.storage))->~T();
    slot.live = false;
  }
  void Recycle(std::uint32_t index) {
    Slot& slot = *slots_[index];
    Destroy(slot);
    ++slot.generation;
    free_.push_back(index);
    --stats_.in_use;
  }

  bool AddSlab() {
    const std::size_t old = slots_.size();
    if (old + slab_slots_ > PoolHandle::kInvalidIndex) return false;
    auto slab = std::make_unique<Slot[]>(slab_slots_);
    for (std::size_t i = 0; i < slab_slots_; ++i) {
      slots_.push_back(&slab[i]);
    }
    // LIFO free list: hand slots out in index order, lowest first.
    for (std::size_t i = old + slab_slots_; i > old; --i) {
      free_.push_back(static_cast<std::uint32_t>(i - 1));
    }
    slabs_.push_back(std::move(slab));
    return true;
  }

  std::size_t slab_slots_;
  bool growable_;
  std::vector<std::unique_ptr<Slot[]>> slabs_;  // stable slot storage
  std::vector<Slot*> slots_;                    // index → slot
  std::vector<std::uint32_t> free_;
  PoolStats stats_;
};

// Surfaces a pool's counters through a metric registry as callback gauges
// held by `gauges` (a telemetry::CallbackGauges). Templated so common/ does
// not link against telemetry/: instantiated only where the telemetry types
// are already in scope (harnesses, tests). The stats object must outlive
// `gauges`.
template <typename Gauges, typename Registry, typename Labels>
void BindPoolTelemetry(Gauges& gauges, Registry& registry,
                       const Labels& labels, const PoolStats& stats) {
  gauges.Register(registry, "pool_in_use", labels, [&stats] {
    return static_cast<std::int64_t>(stats.in_use);
  });
  gauges.Register(registry, "pool_high_water", labels, [&stats] {
    return static_cast<std::int64_t>(stats.high_water);
  });
  gauges.Register(registry, "pool_exhausted_total", labels, [&stats] {
    return static_cast<std::int64_t>(stats.exhausted_total);
  });
}

// Ring-buffer deque for the protocol FIFOs. Grows by doubling (amortized,
// and only until the workload's high-water mark); steady-state push/pop is
// index arithmetic with zero allocator traffic. Indexing is front-relative:
// [0] is the front, [size()-1] the back — matching how the QP and engine
// code walks std::deque today. Growth moves elements, so do not hold
// pointers into a FixedDeque across a push (pool handles exist for that).
template <typename T>
class FixedDeque {
 public:
  FixedDeque() = default;
  explicit FixedDeque(std::size_t initial_capacity) {
    Reserve(initial_capacity);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // Storage is a raw T[] (not std::vector<T>) so FixedDeque<bool> hands out
  // real references instead of vector<bool>'s proxy.
  T& operator[](std::size_t i) {
    COWBIRD_DCHECK(i < size_);
    return ring_[Mask(head_ + i)];
  }
  const T& operator[](std::size_t i) const {
    COWBIRD_DCHECK(i < size_);
    return ring_[Mask(head_ + i)];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == cap_) Grow();
    ring_[Mask(head_ + size_)] = std::move(value);
    ++size_;
  }
  void pop_front() {
    COWBIRD_DCHECK(size_ > 0);
    ring_[Mask(head_)] = T{};
    head_ = Mask(head_ + 1);
    --size_;
  }
  void pop_back() {
    COWBIRD_DCHECK(size_ > 0);
    ring_[Mask(head_ + size_ - 1)] = T{};
    --size_;
  }

  // Removes element i, preserving order (shifts the shorter side). Rare
  // path: only the client's PollRemove uses it.
  void erase_at(std::size_t i) {
    COWBIRD_DCHECK(i < size_);
    if (i <= size_ / 2) {
      for (std::size_t k = i; k > 0; --k) {
        (*this)[k] = std::move((*this)[k - 1]);
      }
      pop_front();
    } else {
      for (std::size_t k = i; k + 1 < size_; ++k) {
        (*this)[k] = std::move((*this)[k + 1]);
      }
      pop_back();
    }
  }

  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  void Reserve(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    if (cap > cap_) Rebuild(cap);
  }

  // Minimal iterator support (range-for over [front, back]).
  template <typename Deque, typename Ref>
  struct Iter {
    Deque* dq;
    std::size_t i;
    Ref operator*() const { return (*dq)[i]; }
    Iter& operator++() {
      ++i;
      return *this;
    }
    bool operator!=(const Iter& other) const { return i != other.i; }
  };
  auto begin() { return Iter<FixedDeque, T&>{this, 0}; }
  auto end() { return Iter<FixedDeque, T&>{this, size_}; }
  auto begin() const { return Iter<const FixedDeque, const T&>{this, 0}; }
  auto end() const { return Iter<const FixedDeque, const T&>{this, size_}; }

 private:
  std::size_t Mask(std::size_t i) const { return i & (cap_ - 1); }

  void Grow() { Rebuild(cap_ == 0 ? 8 : cap_ * 2); }

  void Rebuild(std::size_t cap) {
    auto next = std::make_unique<T[]>(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move((*this)[i]);
    }
    ring_ = std::move(next);
    cap_ = cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> ring_;  // power-of-two capacity
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

// Open-addressed uint64→V map with linear probing and backward-shift
// deletion. For hot-path lookups keyed by dense tokens (batch wr_ids) where
// std::map would heap-allocate a node per entry. No iteration API on
// purpose: nothing behavior-relevant may depend on hash order.
template <typename V>
class DenseMap {
 public:
  explicit DenseMap(std::size_t initial_capacity = 16) {
    std::size_t cap = 4;
    while (cap < initial_capacity) cap <<= 1;
    slots_.resize(cap);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  V& operator[](std::uint64_t key) {
    if ((size_ + 1) * 4 >= slots_.size() * 3) Grow();
    std::size_t i = Probe(key);
    if (!slots_[i].used) {
      slots_[i].used = true;
      slots_[i].key = key;
      ++size_;
    }
    return slots_[i].value;
  }

  V* Find(std::uint64_t key) {
    const std::size_t i = Probe(key);
    return slots_[i].used ? &slots_[i].value : nullptr;
  }

  bool Erase(std::uint64_t key) {
    std::size_t i = Probe(key);
    if (!slots_[i].used) return false;
    // Backward-shift deletion keeps probe chains contiguous without
    // tombstones (which would otherwise accumulate under token churn).
    std::size_t hole = i;
    slots_[hole] = Slot{};
    --size_;
    for (std::size_t j = Mask(hole + 1); slots_[j].used; j = Mask(j + 1)) {
      const std::size_t home = Mask(Hash(slots_[j].key));
      const bool movable = Mask(j - home) >= Mask(j - hole);
      if (movable) {
        slots_[hole] = std::move(slots_[j]);
        slots_[j] = Slot{};
        hole = j;
      }
    }
    return true;
  }

  void clear() {
    for (auto& slot : slots_) slot = Slot{};
    size_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    bool used = false;
  };

  static std::uint64_t Hash(std::uint64_t key) {
    // splitmix64 finalizer: tokens are sequential, spread them.
    key ^= key >> 30;
    key *= 0xBF58476D1CE4E5B9ull;
    key ^= key >> 27;
    key *= 0x94D049BB133111EBull;
    return key ^ (key >> 31);
  }

  std::size_t Mask(std::size_t i) const { return i & (slots_.size() - 1); }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(old.size() * 2);
    size_ = 0;
    for (auto& slot : old) {
      if (!slot.used) continue;
      slots_[Probe(slot.key)] = std::move(slot);
      ++size_;
    }
  }

  // First slot that either holds `key` or is free along its probe chain.
  std::size_t Probe(std::uint64_t key) const {
    std::size_t i = Mask(Hash(key));
    while (slots_[i].used && slots_[i].key != key) i = Mask(i + 1);
    return i;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace cowbird
