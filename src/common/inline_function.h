// Move-only callable with inline storage, for the event-queue hot path.
//
// Every simulated packet hop schedules at least one event, and
// std::function's small-buffer optimization (16 bytes in libstdc++) cannot
// hold a lambda that captures a Packet — so with std::function the event
// queue heap-allocates per event, which is most of the allocator traffic in
// the whole simulator. InlineFunction stores callables up to `Cap` bytes in
// place; larger ones are boxed on the heap (correct, just not free), so no
// call site can break by growing its capture. Unlike std::function it is
// move-only, which lets events capture move-only types (pooled packet
// buffers) in the first place.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace cowbird {

template <typename Sig, std::size_t Cap = 64>
class InlineFunction;

template <typename R, typename... Args, std::size_t Cap>
class InlineFunction<R(Args...), Cap> {
 public:
  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<
                std::decay_t<F>, InlineFunction>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    COWBIRD_DCHECK(ops_ != nullptr);
    return ops_->call(storage_, std::forward<Args>(args)...);
  }

  // Invokes the callable and then destroys it, in one indirect call, and
  // leaves this function empty: how the event queue runs a closure that
  // fires exactly once.
  R CallOnce(Args... args) {
    COWBIRD_DCHECK(ops_ != nullptr);
    return std::exchange(ops_, nullptr)
        ->call_once(storage_, std::forward<Args>(args)...);
  }

 private:
  // One static vtable per stored callable type: invoke, invoke-then-destroy,
  // relocate (move into fresh storage + destroy source), destroy.
  struct Ops {
    R (*call)(void*, Args&&...);
    R (*call_once)(void*, Args&&...);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  // Destroys the stored callable when the call that owns it returns.
  template <typename Decayed>
  struct DestroyOnExit {
    Decayed* f;
    ~DestroyOnExit() { f->~Decayed(); }
  };

  template <typename F>
  void Emplace(F&& f) {
    using Decayed = std::decay_t<F>;
    if constexpr (sizeof(Decayed) <= Cap &&
                  alignof(Decayed) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Decayed>) {
      ::new (static_cast<void*>(storage_)) Decayed(std::forward<F>(f));
      static const Ops ops = {
          [](void* s, Args&&... args) -> R {
            return (*std::launder(reinterpret_cast<Decayed*>(s)))(
                std::forward<Args>(args)...);
          },
          [](void* s, Args&&... args) -> R {
            DestroyOnExit<Decayed> fn{
                std::launder(reinterpret_cast<Decayed*>(s))};
            return (*fn.f)(std::forward<Args>(args)...);
          },
          [](void* dst, void* src) noexcept {
            Decayed* from = std::launder(reinterpret_cast<Decayed*>(src));
            ::new (dst) Decayed(std::move(*from));
            from->~Decayed();
          },
          [](void* s) noexcept {
            std::launder(reinterpret_cast<Decayed*>(s))->~Decayed();
          },
      };
      ops_ = &ops;
    } else {
      // Boxed fallback: the box pointer lives inline, the callable on the
      // heap. Keeps oversized captures working while the common case stays
      // allocation-free.
      using Box = Decayed*;
      ::new (static_cast<void*>(storage_))
          Box(new Decayed(std::forward<F>(f)));
      static const Ops ops = {
          [](void* s, Args&&... args) -> R {
            return (**std::launder(reinterpret_cast<Box*>(s)))(
                std::forward<Args>(args)...);
          },
          [](void* s, Args&&... args) -> R {
            const std::unique_ptr<Decayed> fn(
                *std::launder(reinterpret_cast<Box*>(s)));
            return (*fn)(std::forward<Args>(args)...);
          },
          [](void* dst, void* src) noexcept {
            Box* from = std::launder(reinterpret_cast<Box*>(src));
            ::new (dst) Box(*from);
            from->~Box();
          },
          [](void* s) noexcept {
            Box* box = std::launder(reinterpret_cast<Box*>(s));
            delete *box;
            box->~Box();
          },
      };
      ops_ = &ops;
    }
  }

  void MoveFrom(InlineFunction& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(storage_, other.storage_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[Cap];
  const Ops* ops_ = nullptr;
};

}  // namespace cowbird
