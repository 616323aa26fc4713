// Small-buffer-optimized move-only callback, the simulation kernel's event
// payload type.
//
// Every scheduled event and every transfer-completion callback used to be a
// std::function<void()>: one heap allocation per schedule once captures
// exceed std::function's tiny inline buffer, plus copy-constructibility the
// kernel never needs. SmallFunction stores the common capture shapes used by
// src/storage, src/dfs, src/cluster, and src/core (a `this` pointer plus a
// few ids/byte counts) inline — the hot schedule/dispatch path performs no
// allocation at all. Larger captures spill to the heap through plain
// new/delete; a spill-heavy 512-node run measured no slower that way than
// through a recycling slab (docs/PERF.md).
//
// Move-only by design (events fire once and the queue is the only owner);
// any callable is accepted, including move-only lambdas that std::function
// rejects. A SmallFunction holds no per-thread state, so what a run does
// never depends on the thread that ran it.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ignem {

/// Move-only `void()` callable with inline storage for small captures.
class SmallFunction {
 public:
  /// Inline capacity: fits a `this` pointer plus ~5 words of ids, byte
  /// counts, and small handles — the kernel's common capture shapes.
  static constexpr std::size_t kInlineBytes = 48;

  SmallFunction() = default;
  SmallFunction(std::nullptr_t) {}  // NOLINT: match std::function's interface

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFunction(F&& f) {  // NOLINT: implicit, like std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &spill_ops<Fn>;
    }
  }

  SmallFunction(SmallFunction&& other) noexcept { move_from(other); }

  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }
  bool operator==(std::nullptr_t) const { return ops_ == nullptr; }

 private:
  /// Each takes the storage buffer: the callable itself when inline, a
  /// pointer to it when spilled.
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs dst's storage from src and destroys src's callable.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops spill_ops = {
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* dst, void* src) { ::new (dst) Fn*(*static_cast<Fn**>(src)); },
      [](void* p) { delete *static_cast<Fn**>(p); },
  };

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  void move_from(SmallFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace ignem
