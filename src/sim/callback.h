// Small-buffer-optimized callables for transports and host-scheduled events.
//
// sim::SmallFn keeps N (default 48) bytes of inline storage and spills
// larger callables to the pool, not malloc. It is move-only, so
// callables holding move-only state (Task<> chains, unique_ptrs) need
// no copyability tax as std::function would impose. Trivially copyable
// inline callables and spilled pointers move as a plain copy of the
// buffer; only a non-trivially-copyable inline callable pays an
// indirect call to its move constructor.
//
// The transport's completion hooks are SmallFns. sim::Callback, the
// void() instance, is what EventQueue::schedule(Time, Callback&&)
// boxes; the runtime's own events are {fn, arg} thunks
// (sim/event_queue.h) and never construct one.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/pool.h"

namespace xlupc::sim {

/// Move-only type-erased callable with `N` bytes of inline storage;
/// larger (or over-aligned, or throwing-move) callables live in the pool.
template <class Sig, std::size_t N = 48>
class SmallFn;

template <class R, class... Args, std::size_t N>
class SmallFn<R(Args...), N> {
 public:
  SmallFn() noexcept = default;

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, SmallFn> &&
             std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>)
  SmallFn(F&& fn) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using D = std::remove_cvref_t<F>;
    if constexpr (sizeof(D) <= N && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      void* mem = pool_alloc(sizeof(D));
      try {
        ::new (mem) D(std::forward<F>(fn));
      } catch (...) {
        pool_free(mem, sizeof(D));
        throw;
      }
      ::new (static_cast<void*>(buf_)) void*(mem);
      ops_ = &kSpilledOps<D>;
    }
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invoke the callable. Precondition: non-empty.
  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* buf, Args&&... args);
    /// Move the callable buf -> dst and destroy the source; null when a
    /// byte copy of the buffer does both (trivially copyable inline
    /// callables, spilled pointers).
    void (*relocate)(void* buf, void* dst);
    /// Null when there is nothing to destroy.
    void (*destroy)(void* buf);
  };

  template <class D>
  static constexpr bool kTrivial = std::is_trivially_copyable_v<D>;

  template <class D>
  static constexpr Ops kInlineOps = {
      [](void* buf, Args&&... args) -> R {
        return (*std::launder(static_cast<D*>(buf)))(
            std::forward<Args>(args)...);
      },
      kTrivial<D> ? nullptr
                  : +[](void* buf, void* dst) {
                      D* src = std::launder(static_cast<D*>(buf));
                      ::new (dst) D(std::move(*src));
                      src->~D();
                    },
      kTrivial<D> ? nullptr
                  : +[](void* buf) { std::launder(static_cast<D*>(buf))->~D(); },
  };

  template <class D>
  static constexpr Ops kSpilledOps = {
      [](void* buf, Args&&... args) -> R {
        return (*static_cast<D*>(*static_cast<void**>(buf)))(
            std::forward<Args>(args)...);
      },
      nullptr,
      [](void* buf) {
        D* p = static_cast<D*>(*static_cast<void**>(buf));
        p->~D();
        pool_free(p, sizeof(D));
      },
  };

// The whole buffer is copied, including bytes the callable never
// wrote; copying indeterminate unsigned char is well defined, but gcc
// flags it once the construction is inlined into the same function.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
  void move_from(SmallFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(other.buf_, buf_);
    } else {
      std::memcpy(buf_, other.buf_, N);
    }
    other.ops_ = nullptr;
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[N];
  const Ops* ops_ = nullptr;
};

/// A type-erased void() callable (see EventQueue::schedule).
using Callback = SmallFn<void()>;

}  // namespace xlupc::sim
