// Time-ordered event queue for the discrete-event simulator.
//
// A radix heap keyed on simulated time (docs/PERFORMANCE.md). It relies
// on simulated time being monotone: schedule() rejects a time before
// the last popped one, so every pending key t satisfies t >= floor_,
// the time of the last pop. An event lives in bucket bit_width(t ^
// floor_): bucket 0 holds the events due at floor_ itself, bucket b > 0
// those whose highest bit differing from floor_ is bit b - 1. Pops drain
// bucket 0; when it is empty, the lowest non-empty bucket is scanned
// once in order, floor_ rises to its minimum, and each of its events
// moves to a lower bucket (they are all empty), so every event moves at
// most 64 times in its life and usually only a few.
//
// Equal-time events are delivered in schedule order (FIFO), which makes
// every simulation deterministic: events with one time always share a
// bucket, every bucket is a FIFO list, and the scan keeps their order.
//
// An event is a 16-byte thunk {fn, arg}: running it calls fn(arg).
// Nearly every event the runtime schedules is one of two kinds, and
// both fit with no capture: a coroutine resumption (arg is the frame
// address) and a Resource awaiter's hold end or handoff (arg is the
// awaiter). A type-erased callable (schedule(Time, Callback&&), used by
// tests and host code) is boxed in the pool and run by a thunk that
// destroys the box; the queue destroys any box still pending when it
// dies.
//
// Storage is one slab of slots, reused LIFO and never shrunk, so steady
// state allocates nothing and memory is bounded by the peak number of
// pending events. Each slot has a 16-byte key {time, next} in `keys_`
// and its 16-byte thunk in `evs_`: a bucket is a list threaded through
// the keys' `next` links, so buckets own no storage of their own, and
// the scan walks the dense key array without touching the thunks.
#pragma once

#include <array>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace xlupc::sim {

/// An event's action: running it calls `fn(arg)`.
struct Thunk {
  void (*fn)(void*) = nullptr;
  void* arg = nullptr;
};

/// Thunk body that resumes the coroutine whose frame address is `frame`.
inline void resume_frame(void* frame) {
  std::coroutine_handle<>::from_address(frame).resume();
}

/// The thunk that resumes `h`: the dominant event payload.
inline Thunk resume_thunk(std::coroutine_handle<> h) noexcept {
  return Thunk{&resume_frame, h.address()};
}

/// Min-queue of timed thunks with stable FIFO ordering for ties.
class EventQueue {
 public:
  EventQueue() {
    head_.fill(kNil);
    tail_.fill(kNil);
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// Destroys the boxed callbacks of events still pending.
  ~EventQueue();

  /// Schedule `ev` to run at absolute time `t`. Throws std::logic_error
  /// if `t` is before the time of the last popped event.
  void schedule(Time t, Thunk ev);

  /// Schedule an arbitrary callable: it is boxed in the pool, and the
  /// box is freed after it runs (or when the queue dies). Same time
  /// rule as above.
  void schedule(Time t, Callback&& fn);

  /// True when no events remain.
  bool empty() const noexcept { return size_ == 0; }

  /// Number of pending events.
  std::size_t size() const noexcept { return size_; }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  /// Does not advance the floor, so events may still be scheduled at
  /// any time >= the last popped one after a peek.
  Time next_time() const noexcept {
    return head_[0] != kNil ? floor_ : min_[lowest_bucket()];
  }

  /// Time of the last popped event (0 before the first): the simulation
  /// clock, and the earliest time schedule() accepts.
  Time now() const noexcept { return floor_; }

  /// Remove and run the earliest event; returns its timestamp.
  Time pop_and_run();

  /// Total number of events executed so far (for micro-benchmarks/tests).
  std::uint64_t executed() const noexcept { return executed_; }

  /// Slab occupancy (tests: reuse under churn). slab_capacity() never
  /// shrinks, so steady state means it stops growing while events keep
  /// flowing; free_slots() walks the free list.
  std::size_t slab_capacity() const noexcept { return keys_.size(); }
  std::size_t free_slots() const noexcept;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr int kBuckets = 65;

  struct Key {
    Time time;
    std::uint32_t next;  // bucket FIFO link, or free-list link
  };

  /// Thunk body of a boxed callback: runs it, then destroys the box.
  static void run_boxed(void* box);
  static void free_box(Callback* box) noexcept;

  // Lowest non-empty bucket above 0. Precondition: mask_ != 0.
  int lowest_bucket() const noexcept { return std::countr_zero(mask_) + 1; }
  void push(std::uint32_t slot) noexcept;
  void refill() noexcept;

  std::vector<Key> keys_;
  std::vector<Thunk> evs_;
  std::uint32_t free_ = kNil;  // LIFO free-slot list through Key::next
  std::array<std::uint32_t, kBuckets> head_;
  std::array<std::uint32_t, kBuckets> tail_;
  std::array<Time, kBuckets> min_{};  // per-bucket minimum (buckets > 0)
  std::uint64_t mask_ = 0;            // bit b - 1 set: bucket b non-empty
  Time floor_ = 0;
  std::size_t size_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace xlupc::sim
