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
// Storage is one slab of slots, reused LIFO and never shrunk, so steady
// state allocates nothing and memory is bounded by the peak number of
// pending events. Each slot has a 16-byte key {time, next} in `keys_`
// and a callback in `fns_`: a bucket is a list threaded through the
// keys' `next` links, so buckets own no storage of their own, and the
// scan walks the small key array without touching the callbacks.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace xlupc::sim {

/// Min-queue of timed callbacks with stable FIFO ordering for ties.
class EventQueue {
 public:
  using Callback = sim::Callback;

  EventQueue() {
    head_.fill(kNil);
    tail_.fill(kNil);
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` to run at absolute time `t`. Throws std::logic_error
  /// if `t` is before the time of the last popped event. Taken by rvalue
  /// reference so the callback is moved once, straight into its slot.
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

  // Lowest non-empty bucket above 0. Precondition: mask_ != 0.
  int lowest_bucket() const noexcept { return std::countr_zero(mask_) + 1; }
  void push(std::uint32_t slot) noexcept;
  void refill() noexcept;

  std::vector<Key> keys_;
  std::vector<Callback> fns_;
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
