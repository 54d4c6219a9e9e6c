#include "sim/event_queue.h"

#include <bit>
#include <new>
#include <stdexcept>
#include <utility>

#include "sim/pool.h"

namespace xlupc::sim {

EventQueue::~EventQueue() {
  for (int b = 0; b < kBuckets; ++b) {
    for (std::uint32_t s = head_[b]; s != kNil; s = keys_[s].next) {
      if (evs_[s].fn == &run_boxed) {
        free_box(static_cast<Callback*>(evs_[s].arg));
      }
    }
  }
}

void EventQueue::free_box(Callback* box) noexcept {
  box->~Callback();
  pool_free(box, sizeof(Callback));
}

void EventQueue::run_boxed(void* box) {
  struct Free {
    Callback* box;
    ~Free() { free_box(box); }
  } free{static_cast<Callback*>(box)};
  (*free.box)();
}

std::size_t EventQueue::free_slots() const noexcept {
  std::size_t n = 0;
  for (std::uint32_t s = free_; s != kNil; s = keys_[s].next) ++n;
  return n;
}

// Append `slot` to the tail of its bucket.
void EventQueue::push(std::uint32_t slot) noexcept {
  const Time t = keys_[slot].time;
  const int b = std::bit_width(t ^ floor_);
  if (tail_[b] == kNil) {
    head_[b] = slot;
    if (b != 0) {
      min_[b] = t;
      mask_ |= std::uint64_t{1} << (b - 1);
    }
  } else {
    keys_[tail_[b]].next = slot;
    if (t < min_[b]) min_[b] = t;
  }
  tail_[b] = slot;
}

// Bucket 0 is empty: raise the floor to the minimum of the lowest
// non-empty bucket and redistribute that bucket, in order, below it.
void EventQueue::refill() noexcept {
  const int b = lowest_bucket();
  floor_ = min_[b];
  std::uint32_t s = head_[b];
  head_[b] = tail_[b] = kNil;
  mask_ &= mask_ - 1;
  while (s != kNil) {
    const std::uint32_t next = keys_[s].next;
    keys_[s].next = kNil;
    push(s);
    s = next;
  }
}

void EventQueue::schedule(Time t, Thunk ev) {
  if (t < floor_) {
    throw std::logic_error("EventQueue::schedule: time in the past");
  }
  std::uint32_t s = free_;
  if (s != kNil) {
    free_ = keys_[s].next;
    keys_[s] = Key{t, kNil};
    evs_[s] = ev;
  } else {
    s = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back(Key{t, kNil});
    evs_.push_back(ev);
  }
  push(s);
  ++size_;
}

void EventQueue::schedule(Time t, Callback&& fn) {
  auto* box = ::new (pool_alloc(sizeof(Callback))) Callback(std::move(fn));
  try {
    schedule(t, Thunk{&run_boxed, box});
  } catch (...) {
    free_box(box);
    throw;
  }
}

Time EventQueue::pop_and_run() {
  if (head_[0] == kNil) refill();
  const std::uint32_t s = head_[0];
  head_[0] = keys_[s].next;
  if (head_[0] == kNil) tail_[0] = kNil;
  // Copy the thunk out and free the slot *before* running, so the event
  // can schedule freely (often straight back into the slot it just
  // vacated — cache-hot by construction).
  const Thunk ev = evs_[s];
  keys_[s].next = free_;
  free_ = s;
  --size_;
  ++executed_;
  const Time t = floor_;
  ev.fn(ev.arg);
  return t;
}

}  // namespace xlupc::sim
