#include "sim/event_queue.h"

#include <bit>
#include <stdexcept>
#include <utility>

namespace xlupc::sim {

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

void EventQueue::schedule(Time t, Callback&& fn) {
  if (t < floor_) {
    throw std::logic_error("EventQueue::schedule: time in the past");
  }
  std::uint32_t s = free_;
  if (s != kNil) {
    free_ = keys_[s].next;
    fns_[s] = std::move(fn);
  } else {
    s = static_cast<std::uint32_t>(keys_.size());
    keys_.emplace_back();
    fns_.push_back(std::move(fn));
  }
  keys_[s] = Key{t, kNil};
  push(s);
  ++size_;
}

Time EventQueue::pop_and_run() {
  if (head_[0] == kNil) refill();
  const std::uint32_t s = head_[0];
  head_[0] = keys_[s].next;
  if (head_[0] == kNil) tail_[0] = kNil;
  // Move the callback out and free the slot *before* running, so the
  // callback can schedule freely (often straight back into the slot it
  // just vacated — cache-hot by construction).
  Callback fn = std::move(fns_[s]);
  keys_[s].next = free_;
  free_ = s;
  --size_;
  ++executed_;
  const Time t = floor_;
  fn();
  return t;
}

}  // namespace xlupc::sim
