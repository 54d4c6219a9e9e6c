// FIFO resources modelling contended hardware (CPU cores, NIC engines).
//
// A Resource has an integer capacity; processes acquire one unit, hold it
// for some simulated time, then release. Waiters queue in FIFO order,
// which models the in-order service of NIC send queues and the run queue
// behaviour the paper's Field analysis depends on. Busy time, queue-wait
// time and acquisition counts are tracked so experiments can report
// utilization and contention (docs/OBSERVABILITY.md).
//
// The wait queue is intrusive: each queued waiter is a node inside the
// suspended acquire()/use() awaiter, which lives in the waiting
// coroutine's frame until the waiter resumes. Queueing therefore
// allocates nothing, and a Resource owns no heap storage beyond its name.
#pragma once

#include <coroutine>
#include <cstdint>
#include <string>

#include "sim/simulator.h"
#include "sim/task.h"

namespace xlupc::sim {

class Resource {
 public:
  Resource(Simulator& sim, std::uint64_t capacity, std::string name = {})
      : sim_(&sim), capacity_(capacity), name_(std::move(name)) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;
  /// Movable only while idle (nothing held or queued), so that owners can
  /// build dense arrays of resources; awaiters point at their Resource.
  Resource(Resource&&) noexcept = default;
  Resource& operator=(Resource&&) = delete;

  /// Awaitable acquisition of one capacity unit (FIFO). When a unit is
  /// released to a queued waiter it stays reserved until that waiter runs,
  /// so later arrivals can never overtake the queue.
  auto acquire() {
    struct Awaiter : Waiter {
      Resource* r;
      explicit Awaiter(Resource* res) : r(res) {}
      bool await_ready() const noexcept { return r->can_grant_now(); }
      void await_suspend(std::coroutine_handle<> h) {
        r->enqueue(*this, resume_thunk(h));
      }
      void await_resume() const { r->granted(); }
    };
    return Awaiter{this};
  }

  /// Release one previously acquired unit.
  void release();

  /// Convenience: acquire, hold for `d`, release — the single hottest
  /// pattern in the runtime (every CPU charge, every NIC injection).
  /// Implemented as a frameless awaiter rather than a Task<> coroutine:
  /// the acquire/delay/release sequence needs no frame of its own, which
  /// removes one coroutine allocation + teardown per hardware charge.
  /// Event scheduling is identical to the coroutine form, so simulations
  /// are byte-for-byte unchanged.
  auto use(Duration d) {
    struct UseAwaiter : Waiter {
      Resource* r;
      Duration d;
      std::coroutine_handle<> cont;
      UseAwaiter(Resource* res, Duration hold_for) : r(res), d(hold_for) {}

      bool await_ready() {
        // Fully synchronous when the unit is free and the hold is zero
        // (mirrors acquire's ready path + delay(0)'s no-suspend path).
        if (r->can_grant_now() && d == 0) {
          r->granted();
          r->release();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        cont = h;
        if (r->can_grant_now()) {
          r->granted();
          hold();
        } else {
          r->enqueue(*this, Thunk{&handoff, this});
        }
      }
      void await_resume() const noexcept {}

      // The handoff event: the unit reserved in release() is now ours.
      static void handoff(void* awaiter) {
        auto* self = static_cast<UseAwaiter*>(awaiter);
        self->r->granted();
        if (self->d == 0) {
          self->r->release();
          self->cont.resume();
        } else {
          self->hold();
        }
      }
      // Unit held: schedule the release at the end of the hold.
      void hold() { r->sim_->schedule_after(d, Thunk{&end_hold, this}); }
      static void end_hold(void* awaiter) {
        auto* self = static_cast<UseAwaiter*>(awaiter);
        self->r->release();
        self->cont.resume();
      }
    };
    return UseAwaiter{this, d};
  }

  const std::string& name() const noexcept { return name_; }
  std::uint64_t capacity() const noexcept { return capacity_; }
  std::uint64_t in_use() const noexcept { return in_use_; }
  std::uint64_t queue_length() const noexcept { return queue_length_; }

  /// Accumulated unit-busy nanoseconds (integral of in_use over time)
  /// since construction or the last reset_usage().
  Duration busy_time() const;

  /// Total time waiters spent queued before being granted a unit, since
  /// construction or the last reset_usage(). Processes still queued at
  /// observation time are not counted.
  Duration queue_wait_time() const noexcept { return queue_wait_accum_; }

  /// Successful acquisitions since construction or the last reset_usage().
  std::uint64_t acquisitions() const noexcept { return acquisitions_; }

  /// Fraction [0, 1] of the total capacity kept busy over the usage
  /// window (reset_usage() .. now). 0 when the window is empty.
  double utilization() const;

  /// Zero the usage statistics (busy time, queue wait, acquisitions) and
  /// start a fresh observation window at the current simulated time.
  /// In-flight holds contribute to the new window from now on.
  void reset_usage();

 private:
  /// A queued acquire()/use(), embedded in its awaiter. release() posts
  /// the event `handoff`, which grants the waiter its reserved unit.
  struct Waiter {
    Waiter* next = nullptr;
    Time enqueued = 0;
    Thunk handoff;
  };

  void enqueue(Waiter& w, Thunk handoff) noexcept {
    w.next = nullptr;
    w.enqueued = sim_->now();
    w.handoff = handoff;
    if (tail_ == nullptr) {
      head_ = &w;
    } else {
      tail_->next = &w;
    }
    tail_ = &w;
    ++queue_length_;
  }

  /// A fresh acquire can proceed immediately: a unit is free and nobody
  /// is queued ahead (released units stay reserved for queued waiters).
  bool can_grant_now() const noexcept {
    return in_use_ < capacity_ && head_ == nullptr && pending_handoffs_ == 0;
  }
  /// Bookkeeping common to every successful acquisition.
  void granted() {
    ++acquisitions_;
    if (pending_handoffs_ > 0) {
      --pending_handoffs_;  // unit was reserved in release()
    } else {
      grant_one();
    }
  }

  void grant_one();
  void account() const;

  // An uncontended use()/release() touches only the first 64 bytes.
  Simulator* sim_;
  Waiter* head_ = nullptr;
  std::uint64_t capacity_;
  std::uint64_t in_use_ = 0;
  std::uint64_t pending_handoffs_ = 0;
  mutable Time last_change_ = 0;
  mutable Duration busy_accum_ = 0;
  std::uint64_t acquisitions_ = 0;
  Waiter* tail_ = nullptr;
  Duration queue_wait_accum_ = 0;
  std::uint64_t queue_length_ = 0;
  Time usage_epoch_ = 0;
  std::string name_;
};

/// Acquire `r`, hold it for `d`, release — the common usage pattern.
inline auto hold(Resource& r, Duration d) { return r.use(d); }

}  // namespace xlupc::sim
