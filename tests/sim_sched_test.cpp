// Event-queue and allocator tests for the simulator core
// (docs/PERFORMANCE.md): the radix-heap EventQueue against a reference
// priority queue on random schedules of thunk and boxed-callback events,
// host scheduling between run_until calls, slab reuse under churn, boxed
// callbacks destroyed with their queue, the pool, and the
// small-buffer-optimized callback types.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/event_queue.h"
#include "sim/pool.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace xlupc {
namespace {

using sim::Callback;
using sim::EventQueue;
using sim::SmallFn;

// ------------------------------------------------------------------
// Event order against a reference queue
// ------------------------------------------------------------------

// The definition of the order every run depends on: earliest time
// first, ties in schedule order — a binary heap keyed by (time, seq)
// with seq a monotone schedule counter.
class ReferenceQueue {
 public:
  void schedule(sim::Time t, std::function<void()> fn) {
    heap_.push(Entry{t, seq_++, std::move(fn)});
  }
  void schedule(sim::Time t, sim::Thunk ev) {
    schedule(t, [ev] { ev.fn(ev.arg); });
  }
  bool empty() const { return heap_.empty(); }
  sim::Time pop_and_run() {
    Entry e = heap_.top();
    heap_.pop();
    e.fn();
    return e.time;
  }

 private:
  struct Entry {
    sim::Time time;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Entry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::uint64_t seq_ = 0;
};

// Run one seeded random schedule on `Queue` and return the popped
// (time, event id) sequence. Events reschedule from inside their
// callbacks; delays are zero, short (1-8 ns) or log-uniform up to
// 2^40 ns, and every 16th event schedules a burst of 40 at one time.
// With `thunks`, two events in three are {fn, arg} thunks and the rest
// boxed callbacks; otherwise every event is a boxed callback.
template <class Queue>
std::vector<std::pair<sim::Time, int>> replay(std::uint64_t seed,
                                              bool thunks) {
  Queue q;
  sim::Rng rng(seed);
  std::vector<std::pair<sim::Time, int>> popped;
  int next_id = 0;
  auto delay = [&rng]() -> sim::Duration {
    switch (rng.below(4)) {
      case 0:
        return 0;
      case 1:
        return 1 + rng.below(8);
      default: {
        const sim::Duration scale = sim::Duration{1} << rng.below(40);
        return scale + rng.below(scale);
      }
    }
  };
  std::function<void(sim::Time, int)> fire;
  struct Pending {
    std::function<void(sim::Time, int)>* fire;
    sim::Time t;
    int id;
  };
  std::deque<Pending> pending;  // stable addresses for thunk arguments
  auto add = [&](sim::Time t) {
    const int id = next_id++;
    if (thunks && id % 3 != 0) {
      pending.push_back(Pending{&fire, t, id});
      q.schedule(t, sim::Thunk{[](void* arg) {
                                 const auto* p = static_cast<Pending*>(arg);
                                 (*p->fire)(p->t, p->id);
                               },
                               &pending.back()});
    } else {
      q.schedule(t, [&fire, t, id] { fire(t, id); });
    }
  };
  fire = [&](sim::Time now, int id) {
    popped.emplace_back(now, id);
    if (next_id >= 20000) return;
    for (std::uint64_t k = rng.below(3); k > 0; --k) add(now + delay());
    if (id % 16 == 0) {
      const sim::Time burst = now + delay();
      for (int k = 0; k < 40; ++k) add(burst);
    }
  };
  for (int i = 0; i < 300; ++i) add(delay());
  for (int i = 0; i < 100; ++i) add(7);
  while (!q.empty()) q.pop_and_run();
  return popped;
}

TEST(EventQueueOrder, MatchesReferenceOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const bool thunks : {false, true}) {
      const auto want = replay<ReferenceQueue>(seed, thunks);
      ASSERT_GT(want.size(), 5000u);
      EXPECT_EQ(replay<EventQueue>(seed, thunks), want)
          << "seed " << seed << (thunks ? ", thunks and boxes" : "");
    }
  }
}

TEST(EventQueueOrder, InterleavedEqualTimesRunFifo) {
  EventQueue q;
  std::vector<int> order;
  // Interleave two timestamps so FIFO must hold per time, not
  // globally: expected pop order is all of t=5 (0..15), then t=9.
  for (int i = 0; i < 16; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
    q.schedule(9, [&order, i] { order.push_back(100 + i); });
  }
  while (!q.empty()) q.pop_and_run();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(order[16 + i], 100 + i);
  }
}

TEST(EventQueueOrder, HostScheduleBetweenRunUntilCalls) {
  // Peeking at the next event (run_until's deadline test) must not
  // advance the queue's floor: host code may still schedule anywhere
  // between the last event run and the next one pending.
  sim::Simulator sim;
  std::vector<sim::Time> ran;
  for (sim::Time t : {10, 20, 30}) {
    sim.schedule_at(t, [&ran, &sim] { ran.push_back(sim.now()); });
  }
  EXPECT_EQ(sim.run_until(20), 20u);
  sim.schedule_at(25, [&ran, &sim] { ran.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(ran, (std::vector<sim::Time>{10, 20, 25, 30}));
}

TEST(EventQueueOrder, SchedulingBeforeLastPopThrows) {
  EventQueue q;
  q.schedule(10, [] {});
  q.schedule(20, [] {});
  EXPECT_EQ(q.pop_and_run(), 10u);
  EXPECT_EQ(q.next_time(), 20u);
  EXPECT_THROW(q.schedule(9, [] {}), std::logic_error);
  q.schedule(10, [] {});  // at the last popped time: still accepted
  q.schedule(15, [] {});
  EXPECT_EQ(q.pop_and_run(), 10u);
  EXPECT_EQ(q.pop_and_run(), 15u);
  EXPECT_EQ(q.pop_and_run(), 20u);
  EXPECT_TRUE(q.empty());
}

// ------------------------------------------------------------------
// Slab / pool reuse under churn
// ------------------------------------------------------------------

TEST(EventQueueStorage, SlabStopsGrowingUnderChurn) {
  // Buckets are lists threaded through the slab's keys, so the slab is
  // the queue's only storage. Prime it with one round that holds 512
  // events pending while each pop schedules a successor, then churn:
  // capacity must stay at the high-water mark.
  EventQueue q;
  sim::Rng rng(5);
  auto round = [&q, &rng] {
    int budget = 4096;
    std::function<void()> hold = [&] {
      if (--budget >= 0) q.schedule(q.now() + 256 + rng.below(3841), hold);
    };
    for (int i = 0; i < 512; ++i) q.schedule(q.now() + rng.below(4096), hold);
    while (!q.empty()) q.pop_and_run();
  };
  round();
  const std::size_t cap = q.slab_capacity();
  ASSERT_GE(cap, 512u);
  for (int r = 0; r < 20; ++r) round();
  EXPECT_EQ(q.slab_capacity(), cap);
  EXPECT_EQ(q.free_slots(), cap);  // drained queue: every slot free
}

// Counts its live copies; `Pad` bytes of ballast decide whether a
// Callback keeps it inline or spills it to the pool.
template <std::size_t Pad>
struct LiveCounted {
  int* live;
  std::array<char, Pad> pad{};
  explicit LiveCounted(int* l) : live(l) { ++*live; }
  LiveCounted(const LiveCounted& o) noexcept : live(o.live), pad(o.pad) {
    ++*live;
  }
  LiveCounted& operator=(const LiveCounted&) = delete;
  ~LiveCounted() { --*live; }
  void operator()() const {}
};

TEST(EventQueueStorage, PendingBoxedCallbacksDieWithTheQueue) {
  int live = 0;
  {
    EventQueue q;
    int thunk_runs = 0;
    q.schedule(5, LiveCounted<8>{&live});
    q.schedule(5, sim::Thunk{[](void* n) { ++*static_cast<int*>(n); },
                             &thunk_runs});
    q.schedule(7, LiveCounted<200>{&live});        // spilled to the pool
    q.schedule(sim::Time{1} << 40, LiveCounted<8>{&live});  // high bucket
    q.schedule(9, sim::Thunk{[](void* n) { ++*static_cast<int*>(n); },
                             &thunk_runs});
    EXPECT_EQ(live, 3);
    EXPECT_EQ(q.pop_and_run(), 5u);  // a box runs and is freed
    EXPECT_EQ(live, 2);
    EXPECT_EQ(q.pop_and_run(), 5u);
    EXPECT_EQ(thunk_runs, 1);
  }
  EXPECT_EQ(live, 0);
  {
    sim::Simulator sim;
    sim.schedule_at(10, LiveCounted<8>{&live});
    sim.schedule_at(20, LiveCounted<200>{&live});
    sim.schedule_at(30, LiveCounted<8>{&live});
    EXPECT_EQ(sim.run_until(10), 10u);
    EXPECT_EQ(live, 2);
  }
  EXPECT_EQ(live, 0);
}

TEST(PoolAllocator, ReusesFreedBlocksWithoutNewChunks) {
  // Prime the size class, then churn it: every allocation must be served
  // from the freelist (no new chunks carved). Under ASan the pool is
  // compiled out and every block comes from operator new instead.
  sim::pool_free(sim::pool_alloc(128), 128);
  const sim::PoolStats before = sim::pool_stats();
  for (int i = 0; i < 1000; ++i) {
    void* p = sim::pool_alloc(128);
    sim::pool_free(p, 128);
  }
  const sim::PoolStats after = sim::pool_stats();
  EXPECT_EQ(after.allocations, before.allocations + 1000);
  EXPECT_EQ(after.frees, before.frees + 1000);
  EXPECT_EQ(after.chunks, before.chunks);
  EXPECT_EQ(after.chunk_bytes, before.chunk_bytes);
  EXPECT_EQ(after.reuses, before.reuses + (sim::kPoolBypass ? 0 : 1000));
}

TEST(PoolAllocator, SizedFreeReturnsBlockToItsClass) {
  // Blocks carry no header: the size passed to pool_free picks the
  // 32-byte class, so a 100-byte block is the next 97..128-byte block.
  void* p = sim::pool_alloc(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(std::max_align_t),
            0u);
  sim::pool_free(p, 100);
  void* q = sim::pool_alloc(97);
  if (!sim::kPoolBypass) {
    EXPECT_EQ(q, p);
  }
  sim::pool_free(q, 97);
}

TEST(PoolAllocator, HeaderlessBlocksFillChunksExactly) {
  // With no per-block header a 64 KiB chunk carves into exactly 32
  // blocks of the 2 KiB class. Allocate until a chunk is carved, then
  // count the allocations up to the next carve.
  std::vector<void*> held;
  auto alloc = [&held] {
    held.push_back(sim::pool_alloc(2048));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(held.back()) %
                  alignof(std::max_align_t),
              0u);
  };
  const std::uint64_t start = sim::pool_stats().chunks;
  while (sim::pool_stats().chunks == start && held.size() < 64) alloc();
  if (sim::kPoolBypass) {
    EXPECT_EQ(sim::pool_stats().chunks, start);  // never carves
  } else {
    const std::uint64_t carved = sim::pool_stats().chunks;
    std::size_t count = 0;
    while (sim::pool_stats().chunks == carved && count < 64) {
      alloc();
      ++count;
    }
    EXPECT_EQ(count, 64u * 1024 / 2048);
  }
  for (void* p : held) sim::pool_free(p, 2048);
}

TEST(PoolAllocator, OversizeBlocksFallThrough) {
  const sim::PoolStats before = sim::pool_stats();
  void* big = sim::pool_alloc(1 << 20);
  sim::pool_free(big, 1 << 20);
  EXPECT_EQ(sim::pool_stats().oversize, before.oversize + 1);
}

// ------------------------------------------------------------------
// Small-buffer-optimized callable types
// ------------------------------------------------------------------

TEST(CallbackType, InlineCaptureSurvivesMove) {
  std::array<char, 32> payload{};
  payload[0] = 7;
  int hits = 0;
  Callback a([payload, &hits] { hits += payload[0]; });
  Callback b(std::move(a));  // relocate within the inline buffer
  b();
  EXPECT_EQ(hits, 7);
}

TEST(CallbackType, NonTrivialInlineCallableMovesThroughItsConstructor) {
  // Trivially copyable callables relocate as a byte copy; anything else
  // must still go through its move constructor, and every object built
  // along the way must be destroyed exactly once.
  struct Tracked {
    int* moves;
    int* live;
    Tracked(int* m, int* l) : moves(m), live(l) { ++*live; }
    Tracked(Tracked&& o) noexcept : moves(o.moves), live(o.live) {
      ++*moves;
      ++*live;
    }
    Tracked(const Tracked&) = delete;
    ~Tracked() { --*live; }
    void operator()() const { ++*moves; }
  };
  static_assert(!std::is_trivially_copyable_v<Tracked>);
  int moves = 0;
  int live = 0;
  {
    Callback a(Tracked{&moves, &live});  // moved into the inline buffer
    EXPECT_EQ(moves, 1);
    EXPECT_EQ(live, 1);
    Callback b(std::move(a));
    EXPECT_EQ(moves, 2);
    EXPECT_EQ(live, 1);
    Callback c;
    c = std::move(b);
    EXPECT_EQ(moves, 3);
    EXPECT_EQ(live, 1);
    c();
    EXPECT_EQ(moves, 4);
  }
  EXPECT_EQ(live, 0);
}

TEST(CallbackType, SpilledCaptureSurvivesMove) {
  std::array<char, 200> payload{};  // larger than the inline buffer
  payload[0] = 3;
  int hits = 0;
  Callback a([payload, &hits] { hits += payload[0]; });
  Callback b(std::move(a));
  Callback c(std::move(b));
  c();
  EXPECT_EQ(hits, 3);
}

TEST(SmallFnType, InvokesWithArgumentsAndResult) {
  SmallFn<int(int, int)> f([](int a, int b) { return a * 10 + b; });
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(3, 4), 34);
  SmallFn<int(int, int)> g(std::move(f));
  EXPECT_EQ(g(1, 2), 12);
}

TEST(SmallFnType, SpilledStateSurvivesMoveChain) {
  std::array<std::uint64_t, 16> big{};
  big[15] = 42;
  SmallFn<std::uint64_t()> f([big] { return big[15]; });
  SmallFn<std::uint64_t()> g(std::move(f));
  SmallFn<std::uint64_t()> h(std::move(g));
  EXPECT_EQ(h(), 42u);
}

TEST(SmallFnType, DefaultConstructedIsEmpty) {
  SmallFn<void()> f;
  EXPECT_FALSE(static_cast<bool>(f));
  f = SmallFn<void()>([] {});
  EXPECT_TRUE(static_cast<bool>(f));
}

}  // namespace
}  // namespace xlupc
