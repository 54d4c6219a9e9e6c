// Wall-clock microbenchmarks (google-benchmark) of the real data
// structures on the critical paths: the remote address cache probe that
// sits in front of every remote access, SVD translation, memory
// registration bookkeeping, the simulator's event queue and resources,
// and the congestion fabric's hop walk.
#include <benchmark/benchmark.h>

#include "core/address_cache.h"
#include "mem/address_space.h"
#include "mem/pinned_table.h"
#include "mem/registration_cache.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "sim/resource.h"
#include "sim/rng.h"
#include "svd/directory.h"

namespace {

using namespace xlupc;

// One probe per iteration of a 100-entry cache (the paper's limit).
// `hit`: 64 resident keys probed at random. `miss_evict`: a fresh key
// every time, so the full cache misses, inserts and evicts its LRU entry.
void BM_AddressCache(benchmark::State& state, bool miss_evict) {
  core::AddressCache cache(100);
  for (std::uint64_t n = 0; n < 64; ++n) {
    cache.insert(core::CacheKey{1, static_cast<NodeId>(n), 0},
                 net::BaseInfo{0x1000 + n, n});
  }
  sim::Rng rng(42);
  std::uint64_t h = 1;
  for (auto _ : state) {
    if (miss_evict) {
      const core::CacheKey key{++h, 0, 0};
      if (!cache.lookup(key)) cache.insert(key, net::BaseInfo{h, h});
    } else {
      const core::CacheKey key{1, static_cast<NodeId>(rng.below(64)), 0};
      benchmark::DoNotOptimize(cache.lookup(key));
    }
  }
  benchmark::DoNotOptimize(cache.stats().evictions);
}
BENCHMARK_CAPTURE(BM_AddressCache, hit, false);
BENCHMARK_CAPTURE(BM_AddressCache, miss_evict, true);

// One hardware charge (Resource::use of 10 ns) per iteration. `free`:
// one process, the unit is always free. `contended`: four processes on
// one unit, so every charge queues and release() hands the unit over.
sim::Task<> charge_forever(sim::Resource& r) {
  for (;;) co_await r.use(10);
}

void BM_ResourceUse(benchmark::State& state, int processes) {
  sim::Simulator sim;
  sim::Resource r(sim, 1);
  for (int i = 0; i < processes; ++i) sim.spawn(charge_forever(r));
  for (auto _ : state) sim.run_until(sim.now() + 10);
  benchmark::DoNotOptimize(r.acquisitions());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ResourceUse, free, 1);
BENCHMARK_CAPTURE(BM_ResourceUse, contended, 4);

// Home-node translation in a replica of `threads` UPC threads holding 32
// objects in ALL and one in each of 32 thread partitions spread across
// the thread range: the find() behind every AM-served access.
void BM_SvdTranslate(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  svd::Directory dir(threads);
  std::vector<svd::Handle> handles;
  for (std::uint32_t i = 0; i < 32; ++i) {
    svd::ControlBlock cb;
    cb.local_base = 0x10000 + i * 0x1000;
    cb.local_bytes = 0x1000;
    handles.push_back(dir.add_local(svd::kAllPartition, 0, cb));
    const std::uint32_t t = i * (threads / 32);
    handles.push_back(dir.add_local(t, t, cb));
  }
  sim::Rng rng(7);
  for (auto _ : state) {
    const auto& h = handles[rng.below(handles.size())];
    benchmark::DoNotOptimize(dir.translate(h, rng.below(0x1000)));
  }
}
BENCHMARK(BM_SvdTranslate)->Arg(64)->Arg(8192);

// Building and dropping one empty replica: the per-node set-up cost a
// Runtime pays once per node.
void BM_DirectoryConstruct(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    svd::Directory dir(threads);
    benchmark::DoNotOptimize(dir);
  }
}
BENCHMARK(BM_DirectoryConstruct)->Arg(64)->Arg(8192);

void BM_PinnedTableQuery(benchmark::State& state) {
  mem::PinnedAddressTable table(mem::PinStrategy::kChunked, {});
  const Addr base = mem::node_base(0);
  table.pin(base, 64 << 20);
  sim::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.is_pinned(base + rng.below(64 << 20), 64));
  }
}
BENCHMARK(BM_PinnedTableQuery);

void BM_RegistrationCacheEnsure(benchmark::State& state) {
  mem::RegistrationCache rc(1 << 30);
  sim::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rc.ensure(mem::node_base(0) + (rng.below(256) << 20), 4096));
  }
}
BENCHMARK(BM_RegistrationCacheEnsure);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng(13);
  sim::Time now = 0;
  int sink = 0;
  const sim::Thunk bump{[](void* p) { ++*static_cast<int*>(p); }, &sink};
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) q.schedule(now + rng.below(1000), bump);
    while (!q.empty()) now = q.pop_and_run();
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_EventQueueScheduleRun);

// A deep queue in steady state: N events pending, and each pop
// schedules one successor 256 ns to 4 us later, the delay mix measured
// in the perfbench workloads (hundreds to thousands pending).
struct HoldEvent {
  sim::EventQueue* q;
  sim::Rng* rng;
  static void run(void* self) {
    auto* h = static_cast<HoldEvent*>(self);
    h->q->schedule(h->q->now() + 256 + h->rng->below(3841),
                   sim::Thunk{&run, self});
  }
};

void BM_EventQueueHold(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng(19);
  HoldEvent hold{&q, &rng};
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    q.schedule(rng.below(4096), sim::Thunk{&HoldEvent::run, &hold});
  }
  for (auto _ : state) benchmark::DoNotOptimize(q.pop_and_run());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(256)->Arg(4096);

// One 4 KiB message through a standalone IB fat tree of N nodes with
// finite buffers: a seeded cross-leaf pair per iteration (3 or 5 hops),
// run to completion. Each hop looks up two switch ports.
void BM_FabricTransit(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const net::PlatformParams ib = net::infiniband_verbs();
  net::FabricParams fp;
  fp.port_credits = 4;
  fp.route_seed = 7;
  sim::Simulator sim;
  net::Fabric fab(sim, ib, nodes, fp);
  sim::Rng rng(23);
  for (auto _ : state) {
    const auto src = static_cast<NodeId>(rng.below(nodes));
    auto dst = static_cast<NodeId>(rng.below(nodes));
    if (dst / net::kFatTreeLeaf == src / net::kFatTreeLeaf) {
      dst = (dst + net::kFatTreeLeaf) % nodes;
    }
    sim.spawn(fab.transit(src, dst, 4096));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FabricTransit)->Arg(72)->Arg(1296);

void BM_RngBelow(benchmark::State& state) {
  sim::Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(12345));
  }
}
BENCHMARK(BM_RngBelow);

}  // namespace
