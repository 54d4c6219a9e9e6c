// End-to-end tests of the XLUPC-style runtime: allocation, data movement
// over every path (local / shared-memory / AM / RDMA), address-cache
// population and invalidation, fences, barriers, locks, NAK fallback and
// determinism.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/runtime.h"
#include "core/shared_array.h"

namespace xlupc::core {
namespace {

using sim::Task;

RuntimeConfig gm_config(std::uint32_t nodes, std::uint32_t tpn,
                        bool cache = true) {
  RuntimeConfig cfg;
  cfg.platform = net::mare_nostrum_gm();
  cfg.nodes = nodes;
  cfg.threads_per_node = tpn;
  cfg.cache.enabled = cache;
  return cfg;
}

RuntimeConfig lapi_config(std::uint32_t nodes, std::uint32_t tpn,
                          bool cache = true) {
  RuntimeConfig cfg;
  cfg.platform = net::power5_lapi();
  cfg.nodes = nodes;
  cfg.threads_per_node = tpn;
  cfg.cache.enabled = cache;
  return cfg;
}

TEST(Runtime, ConfigValidation) {
  EXPECT_THROW(Runtime(gm_config(0, 1)), std::invalid_argument);
  auto cfg = gm_config(2, 5);  // MareNostrum blades have 4 cores
  EXPECT_THROW(Runtime rt(std::move(cfg)), std::invalid_argument);
}

// Each shape is rejected before the machine model allocates its nodes and
// cores: building any of them first would take gigabytes or wrap.
TEST(Runtime, BadShapesAreRejectedBeforeAllocation) {
  EXPECT_THROW(Runtime(gm_config(4, 0)), std::invalid_argument);
  // Far beyond the blade's 4 cores: 2^30 core resources per node.
  EXPECT_THROW(Runtime(gm_config(2, 1u << 30)), std::invalid_argument);
  // 2^30 x 4 = 2^32 threads: RuntimeConfig::threads() would wrap to 0.
  EXPECT_THROW(Runtime(gm_config(1u << 30, 4)), std::invalid_argument);
  // 0x55555555 x 3 = 0xffffffff threads: the count reaches the ALL
  // partition number, so n + 1 partitions no longer count in 32 bits.
  EXPECT_THROW(Runtime(gm_config(0x55555555u, 3)), std::invalid_argument);
}

TEST(Runtime, AllAllocGivesSameHandleEverywhere) {
  Runtime rt(gm_config(4, 2));
  std::vector<svd::Handle> handles(rt.threads());
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(64, 8);
    handles[th.id()] = a.handle;
    co_await th.barrier();
  });
  for (const auto& h : handles) {
    EXPECT_EQ(h, handles[0]);
    EXPECT_TRUE(h.is_all());
  }
  // Every node replica holds the control block with a local address.
  for (NodeId n = 0; n < 4; ++n) {
    const auto* cb = rt.directory(n).find(handles[0]);
    ASSERT_NE(cb, nullptr);
    EXPECT_NE(cb->local_base, kNullAddr);
  }
}

TEST(Runtime, SameArrayHasDifferentLocalAddressPerNode) {
  // The Fig. 2 property that motivates the whole design.
  Runtime rt(gm_config(4, 1));
  svd::Handle handle;
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(64, 8);
    handle = a.handle;
    co_await th.barrier();
  });
  std::set<Addr> bases;
  for (NodeId n = 0; n < 4; ++n) {
    bases.insert(rt.directory(n).find(handle)->local_base);
  }
  EXPECT_EQ(bases.size(), 4u);
}

TEST(Runtime, GetPutRoundTripAllPaths) {
  Runtime rt(gm_config(2, 2));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(64, 8);  // default block: 8 per thread
    co_await th.barrier();
    // Each thread writes every element it can reach: same-thread, same
    // node and remote slots all get distinct values from thread 0.
    if (th.id() == 0) {
      for (std::uint64_t i = 0; i < 64; ++i) {
        co_await th.write<std::uint64_t>(a, i, 1000 + i);
      }
      for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(co_await th.read<std::uint64_t>(a, i), 1000 + i);
      }
    }
    co_await th.barrier();
    // Every thread verifies every element (reads over all paths).
    for (std::uint64_t i = 0; i < 64; ++i) {
      EXPECT_EQ(co_await th.read<std::uint64_t>(a, i), 1000 + i);
    }
    co_await th.barrier();
  });
  const auto& c = rt.counters();
  EXPECT_GT(c.local_gets + c.shm_gets, 0u);
  EXPECT_GT(c.am_gets + c.rdma_gets, 0u);
  EXPECT_EQ(c.rdma_naks, 0u);  // greedy pinning: a hit is always valid
}

TEST(Runtime, CachePopulatesViaGetPiggyback) {
  Runtime rt(gm_config(2, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      (void)co_await th.read<std::uint64_t>(a, 8);   // miss -> AM + piggyback
      (void)co_await th.read<std::uint64_t>(a, 9);   // hit -> RDMA
      (void)co_await th.read<std::uint64_t>(a, 10);  // hit -> RDMA
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().am_gets, 1u);
  EXPECT_EQ(rt.counters().rdma_gets, 2u);
  EXPECT_EQ(rt.cache(0).stats().hits, 2u);
  EXPECT_EQ(rt.cache(0).stats().misses, 1u);
  // The target node pinned the whole piece (greedy, Sec. 3.1).
  EXPECT_GT(rt.pinned(1).pinned_bytes(), 0u);
}

TEST(Runtime, CacheDisabledAlwaysUsesAmPath) {
  Runtime rt(gm_config(2, 1, /*cache=*/false));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      for (int i = 0; i < 5; ++i) {
        (void)co_await th.read<std::uint64_t>(a, 8 + i);
      }
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().am_gets, 5u);
  EXPECT_EQ(rt.counters().rdma_gets, 0u);
  EXPECT_EQ(rt.pinned(1).pinned_bytes(), 0u);  // no want_base, no pinning
}

TEST(Runtime, PutAckPopulatesCacheOnGm) {
  Runtime rt(gm_config(2, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      co_await th.write<std::uint64_t>(a, 8, 1);
      co_await th.fence();  // wait for the ACK that carries the base
      co_await th.write<std::uint64_t>(a, 9, 2);
      co_await th.fence();
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().am_puts, 1u);
  EXPECT_EQ(rt.counters().rdma_puts, 1u);
}

TEST(Runtime, LapiPutCacheDisabledByDefault) {
  // Sec. 4.3: the authors disabled the address cache for PUT on LAPI.
  Runtime rt(lapi_config(2, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      for (int i = 0; i < 4; ++i) {
        co_await th.write<std::uint64_t>(a, 8 + i, i);
        co_await th.fence();
      }
      // GETs still use the cache on LAPI.
      (void)co_await th.read<std::uint64_t>(a, 8);
      (void)co_await th.read<std::uint64_t>(a, 9);
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().rdma_puts, 0u);
  EXPECT_EQ(rt.counters().am_puts, 4u);
  EXPECT_GT(rt.counters().rdma_gets, 0u);
}

TEST(Runtime, PutCacheOverrideEnablesLapiRdmaPut) {
  auto cfg = lapi_config(2, 1);
  cfg.cache.put_enabled = true;
  Runtime rt(std::move(cfg));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      co_await th.write<std::uint64_t>(a, 8, 1);
      co_await th.fence();
      co_await th.write<std::uint64_t>(a, 9, 2);
      co_await th.fence();
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().rdma_puts, 1u);
}

TEST(Runtime, MemgetSpansOwnershipBoundaries) {
  Runtime rt(gm_config(2, 2));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(40, 4, 3);  // block 3, wraps threads
    co_await th.barrier();
    if (th.id() == 0) {
      for (std::uint64_t i = 0; i < 40; ++i) {
        co_await th.write<std::uint32_t>(a, i, 100 + i);
      }
      co_await th.fence();
      std::vector<std::uint32_t> out(17);
      co_await th.memget(
          a, 5, std::as_writable_bytes(std::span(out.data(), out.size())));
      for (std::uint64_t k = 0; k < out.size(); ++k) {
        EXPECT_EQ(out[k], 105 + k);
      }
    }
    co_await th.barrier();
  });
}

TEST(Runtime, MemputSpansOwnershipBoundaries) {
  Runtime rt(gm_config(2, 2));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(40, 4, 3);
    co_await th.barrier();
    if (th.id() == 3) {
      std::vector<std::uint32_t> in(23);
      for (std::uint64_t k = 0; k < in.size(); ++k) {
        in[k] = 7000 + k;
      }
      co_await th.memput(a, 10,
                         std::as_bytes(std::span(in.data(), in.size())));
      co_await th.fence();
      for (std::uint64_t k = 0; k < in.size(); ++k) {
        EXPECT_EQ(co_await th.read<std::uint32_t>(a, 10 + k), 7000 + k);
      }
    }
    co_await th.barrier();
  });
}

TEST(Runtime, SpanCrossingBoundaryIsRejected) {
  Runtime rt(gm_config(2, 1));
  EXPECT_THROW(
      rt.run([&](UpcThread& th) -> Task<void> {
        auto a = co_await th.all_alloc(16, 8, 4);
        std::vector<std::byte> buf(8 * 8);  // 8 elements > block of 4
        co_await th.get(a, 0, buf);
      }),
      std::invalid_argument);
}

TEST(Runtime, LargeTransfersUseRendezvousAndStayCorrect) {
  Runtime rt(gm_config(2, 1));
  constexpr std::size_t kBig = 200 * 1024;  // above the 16 KB eager limit
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(2 * kBig, 1, kBig);
    co_await th.barrier();
    if (th.id() == 0) {
      std::vector<std::byte> out(kBig);
      std::vector<std::byte> pattern(kBig);
      for (std::size_t i = 0; i < kBig; ++i) {
        pattern[i] = static_cast<std::byte>(i * 31 + 7);
      }
      co_await th.put(a, kBig, pattern);
      co_await th.fence();
      co_await th.get(a, kBig, out);
      EXPECT_EQ(std::memcmp(out.data(), pattern.data(), kBig), 0);
    }
    co_await th.barrier();
  });
  EXPECT_GE(rt.transport().stats().rendezvous_puts, 1u);
}

TEST(Runtime, FreeInvalidatesCachesEverywhere) {
  Runtime rt(gm_config(3, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(30, 8, 10);
    co_await th.barrier();
    // Everyone reads a remote slot -> caches populated.
    (void)co_await th.read<std::uint64_t>(
        a, ((th.id() + 1) % 3) * 10);
    co_await th.barrier();
    if (th.id() == 0) {
      EXPECT_EQ(rt.cache(th.node()).size(), 1u);
      co_await th.free_array(a);  // eager invalidation (Sec. 3.1)
    }
    co_await th.barrier();
  });
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(rt.cache(n).size(), 0u) << "node " << n;
    EXPECT_EQ(rt.pinned(n).pinned_bytes(), 0u) << "node " << n;
    EXPECT_EQ(rt.memory(n).live_allocations(), 0u) << "node " << n;
  }
}

TEST(Runtime, GlobalAllocMaterializesPiecesEverywhere) {
  Runtime rt(gm_config(3, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    if (th.id() == 1) {
      auto a = co_await th.global_alloc(30, 8, 10);
      EXPECT_EQ(a.handle.partition, 1u);  // caller's partition
      // All remote pieces exist: write/read each piece.
      for (std::uint64_t i = 0; i < 30; i += 10) {
        co_await th.write<std::uint64_t>(a, i, 400 + i);
        EXPECT_EQ(co_await th.read<std::uint64_t>(a, i), 400 + i);
      }
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.memory(0).live_allocations(), 1u);
  EXPECT_EQ(rt.memory(2).live_allocations(), 1u);
}

TEST(Runtime, NakTriggersFallbackAndReinsertion) {
  Runtime rt(gm_config(2, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      (void)co_await th.read<std::uint64_t>(a, 8);  // populate cache + pin
      // Failure injection: the target silently unpins its piece (in the
      // real system this cannot happen under greedy pinning; the runtime
      // must recover via the NAK path).
      const auto* cb = rt.directory(1).find(a.handle);
      rt.pinned(1).unpin(cb->local_base, cb->local_bytes);
      const auto v = co_await th.read<std::uint64_t>(a, 8);  // NAK -> AM
      EXPECT_EQ(v, 0u);
      EXPECT_EQ(rt.counters().rdma_naks, 1u);
      // The fallback re-pinned and re-populated: next access is RDMA.
      (void)co_await th.read<std::uint64_t>(a, 8);
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().rdma_gets, 1u);  // the post-recovery access
  EXPECT_EQ(rt.counters().am_gets, 2u);    // initial miss + NAK fallback
}

TEST(Runtime, FenceWaitsForRemoteCompletion) {
  Runtime rt(gm_config(2, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      const sim::Time before = th.now();
      co_await th.write<std::uint64_t>(a, 8, 7);  // local completion only
      const sim::Time local = th.now();
      co_await th.fence();
      const sim::Time remote = th.now();
      EXPECT_GT(remote - before, local - before);
    }
    co_await th.barrier();
  });
}

TEST(Runtime, BarrierSynchronizesAllThreads) {
  Runtime rt(gm_config(2, 4));
  std::vector<sim::Time> release(8);
  rt.run([&](UpcThread& th) -> Task<void> {
    co_await th.compute(sim::us(static_cast<double>(th.id()) * 10));
    co_await th.barrier();
    release[th.id()] = th.now();
  });
  for (std::uint32_t t = 1; t < 8; ++t) {
    EXPECT_EQ(release[t], release[0]);
  }
}

TEST(Runtime, DeadlockIsDetected) {
  Runtime rt(gm_config(2, 1));
  EXPECT_THROW(rt.run([&](UpcThread& th) -> Task<void> {
                 if (th.id() == 0) co_await th.barrier();  // thread 1 skips
               }),
               std::runtime_error);
}

TEST(Runtime, LocksProvideMutualExclusionAcrossNodes) {
  Runtime rt(gm_config(2, 2));
  int in_critical = 0;
  int max_in_critical = 0;
  std::vector<ThreadId> order;
  rt.run([&](UpcThread& th) -> Task<void> {
    static LockDesc lock;
    if (th.id() == 0) lock = co_await th.lock_alloc();
    co_await th.barrier();
    for (int round = 0; round < 3; ++round) {
      co_await th.lock(lock);
      max_in_critical = std::max(max_in_critical, ++in_critical);
      order.push_back(th.id());
      co_await th.compute(sim::us(5));
      --in_critical;
      co_await th.unlock(lock);
    }
    co_await th.barrier();
  });
  EXPECT_EQ(max_in_critical, 1);
  EXPECT_EQ(order.size(), 12u);
}

TEST(Runtime, UnlockByNonHolderThrows) {
  Runtime rt(gm_config(1, 2));
  EXPECT_THROW(rt.run([&](UpcThread& th) -> Task<void> {
                 static LockDesc lock;
                 if (th.id() == 0) lock = co_await th.lock_alloc();
                 co_await th.barrier();
                 if (th.id() == 0) co_await th.lock(lock);
                 co_await th.barrier();
                 if (th.id() == 1) co_await th.unlock(lock);
                 co_await th.barrier();
               }),
               std::logic_error);
}

TEST(Runtime, TwoDArraysRoundTrip) {
  Runtime rt(gm_config(2, 2));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto grid = co_await SharedArray2D<double>::all_alloc(th, 8, 8, 4, 4);
    co_await th.barrier();
    if (th.id() == 0) {
      for (std::uint64_t r = 0; r < 8; ++r) {
        for (std::uint64_t c = 0; c < 8; ++c) {
          co_await grid.write(th, r, c, r * 10.0 + c);
        }
      }
      for (std::uint64_t r = 0; r < 8; ++r) {
        for (std::uint64_t c = 0; c < 8; ++c) {
          EXPECT_DOUBLE_EQ(co_await grid.read(th, r, c), r * 10.0 + c);
        }
      }
    }
    co_await th.barrier();
  });
}

TEST(Runtime, ChunkedPinningWorksEndToEnd) {
  auto cfg = gm_config(2, 1);
  cfg.pin_strategy = mem::PinStrategy::kChunked;
  Runtime rt(std::move(cfg));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(1 << 16, 8, 1 << 15);
    co_await th.barrier();
    if (th.id() == 0) {
      for (int i = 0; i < 8; ++i) {
        co_await th.write<std::uint64_t>(a, (1 << 15) + i * 100, i);
      }
      co_await th.fence();
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(co_await th.read<std::uint64_t>(a, (1 << 15) + i * 100),
                  static_cast<std::uint64_t>(i));
      }
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().rdma_naks, 0u);
  EXPECT_GT(rt.counters().rdma_gets, 0u);
}

TEST(Runtime, WarmCacheMakesFirstAccessRdma) {
  Runtime rt(gm_config(2, 1));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(16, 8, 8);
    co_await th.barrier();
    if (th.id() == 0) {
      rt.warm_address_cache(a);
      (void)co_await th.read<std::uint64_t>(a, 8);
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().am_gets, 0u);
  EXPECT_EQ(rt.counters().rdma_gets, 1u);
}

// The all-pairs loop warm_address_cache ran before it became linear:
// every initiator inserts every target's keys, target by target, chunk
// by chunk, into its bounded cache.
void warm_all_pairs(Runtime& rt, const ArrayDesc& a) {
  if (!rt.config().cache.enabled) return;
  for (NodeId target = 0; target < rt.nodes(); ++target) {
    const svd::ControlBlock* cb = rt.directory(target).find(a.handle);
    if (cb == nullptr || cb->local_base == kNullAddr || cb->local_bytes == 0) {
      continue;
    }
    const mem::PinResult pr =
        rt.pinned(target).pin(cb->local_base, cb->local_bytes);
    if (!pr.ok) continue;
    const std::uint32_t chunks =
        rt.config().pin_strategy == mem::PinStrategy::kChunked
            ? static_cast<std::uint32_t>(
                  (cb->local_bytes + mem::kPinChunkBytes - 1) /
                  mem::kPinChunkBytes)
            : 1;
    for (NodeId init = 0; init < rt.nodes(); ++init) {
      if (init == target) continue;
      for (std::uint32_t c = 0; c < chunks; ++c) {
        rt.cache(init).insert(CacheKey{a.handle.pack(), target, c},
                              net::BaseInfo{cb->local_base, pr.key});
      }
    }
  }
  for (NodeId n = 0; n < rt.nodes(); ++n) rt.cache(n).reset_stats();
}

using CacheRow =
    std::tuple<std::uint64_t, NodeId, std::uint32_t, Addr, RdmaKey>;

// Every node's cache, MRU to LRU, with each entry's base and key. The
// lookups run LRU first, which leaves the MRU order as it was.
std::vector<std::vector<CacheRow>> cache_snapshot(Runtime& rt) {
  std::vector<std::vector<CacheRow>> out;
  for (NodeId n = 0; n < rt.nodes(); ++n) {
    const std::vector<CacheKey> keys = rt.cache(n).keys();
    std::vector<CacheRow> rows(keys.size());
    for (std::size_t i = keys.size(); i-- > 0;) {
      const auto info = rt.cache(n).lookup(keys[i]);
      rows[i] = CacheRow{keys[i].handle, keys[i].node, keys[i].chunk,
                         info->base, info->key};
    }
    EXPECT_EQ(rt.cache(n).keys(), keys);
    rt.cache(n).reset_stats();
    out.push_back(std::move(rows));
  }
  return out;
}

// Caches already populated by remote reads, then two arrays warmed in a
// row; under chunked pinning the second array's node pieces span three
// pin chunks each.
std::vector<std::vector<CacheRow>> warm_scenario(std::uint32_t nodes,
                                                 std::size_t max_entries,
                                                 mem::PinStrategy pin,
                                                 bool linear) {
  RuntimeConfig cfg = gm_config(nodes, 2);
  cfg.cache.max_entries = max_entries;
  cfg.pin_strategy = pin;
  Runtime rt(cfg);
  std::vector<std::vector<CacheRow>> snap;
  rt.run([&](UpcThread& th) -> Task<void> {
    const std::uint32_t threads = rt.threads();
    auto a = co_await th.all_alloc(64 * threads, 8, 64);
    const std::uint64_t per_thread =
        pin == mem::PinStrategy::kChunked ? (5 * mem::kPinChunkBytes) / 16 : 64;
    auto b = co_await th.all_alloc(per_thread * threads, 8, per_thread);
    co_await th.barrier();
    for (std::uint32_t i = 0; i < 3; ++i) {
      const std::uint32_t owner = (th.id() + 2 * (i + 1)) % threads;
      (void)co_await th.read<std::uint64_t>(a, 64 * owner + i);
    }
    co_await th.barrier();
    if (th.id() == 0) {
      for (const ArrayDesc* d : {&b, &a}) {
        if (linear) {
          rt.warm_address_cache(*d);
        } else {
          warm_all_pairs(rt, *d);
        }
      }
      snap = cache_snapshot(rt);
    }
    co_await th.barrier();
  });
  return snap;
}

TEST(Runtime, LinearWarmUpMatchesAllPairsLoop) {
  for (const std::uint32_t nodes : {1u, 3u, 7u}) {
    for (const std::size_t max_entries : {0u, 1u, 4u, 100u}) {
      for (const mem::PinStrategy pin :
           {mem::PinStrategy::kGreedy, mem::PinStrategy::kChunked}) {
        const auto want = warm_scenario(nodes, max_entries, pin, false);
        const auto got = warm_scenario(nodes, max_entries, pin, true);
        const std::string where =
            "nodes " + std::to_string(nodes) + " max_entries " +
            std::to_string(max_entries) +
            (pin == mem::PinStrategy::kChunked ? " chunked" : " greedy");
        ASSERT_EQ(want.size(), nodes) << where;
        EXPECT_EQ(got, want) << where;
        for (const auto& rows : want) {
          if (nodes > 1) {
            EXPECT_FALSE(rows.empty()) << where;
          }
          if (max_entries != 0) {
            EXPECT_LE(rows.size(), max_entries) << where;
          }
        }
      }
    }
  }
}

TEST(Runtime, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Runtime rt(gm_config(2, 4));
    rt.run([&](UpcThread& th) -> Task<void> {
      auto a = co_await th.all_alloc(256, 8);
      co_await th.barrier();
      for (int i = 0; i < 20; ++i) {
        const auto idx = th.rng().below(256);
        co_await th.write<std::uint64_t>(a, idx, th.id());
        (void)co_await th.read<std::uint64_t>(a, th.rng().below(256));
      }
      co_await th.barrier();
    });
    return std::pair(rt.elapsed(), rt.simulator().events_executed());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Runtime, IntrinsicsMatchLayout) {
  Runtime rt(gm_config(2, 2));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(24, 4, 3);
    EXPECT_EQ(th.threadof(a, 0), 0u);
    EXPECT_EQ(th.threadof(a, 3), 1u);
    EXPECT_EQ(th.threadof(a, 12), 0u);
    EXPECT_EQ(th.phaseof(a, 4), 1u);
    EXPECT_EQ(th.nodeof(a, 6), 1u);  // thread 2 -> node 1
    co_await th.barrier();
  });
}

TEST(Runtime, SingleNodeHasNoNetworkTraffic) {
  Runtime rt(gm_config(1, 4));
  rt.run([&](UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(64, 8);
    co_await th.barrier();
    for (std::uint64_t i = 0; i < 64; ++i) {
      co_await th.write<std::uint64_t>(a, i, i);
    }
    co_await th.barrier();
  });
  EXPECT_EQ(rt.counters().am_puts + rt.counters().rdma_puts, 0u);
  EXPECT_EQ(rt.transport().stats().wire_bytes, 0u);
}

}  // namespace
}  // namespace xlupc::core
