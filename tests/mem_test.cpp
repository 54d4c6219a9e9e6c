// Tests for the memory substrate: per-node address spaces, the pinned
// address table (greedy and chunked strategies) and the registration
// cache with lazy deregistration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "mem/address_space.h"
#include "mem/pinned_table.h"
#include "mem/registration_cache.h"
#include "net/machine_registry.h"

namespace xlupc::mem {
namespace {

TEST(AddressSpace, NodesHaveDisjointAddressRanges) {
  AddressSpace a(0), b(1), c(7);
  const Addr pa = a.allocate(64);
  const Addr pb = b.allocate(64);
  const Addr pc = c.allocate(64);
  EXPECT_NE(pa >> 40, pb >> 40);
  EXPECT_NE(pb >> 40, pc >> 40);
  EXPECT_EQ(pa, node_base(0));
  EXPECT_EQ(pb, node_base(1));
  EXPECT_EQ(pc, node_base(7));
}

TEST(AddressSpace, SameObjectHasDifferentAddressOnEveryNode) {
  // The property of Fig. 2 that motivates the SVD.
  AddressSpace n0(0), n1(1);
  EXPECT_NE(n0.allocate(128), n1.allocate(128));
}

TEST(AddressSpace, ReadBackWhatWasWritten) {
  AddressSpace space(3);
  const Addr p = space.allocate(256);
  std::vector<std::byte> in(256);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::byte>(i * 7);
  }
  space.write(p, in);
  std::vector<std::byte> out(256);
  space.read(p, out);
  EXPECT_EQ(std::memcmp(in.data(), out.data(), 256), 0);
}

TEST(AddressSpace, SubRangeAccessWithOffset) {
  AddressSpace space(0);
  const Addr p = space.allocate(64);
  const std::uint32_t v = 0xdeadbeef;
  space.store(p + 12, v);
  EXPECT_EQ(space.load<std::uint32_t>(p + 12), v);
}

TEST(AddressSpace, AllocationsAreZeroInitialized) {
  AddressSpace space(0);
  const Addr p = space.allocate(32);
  for (int i = 0; i < 32; i += 8) {
    EXPECT_EQ(space.load<std::uint64_t>(p + i), 0u);
  }
}

TEST(AddressSpace, OutOfBoundsAccessThrows) {
  AddressSpace space(0);
  const Addr p = space.allocate(16);
  std::vector<std::byte> buf(8);
  EXPECT_THROW(space.read(p + 12, buf), std::out_of_range);      // crosses end
  EXPECT_THROW(space.read(p - 1, buf), std::out_of_range);       // below
  EXPECT_THROW(space.write(p + 16, buf), std::out_of_range);     // past end
  EXPECT_NO_THROW(space.read(p + 8, buf));
}

TEST(AddressSpace, AccessAcrossAllocationsThrows) {
  AddressSpace space(0);
  const Addr p1 = space.allocate(16);
  space.allocate(16);
  std::vector<std::byte> buf(32);
  EXPECT_THROW(space.read(p1, buf), std::out_of_range);
}

TEST(AddressSpace, FreeRemovesAllocation) {
  AddressSpace space(0);
  const Addr p = space.allocate(16);
  EXPECT_TRUE(space.contains(p, 16));
  space.free(p);
  EXPECT_FALSE(space.contains(p, 1));
  EXPECT_THROW(space.free(p), std::invalid_argument);
  EXPECT_EQ(space.live_allocations(), 0u);
}

TEST(AddressSpace, FreeMiddleAllocationKeepsNeighbours) {
  AddressSpace space(0);
  const Addr a = space.allocate(16);
  const Addr b = space.allocate(16);
  const Addr c = space.allocate(16);
  space.free(b);
  EXPECT_TRUE(space.contains(a, 16));
  EXPECT_FALSE(space.contains(b, 1));
  EXPECT_TRUE(space.contains(c, 16));
}

TEST(AddressSpace, ZeroSizeAllocationsGetDistinctAddresses) {
  AddressSpace space(0);
  const Addr a = space.allocate(0);
  const Addr b = space.allocate(0);
  EXPECT_NE(a, b);
}

TEST(AddressSpace, OwningBlockFindsBase) {
  AddressSpace space(0);
  const Addr p = space.allocate(100);
  EXPECT_EQ(space.owning_block(p + 50), p);
  EXPECT_EQ(space.owning_block(p + 100), kNullAddr);
  EXPECT_EQ(space.allocation_size(p), 100u);
}

TEST(AddressSpace, LookupsAtBlockEdges) {
  // Bases are 16-byte aligned, so a block that does not fill its last
  // 16-byte unit leaves a gap before the next base; a zero-size block
  // reserves one unit.
  AddressSpace space(2);
  const std::vector<std::size_t> sizes = {0, 1, 15, 16, 24, 100};
  std::vector<Addr> bases;
  for (std::size_t size : sizes) bases.push_back(space.allocate(size));
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Addr base = bases[i];
    const std::size_t size = sizes[i];
    const Addr end = base + std::max<std::size_t>(size, 1);
    const Addr next = i + 1 < bases.size() ? bases[i + 1] : kNullAddr;
    EXPECT_EQ(space.owning_block(base), base) << i;
    EXPECT_EQ(space.owning_block(end - 1), base) << i;
    EXPECT_EQ(space.owning_block(end), end == next ? next : kNullAddr) << i;
    EXPECT_TRUE(space.contains(base, size)) << i;
    EXPECT_TRUE(space.contains(base + size, 0)) << i;
    EXPECT_FALSE(space.contains(base, size + 1)) << i;
    EXPECT_EQ(space.allocation_size(base), size) << i;
  }
  EXPECT_FALSE(space.contains(bases[0] - 1, 1));
  EXPECT_EQ(space.owning_block(bases[0] - 1), kNullAddr);
  EXPECT_THROW(space.allocation_size(bases[5] + 8), std::invalid_argument);
}

TEST(AddressSpace, ZeroSizeBlocks) {
  AddressSpace space(0);
  const Addr a = space.allocate(0);
  const Addr b = space.allocate(8);
  EXPECT_EQ(b, a + 16);
  EXPECT_TRUE(space.contains(a, 0));
  EXPECT_FALSE(space.contains(a, 1));
  EXPECT_EQ(space.owning_block(a), a);
  EXPECT_EQ(space.owning_block(a + 1), kNullAddr);
  EXPECT_EQ(space.allocation_size(a), 0u);
  std::vector<std::byte> none;
  EXPECT_NO_THROW(space.read(a, none));
  EXPECT_NO_THROW(space.write(a, none));
  EXPECT_EQ(space.live_allocations(), 2u);
  space.free(a);
  EXPECT_EQ(space.owning_block(a), kNullAddr);
  EXPECT_FALSE(space.contains(a, 0));
  EXPECT_TRUE(space.contains(b, 8));
  EXPECT_EQ(space.live_allocations(), 1u);
}

TEST(AddressSpace, LookupsAfterFreesInTheMiddle) {
  AddressSpace space(5);
  std::vector<Addr> bases;
  for (std::uint64_t i = 0; i < 8; ++i) {
    bases.push_back(space.allocate(32));
    space.store<std::uint64_t>(bases.back() + 8, 1000 + i);
  }
  std::vector<bool> live(8, true);
  for (std::size_t victim : {1u, 4u, 5u, 7u, 0u}) {
    space.free(bases[victim]);
    live[victim] = false;
    for (std::size_t i = 0; i < bases.size(); ++i) {
      const Addr p = bases[i];
      if (live[i]) {
        EXPECT_EQ(space.load<std::uint64_t>(p + 8), 1000 + i) << i;
        EXPECT_EQ(space.owning_block(p + 31), p) << i;
        EXPECT_TRUE(space.contains(p, 32)) << i;
      } else {
        EXPECT_EQ(space.owning_block(p + 8), kNullAddr) << i;
        EXPECT_FALSE(space.contains(p, 1)) << i;
        EXPECT_THROW(space.load<std::uint64_t>(p + 8), std::out_of_range);
        EXPECT_THROW(space.allocation_size(p), std::invalid_argument);
        EXPECT_THROW(space.free(p), std::invalid_argument);
      }
    }
  }
  EXPECT_EQ(space.live_allocations(), 3u);
  EXPECT_EQ(space.bytes_allocated(), 3u * 32);
  // New blocks still go above every block ever allocated.
  const Addr fresh = space.allocate(16);
  EXPECT_EQ(fresh, bases.back() + 32);
  EXPECT_EQ(space.owning_block(fresh + 15), fresh);
  EXPECT_EQ(space.load<std::uint64_t>(bases[6] + 8), 1006u);
}

// ---------------------------------------------------------------------
// PinnedAddressTable
// ---------------------------------------------------------------------

TEST(PinnedTableGreedy, PinWholeObjectOnce) {
  PinnedAddressTable t(PinStrategy::kGreedy, {});
  const Addr base = node_base(0);
  auto r1 = t.pin(base, 1 << 20);
  EXPECT_TRUE(r1.ok);
  EXPECT_FALSE(r1.already_pinned);
  EXPECT_EQ(r1.new_handles, 1u);
  EXPECT_EQ(r1.new_bytes, std::size_t{1} << 20);

  auto r2 = t.pin(base, 1 << 20);
  EXPECT_TRUE(r2.ok);
  EXPECT_TRUE(r2.already_pinned);
  EXPECT_EQ(r2.new_handles, 0u);
  EXPECT_EQ(t.handle_count(), 1u);
}

TEST(PinnedTableGreedy, SubRangeOfPinnedObjectIsPinned) {
  PinnedAddressTable t(PinStrategy::kGreedy, {});
  const Addr base = node_base(0);
  t.pin(base, 4096);
  EXPECT_TRUE(t.is_pinned(base + 100, 200));
  EXPECT_FALSE(t.is_pinned(base + 4000, 200));  // crosses the end
  EXPECT_TRUE(t.key_for(base + 100).has_value());
  EXPECT_FALSE(t.key_for(base + 5000).has_value());
}

TEST(PinnedTableGreedy, IgnoresLimitsAsInPaper) {
  // Sec. 3.1: the greedy strategy presented in the paper ignores
  // per-handle and total limits.
  PinLimits limits;
  limits.max_bytes_per_handle = 1024;
  limits.max_total_bytes = 2048;
  PinnedAddressTable t(PinStrategy::kGreedy, limits);
  auto r = t.pin(node_base(0), 1 << 20);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(t.pinned_bytes(), std::size_t{1} << 20);
}

TEST(PinnedTableGreedy, UnpinRemovesOverlappingRegions) {
  PinnedAddressTable t(PinStrategy::kGreedy, {});
  const Addr base = node_base(0);
  t.pin(base, 4096);
  EXPECT_EQ(t.unpin(base + 10, 10), 1u);
  EXPECT_FALSE(t.is_pinned(base, 1));
  EXPECT_EQ(t.pinned_bytes(), 0u);
  EXPECT_EQ(t.total_deregistrations(), 1u);
}

TEST(PinnedTableChunked, RespectsPerHandleLimit) {
  PinLimits limits;
  limits.max_bytes_per_handle = 64 * 1024;
  PinnedAddressTable t(PinStrategy::kChunked, limits);
  const Addr base = node_base(0);
  auto r = t.pin(base, 1 << 20);  // 1 MB over 64 KB handles -> 16 handles
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.new_handles, 16u);
  EXPECT_TRUE(t.is_pinned(base, 1 << 20));
}

TEST(PinnedTableChunked, ReuseDoesNotReRegister) {
  PinnedAddressTable t(PinStrategy::kChunked, {});
  const Addr base = node_base(0);
  t.pin(base, 4096);
  auto r = t.pin(base + 100, 64);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.already_pinned);
  EXPECT_EQ(r.new_handles, 0u);
}

TEST(PinnedTableChunked, EnforcesTotalBudgetWithLruRecycling) {
  PinLimits limits;
  limits.max_total_bytes = 3 * kPinChunkBytes;
  PinnedAddressTable t(PinStrategy::kChunked, limits);
  const Addr base = node_base(0);
  EXPECT_TRUE(t.pin(base + 0 * kPinChunkBytes, 1).ok);
  EXPECT_TRUE(t.pin(base + 1 * kPinChunkBytes, 1).ok);
  EXPECT_TRUE(t.pin(base + 2 * kPinChunkBytes, 1).ok);
  EXPECT_EQ(t.pinned_bytes(), 3 * kPinChunkBytes);
  // Touch chunk 0 so chunk 1 becomes the LRU victim.
  t.pin(base, 1);
  auto r = t.pin(base + 3 * kPinChunkBytes, 1);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.evicted_handles, 1u);
  EXPECT_TRUE(t.is_pinned(base, 1));                       // kept (recent)
  EXPECT_FALSE(t.is_pinned(base + kPinChunkBytes, 1));     // evicted
  EXPECT_TRUE(t.is_pinned(base + 3 * kPinChunkBytes, 1));  // new
}

TEST(PinnedTableChunked, ImpossibleRequestFails) {
  PinLimits limits;
  limits.max_total_bytes = kPinChunkBytes / 2;
  PinnedAddressTable t(PinStrategy::kChunked, limits);
  auto r = t.pin(node_base(0), 1);
  EXPECT_FALSE(r.ok);
}

class PinStrategyProperty : public ::testing::TestWithParam<PinStrategy> {};

TEST_P(PinStrategyProperty, PinThenQueryIsConsistent) {
  PinnedAddressTable t(GetParam(), {});
  const Addr base = node_base(2);
  for (std::size_t len : {1ul, 100ul, 4096ul, 1ul << 20, 3ul << 20}) {
    auto r = t.pin(base, len);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(t.is_pinned(base, len));
    EXPECT_TRUE(t.key_for(base).has_value());
  }
  EXPECT_GE(t.total_pin_calls(), 5u);
}

INSTANTIATE_TEST_SUITE_P(BothStrategies, PinStrategyProperty,
                         ::testing::Values(PinStrategy::kGreedy,
                                           PinStrategy::kChunked));

// ---------------------------------------------------------------------
// RegistrationCache
// ---------------------------------------------------------------------

TEST(RegistrationCache, MissThenHit) {
  RegistrationCache rc(0);
  auto miss = rc.ensure(node_base(0), 4096);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.registered, 4096u);
  auto hit = rc.ensure(node_base(0), 4096);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.registered, 0u);
  EXPECT_EQ(rc.hits(), 1u);
  EXPECT_EQ(rc.misses(), 1u);
}

TEST(RegistrationCache, SubRangeIsAHit) {
  RegistrationCache rc(0);
  rc.ensure(node_base(0), 4096);
  EXPECT_TRUE(rc.ensure(node_base(0) + 100, 200).hit);
}

TEST(RegistrationCache, LazyDeregistrationEvictsLru) {
  RegistrationCache rc(10 * 1024);
  rc.ensure(node_base(0), 4 * 1024);
  rc.ensure(node_base(0) + (1 << 20), 4 * 1024);
  // Refresh the first region so the second is LRU.
  rc.ensure(node_base(0), 4 * 1024);
  auto r = rc.ensure(node_base(0) + (2 << 20), 4 * 1024);
  EXPECT_EQ(r.deregistered, 4 * 1024u);
  EXPECT_EQ(r.evicted_regions, 1u);
  EXPECT_TRUE(rc.ensure(node_base(0), 4 * 1024).hit);          // survived
  EXPECT_FALSE(rc.ensure(node_base(0) + (1 << 20), 1).hit);    // evicted
  EXPECT_EQ(rc.evictions(), 1u);
}

TEST(RegistrationCache, InvalidateDropsOverlaps) {
  RegistrationCache rc(0);
  rc.ensure(node_base(0), 4096);
  rc.invalidate(node_base(0) + 100, 1);
  EXPECT_FALSE(rc.ensure(node_base(0), 1).hit);
  EXPECT_EQ(rc.region_count(), 1u);  // re-registered by the ensure above
}

TEST(RegistrationCache, OverlappingReRegistrationStaysConsistent) {
  RegistrationCache rc(0);
  rc.ensure(node_base(0), 1024);
  // A wider range overlapping the old one replaces it.
  auto r = rc.ensure(node_base(0) + 512, 2048);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(rc.region_count(), 1u);
  EXPECT_EQ(rc.resident_bytes(), 2048u);
}

TEST(RegistrationCache, RegionLargerThanBudgetBounces) {
  // Regression: a region wider than the whole DMAable budget used to be
  // registered anyway, silently overshooting the OS cap. It must bounce
  // instead (caller stages through bounce buffers) without registering.
  RegistrationCache rc(8 * 1024);
  auto r = rc.ensure(node_base(0), 16 * 1024);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.bounced);
  EXPECT_EQ(r.registered, 0u);
  EXPECT_EQ(rc.resident_bytes(), 0u);
  EXPECT_EQ(rc.region_count(), 0u);
  EXPECT_EQ(rc.bounces(), 1u);
  // Bounced transfers never enter the cache: a repeat bounces again.
  EXPECT_TRUE(rc.ensure(node_base(0), 16 * 1024).bounced);
  EXPECT_EQ(rc.bounces(), 2u);
  // A fitting region still registers normally afterwards.
  EXPECT_FALSE(rc.ensure(node_base(0), 4 * 1024).bounced);
  EXPECT_EQ(rc.resident_bytes(), 4 * 1024u);
  rc.reset_counters();
  EXPECT_EQ(rc.bounces(), 0u);
  EXPECT_EQ(rc.resident_bytes(), 4 * 1024u);  // residency survives reset
}

// ---------------------------------------------------------------------
// RegistrationCache under the IB pin budget
//
// The InfiniBand preset's DMAable budget is a quarter of GM's (HCA
// translation tables are the scarce resource — docs/MACHINES.md), so on
// that machine the lazy-deregistration cache runs under real pressure:
// these tests pin the behaviours the verbs rendezvous path depends on.
// ---------------------------------------------------------------------

TEST(RegistrationCache, IbBudgetIsTighterThanGm) {
  const auto ib = net::make_machine("ib");
  const auto gm = net::make_machine("gm");
  ASSERT_GT(ib.max_dmaable_bytes, 0u);
  ASSERT_GT(gm.max_dmaable_bytes, 0u);
  EXPECT_LE(ib.max_dmaable_bytes, gm.max_dmaable_bytes / 4);
}

TEST(RegistrationCache, TightBudgetEvictsInStrictLruOrder) {
  // Four half-budget regions through a budget that holds two: each new
  // registration must displace exactly the least-recently-used region,
  // never a refreshed one.
  const std::size_t half = 64 * 1024;
  RegistrationCache rc(2 * half);
  const Addr a = node_base(0);
  const Addr b = a + (1 << 20);
  const Addr c = a + (2 << 20);
  const Addr d = a + (3 << 20);
  rc.ensure(a, half);
  rc.ensure(b, half);
  rc.ensure(a, half);  // refresh: b becomes LRU
  auto r1 = rc.ensure(c, half);
  EXPECT_EQ(r1.evicted_regions, 1u);
  EXPECT_TRUE(rc.ensure(a, 1).hit);    // refreshed region survived
  EXPECT_FALSE(rc.ensure(b, 1).hit);   // LRU went first (re-registers b,
                                       // evicting c — a was just touched)
  auto r2 = rc.ensure(d, half);
  EXPECT_EQ(r2.evicted_regions, 1u);  // a was LRU after b's re-registration
  EXPECT_FALSE(rc.ensure(c, 1).hit);
  EXPECT_LE(rc.resident_bytes(), 2 * half);  // never over budget
  EXPECT_EQ(rc.evictions(), 3u);
}

TEST(RegistrationCache, OversizedTransferBouncesUnderIbBudgetWithoutEvicting) {
  // A transfer wider than the whole budget must degrade to bounce-buffer
  // staging (the rendezvous path's fallback) and — critically — must not
  // flush the resident working set on its way out.
  const std::size_t budget = 128 * 1024;
  RegistrationCache rc(budget);
  rc.ensure(node_base(0), 64 * 1024);
  const std::size_t resident_before = rc.resident_bytes();
  auto r = rc.ensure(node_base(0) + (8 << 20), budget + 1);
  EXPECT_TRUE(r.bounced);
  EXPECT_EQ(r.registered, 0u);
  EXPECT_EQ(r.evicted_regions, 0u);
  EXPECT_EQ(rc.resident_bytes(), resident_before);  // working set intact
  EXPECT_TRUE(rc.ensure(node_base(0), 1).hit);
  EXPECT_EQ(rc.bounces(), 1u);
}

TEST(RegistrationCache, CapEvictionCountersAccumulateAndReset) {
  // Thrashing a tight budget: every round trips one cap eviction, the
  // counters accumulate monotonically, and reset_counters() zeroes them
  // without touching residency (extends the PR 2 overshoot regression to
  // the cache that the IB transport actually drives).
  const std::size_t region = 32 * 1024;
  RegistrationCache rc(region);  // budget fits exactly one region
  std::size_t dereg_total = 0;
  for (int i = 0; i < 5; ++i) {
    auto r = rc.ensure(node_base(0) + static_cast<Addr>(i) * (1 << 20),
                       region);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.bounced);
    if (i > 0) {
      EXPECT_EQ(r.evicted_regions, 1u);
      EXPECT_EQ(r.deregistered, region);
    }
    dereg_total += r.deregistered;
  }
  EXPECT_EQ(rc.evictions(), 4u);
  EXPECT_EQ(rc.misses(), 5u);
  EXPECT_EQ(dereg_total, 4 * region);
  EXPECT_EQ(rc.resident_bytes(), region);
  rc.reset_counters();
  EXPECT_EQ(rc.evictions(), 0u);
  EXPECT_EQ(rc.misses(), 0u);
  EXPECT_EQ(rc.resident_bytes(), region);  // residency survives the reset
}

TEST(PinnedTableChunked, CapEvictionCounterTracksAndResets) {
  // Evictions forced by the total-budget cap are counted separately
  // (reliability.forced_evictions) and zeroed by reset_counters().
  PinLimits limits;
  limits.max_total_bytes = 2 * kPinChunkBytes;
  PinnedAddressTable t(PinStrategy::kChunked, limits);
  const Addr base = node_base(0);
  t.pin(base + 0 * kPinChunkBytes, 1);
  t.pin(base + 1 * kPinChunkBytes, 1);
  EXPECT_EQ(t.total_cap_evictions(), 0u);
  t.pin(base + 2 * kPinChunkBytes, 1);  // budget full -> evict LRU
  EXPECT_EQ(t.total_cap_evictions(), 1u);
  EXPECT_EQ(t.total_deregistrations(), 1u);
  t.reset_counters();
  EXPECT_EQ(t.total_cap_evictions(), 0u);
  EXPECT_EQ(t.total_deregistrations(), 0u);
}

}  // namespace
}  // namespace xlupc::mem
