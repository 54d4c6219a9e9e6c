// Tests for the remote address cache — the paper's core data structure.
#include <gtest/gtest.h>

#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/address_cache.h"
#include "sim/rng.h"

namespace xlupc::core {
namespace {

net::BaseInfo info(Addr base) { return net::BaseInfo{base, base ^ 0xabc}; }

TEST(AddressCache, MissThenInsertThenHit) {
  AddressCache cache(100);
  const CacheKey key{42, 3, 0};
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, info(0x1000));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->base, 0x1000u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST(AddressCache, KeysDistinguishHandleNodeAndChunk) {
  AddressCache cache(100);
  cache.insert(CacheKey{1, 1, 0}, info(0x10));
  cache.insert(CacheKey{1, 2, 0}, info(0x20));
  cache.insert(CacheKey{2, 1, 0}, info(0x30));
  cache.insert(CacheKey{1, 1, 1}, info(0x40));
  EXPECT_EQ(cache.lookup(CacheKey{1, 1, 0})->base, 0x10u);
  EXPECT_EQ(cache.lookup(CacheKey{1, 2, 0})->base, 0x20u);
  EXPECT_EQ(cache.lookup(CacheKey{2, 1, 0})->base, 0x30u);
  EXPECT_EQ(cache.lookup(CacheKey{1, 1, 1})->base, 0x40u);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(AddressCache, GrowsOnDemandUpToLimitThenEvictsLru) {
  // Sec. 4.5: dynamic hash table growing on demand to a fixed limit.
  AddressCache cache(3);
  for (std::uint64_t h = 0; h < 3; ++h) {
    cache.insert(CacheKey{h, 0, 0}, info(h));
  }
  EXPECT_EQ(cache.size(), 3u);
  // Touch key 0 so key 1 is the LRU victim.
  cache.lookup(CacheKey{0, 0, 0});
  cache.insert(CacheKey{9, 0, 0}, info(9));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.lookup(CacheKey{0, 0, 0}).has_value());
  EXPECT_FALSE(cache.lookup(CacheKey{1, 0, 0}).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(CacheKey{9, 0, 0}).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(AddressCache, ReinsertRefreshesValueWithoutGrowth) {
  AddressCache cache(2);
  cache.insert(CacheKey{1, 0, 0}, info(0x10));
  cache.insert(CacheKey{1, 0, 0}, info(0x99));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(CacheKey{1, 0, 0})->base, 0x99u);
}

TEST(AddressCache, InvalidateHandleDropsAllNodes) {
  // Eager invalidation when a shared object is deallocated (Sec. 3.1).
  AddressCache cache(100);
  for (NodeId nd = 0; nd < 5; ++nd) {
    cache.insert(CacheKey{7, nd, 0}, info(nd));
    cache.insert(CacheKey{8, nd, 0}, info(nd));
  }
  cache.invalidate_handle(7);
  for (NodeId nd = 0; nd < 5; ++nd) {
    EXPECT_FALSE(cache.lookup(CacheKey{7, nd, 0}).has_value());
    EXPECT_TRUE(cache.lookup(CacheKey{8, nd, 0}).has_value());
  }
  EXPECT_EQ(cache.stats().invalidations, 5u);
}

TEST(AddressCache, InvalidateSingleEntry) {
  AddressCache cache(100);
  cache.insert(CacheKey{1, 0, 0}, info(1));
  cache.insert(CacheKey{1, 1, 0}, info(2));
  cache.invalidate(CacheKey{1, 0, 0});
  EXPECT_FALSE(cache.lookup(CacheKey{1, 0, 0}).has_value());
  EXPECT_TRUE(cache.lookup(CacheKey{1, 1, 0}).has_value());
  EXPECT_NO_THROW(cache.invalidate(CacheKey{1, 0, 0}));  // idempotent
}

TEST(AddressCache, UnlimitedWhenMaxEntriesIsZero) {
  AddressCache cache(0);
  for (std::uint64_t h = 0; h < 1000; ++h) {
    cache.insert(CacheKey{h, 0, 0}, info(h));
  }
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(AddressCache, ResetStatsKeepsEntries) {
  AddressCache cache(10);
  cache.insert(CacheKey{1, 0, 0}, info(1));
  cache.lookup(CacheKey{1, 0, 0});
  cache.reset_stats();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

// Differential check of the flat table against the textbook LRU it
// replaced: a std::list in recency order plus a std::unordered_map from
// key to list position.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t max_entries) : max_(max_entries) {}

  std::optional<net::BaseInfo> lookup(const CacheKey& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats.misses;
      return std::nullopt;
    }
    ++stats.hits;
    lru_.splice(lru_.begin(), lru_, it->second.second);
    return it->second.first;
  }
  /// Returns the evicted key, if any.
  std::optional<CacheKey> insert(const CacheKey& key, net::BaseInfo info) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.first = info;
      lru_.splice(lru_.begin(), lru_, it->second.second);
      return std::nullopt;
    }
    std::optional<CacheKey> victim;
    if (max_ != 0 && map_.size() >= max_) {
      victim = lru_.back();
      lru_.pop_back();
      map_.erase(*victim);
      ++stats.evictions;
    }
    lru_.push_front(key);
    map_.emplace(key, std::pair{info, lru_.begin()});
    ++stats.insertions;
    return victim;
  }
  template <class Match>
  void invalidate_if(Match match) {
    for (auto it = map_.begin(); it != map_.end();) {
      if (match(it->first)) {
        lru_.erase(it->second.second);
        it = map_.erase(it);
        ++stats.invalidations;
      } else {
        ++it;
      }
    }
  }
  std::size_t size() const { return map_.size(); }

  AddressCacheStats stats;

 private:
  struct Hash {
    std::size_t operator()(const CacheKey& k) const {
      return std::hash<std::uint64_t>()(k.handle * 1000003 + k.node * 31 +
                                        k.chunk);
    }
  };
  std::size_t max_;
  std::list<CacheKey> lru_;
  std::unordered_map<CacheKey,
                     std::pair<net::BaseInfo, std::list<CacheKey>::iterator>,
                     Hash>
      map_;
};

void expect_same(const AddressCache& cache, const ReferenceLru& ref) {
  EXPECT_EQ(cache.size(), ref.size());
  EXPECT_EQ(cache.stats().hits, ref.stats.hits);
  EXPECT_EQ(cache.stats().misses, ref.stats.misses);
  EXPECT_EQ(cache.stats().insertions, ref.stats.insertions);
  EXPECT_EQ(cache.stats().evictions, ref.stats.evictions);
  EXPECT_EQ(cache.stats().invalidations, ref.stats.invalidations);
}

void expect_same(const std::optional<net::BaseInfo>& a,
                 const std::optional<net::BaseInfo>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a) {
    EXPECT_EQ(a->base, b->base);
    EXPECT_EQ(a->key, b->key);
  }
}

class AddressCacheDifferential
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AddressCacheDifferential, MatchesReferenceLruOnRandomSequences) {
  // 16 handles x 8 nodes x 2 chunks = 256 keys: more than every bounded
  // size, so evictions happen, and enough to grow the unbounded table.
  const std::size_t max_entries = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    AddressCache cache(max_entries);
    ReferenceLru ref(max_entries);
    sim::Rng rng(seed * 7919 + max_entries);
    auto random_key = [&rng] {
      return CacheKey{rng.below(16), static_cast<NodeId>(rng.below(8)),
                      static_cast<std::uint32_t>(rng.below(2))};
    };
    for (int op = 0; op < 6000; ++op) {
      const std::uint64_t dice = rng.below(100);
      if (dice < 45) {
        const CacheKey k = random_key();
        expect_same(cache.lookup(k), ref.lookup(k));
      } else if (dice < 85) {
        const CacheKey k = random_key();
        const net::BaseInfo v{rng.below(1u << 20), rng.below(1u << 16)};
        cache.insert(k, v);
        if (const std::optional<CacheKey> victim = ref.insert(k, v)) {
          // The flat table must have evicted the same entry (a miss
          // changes no recency, so probing keeps both in step).
          expect_same(cache.lookup(*victim), ref.lookup(*victim));
        }
      } else if (dice < 93) {
        const CacheKey k = random_key();
        cache.invalidate(k);
        ref.invalidate_if([&k](const CacheKey& x) { return x == k; });
      } else if (dice < 97) {
        const std::uint64_t h = rng.below(16);
        cache.invalidate_handle(h);
        ref.invalidate_if([h](const CacheKey& x) { return x.handle == h; });
      } else {
        const auto n = static_cast<NodeId>(rng.below(8));
        cache.invalidate_node(n);
        ref.invalidate_if([n](const CacheKey& x) { return x.node == n; });
      }
      expect_same(cache, ref);
      if (::testing::Test::HasFailure()) return;
    }
    // Same final contents: probe every key in both.
    for (std::uint64_t h = 0; h < 16; ++h) {
      for (NodeId n = 0; n < 8; ++n) {
        for (std::uint32_t c = 0; c < 2; ++c) {
          expect_same(cache.lookup(CacheKey{h, n, c}),
                      ref.lookup(CacheKey{h, n, c}));
        }
      }
    }
    expect_same(cache, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(MaxEntries, AddressCacheDifferential,
                         ::testing::Values(0, 1, 4, 100));

// The paper's key working-set property (Fig. 8a): with uniform random
// accesses over k distinct keys and an LRU cache of S entries, the
// steady-state hit rate is ~ S/k when S < k and ~1 when S >= k.
struct HitRateCase {
  std::size_t cache_size;
  std::uint64_t working_set;
};

class LruHitRateProperty : public ::testing::TestWithParam<HitRateCase> {};

TEST_P(LruHitRateProperty, UniformRandomHitRateTracksSizeRatio) {
  const auto& c = GetParam();
  AddressCache cache(c.cache_size);
  sim::Rng rng(c.cache_size * 977 + c.working_set);
  // Warm.
  for (std::uint64_t k = 0; k < c.working_set; ++k) {
    cache.insert(CacheKey{k, 0, 0}, info(k));
  }
  cache.reset_stats();
  for (int i = 0; i < 20000; ++i) {
    const CacheKey key{rng.below(c.working_set), 0, 0};
    if (!cache.lookup(key)) cache.insert(key, info(key.handle));
  }
  const double expected =
      c.cache_size >= c.working_set
          ? 1.0
          : static_cast<double>(c.cache_size) /
                static_cast<double>(c.working_set);
  EXPECT_NEAR(cache.stats().hit_rate(), expected, 0.06);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LruHitRateProperty,
    ::testing::Values(HitRateCase{4, 32}, HitRateCase{10, 32},
                      HitRateCase{100, 32}, HitRateCase{4, 512},
                      HitRateCase{10, 512}, HitRateCase{100, 512},
                      HitRateCase{100, 64}, HitRateCase{100, 100}));

}  // namespace
}  // namespace xlupc::core
