// Tests for the Shared Variable Directory: handles, partitioning, the
// single-writer rule, home-only translation and replica consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "svd/directory.h"
#include "svd/handle.h"

namespace xlupc::svd {
namespace {

TEST(Handle, PackUnpackRoundTrips) {
  for (std::uint32_t part : {0u, 1u, 17u, kAllPartition}) {
    for (std::uint32_t idx : {0u, 5u, 0xffffffffu}) {
      const Handle h{part, idx};
      EXPECT_EQ(Handle::unpack(h.pack()), h);
    }
  }
}

TEST(Handle, AllPartitionIsRecognized) {
  EXPECT_TRUE((Handle{kAllPartition, 0}).is_all());
  EXPECT_FALSE((Handle{0, 0}).is_all());
}

TEST(Directory, HasNPlusOnePartitions) {
  Directory dir(4);
  // Partitions 0..3 are writable by their threads; ALL by anyone.
  for (ThreadId t = 0; t < 4; ++t) {
    EXPECT_NO_THROW(dir.add_local(t, t, ControlBlock{}));
  }
  EXPECT_NO_THROW(dir.add_local(kAllPartition, 2, ControlBlock{}));
  EXPECT_EQ(dir.size(), 5u);
  EXPECT_THROW(dir.add_local(4, 4, ControlBlock{}), std::out_of_range);
}

TEST(Directory, SingleWriterRuleIsEnforced) {
  Directory dir(4);
  // Thread 1 may not append to thread 0's partition (Sec. 2.1: each
  // thread updates its own partition; no locks needed).
  EXPECT_THROW(dir.add_local(0, 1, ControlBlock{}), std::logic_error);
  // But any thread may append to ALL (collectives are synchronized).
  EXPECT_NO_THROW(dir.add_local(kAllPartition, 1, ControlBlock{}));
}

TEST(Directory, HandlesAreSequentialPerPartition) {
  Directory dir(2);
  const Handle a = dir.add_local(0, 0, ControlBlock{});
  const Handle b = dir.add_local(0, 0, ControlBlock{});
  const Handle c = dir.add_local(1, 1, ControlBlock{});
  EXPECT_EQ(a.index + 1, b.index);
  EXPECT_EQ(c.index, 0u);
  EXPECT_EQ(a.partition, 0u);
  EXPECT_EQ(c.partition, 1u);
}

TEST(Directory, TranslateOnHomeNode) {
  Directory dir(2);
  ControlBlock cb;
  cb.local_base = 0x1000;
  cb.local_bytes = 256;
  const Handle h = dir.add_local(0, 0, cb);
  EXPECT_EQ(dir.translate(h, 0), 0x1000u);
  EXPECT_EQ(dir.translate(h, 255), 0x10ffu);
  EXPECT_THROW(dir.translate(h, 256), std::out_of_range);
}

TEST(Directory, TranslateOffHomeThrows) {
  // A replica that learned about the object via notification has no local
  // address: translation must only happen on the home node.
  Directory replica(2);
  replica.add_remote(Handle{0, 0}, 256, ObjectKind::kArray);
  EXPECT_THROW(replica.translate(Handle{0, 0}, 0), std::logic_error);
}

TEST(Directory, TranslateUnknownHandleThrows) {
  Directory dir(2);
  EXPECT_THROW(dir.translate(Handle{0, 9}, 0), std::logic_error);
}

TEST(Directory, RemoveFreesTheSlot) {
  Directory dir(2);
  const Handle h = dir.add_local(0, 0, ControlBlock{});
  EXPECT_TRUE(dir.remove(h));
  EXPECT_EQ(dir.find(h), nullptr);
  EXPECT_FALSE(dir.remove(h));
  EXPECT_EQ(dir.adds(), 1u);
  EXPECT_EQ(dir.removes(), 1u);
}

TEST(Directory, RemoteAnnouncementKeepsIndexAllocationAhead) {
  Directory replica(2);
  replica.add_remote(Handle{0, 5}, 64, ObjectKind::kArray);
  // A later local allocation on that partition must not collide.
  const Handle h = replica.add_local(0, 0, ControlBlock{});
  EXPECT_EQ(h.index, 6u);
}

TEST(Directory, ReplicasStayConsistentUnderCollectiveOrder) {
  // Simulate 3 replicas performing the same collective allocations: the
  // resulting handles must be identical everywhere.
  std::vector<Directory> replicas;
  replicas.reserve(3);
  for (int i = 0; i < 3; ++i) replicas.emplace_back(4);
  for (int alloc = 0; alloc < 5; ++alloc) {
    Handle expect{};
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      const Handle h =
          replicas[r].add_local(kAllPartition, 0, ControlBlock{});
      if (r == 0) {
        expect = h;
      } else {
        EXPECT_EQ(h, expect);
      }
    }
  }
}

TEST(Directory, PartitionSizesTrackLiveEntries) {
  Directory dir(3);
  dir.add_local(1, 1, ControlBlock{});
  dir.add_local(1, 1, ControlBlock{});
  const Handle h = dir.add_local(kAllPartition, 0, ControlBlock{});
  EXPECT_EQ(dir.partition_size(1), 2u);
  EXPECT_EQ(dir.partition_size(kAllPartition), 1u);
  dir.remove(h);
  EXPECT_EQ(dir.partition_size(kAllPartition), 0u);
}

TEST(Directory, ZeroThreadsRejected) {
  EXPECT_THROW(Directory dir(0), std::invalid_argument);
}

TEST(Directory, HugeThreadCountCostsNothingUntilWritten) {
  // Partitions are logical: a replica for 2^30 threads holds only what
  // it is told about, so the last thread's partition works at once.
  const std::uint32_t threads = 1u << 30;
  Directory dir(threads);
  EXPECT_EQ(dir.size(), 0u);
  const std::uint32_t last = threads - 1;
  ControlBlock cb;
  cb.local_base = 0x4000;
  cb.local_bytes = 64;
  const Handle h = dir.add_local(last, last, cb);
  EXPECT_EQ(h, (Handle{last, 0}));
  ASSERT_NE(dir.find(h), nullptr);
  EXPECT_EQ(dir.translate(h, 8), 0x4008u);
  EXPECT_EQ(dir.partition_size(last), 1u);
  EXPECT_EQ(dir.partition_size(0), 0u);
  EXPECT_TRUE(dir.remove(h));
  EXPECT_EQ(dir.find(h), nullptr);
  EXPECT_EQ(dir.size(), 0u);
}

TEST(Directory, OutOfRangePartitionThrowsEverywhere) {
  Directory dir(4);
  const Handle bad{4, 0};
  EXPECT_THROW(dir.add_local(4, 4, ControlBlock{}), std::out_of_range);
  EXPECT_THROW(dir.add_remote(bad, 64, ObjectKind::kArray),
               std::out_of_range);
  EXPECT_THROW(dir.find(bad), std::out_of_range);
  EXPECT_THROW(dir.remove(bad), std::out_of_range);
  EXPECT_THROW(dir.partition_size(4), std::out_of_range);
  EXPECT_THROW(dir.translate(bad, 0), std::out_of_range);
  EXPECT_EQ(dir.size(), 0u);
}

TEST(Directory, ExhaustedIndexSpaceThrowsInsteadOfWrapping) {
  Directory dir(2);
  // Remote path: an announced last index leaves nothing to allocate;
  // wrapping to 0 would alias a live object.
  const Handle first = dir.add_local(0, 0, ControlBlock{});
  dir.add_remote(Handle{0, 0xffffffffu}, 64, ObjectKind::kArray);
  EXPECT_THROW(dir.add_local(0, 0, ControlBlock{}), std::length_error);
  EXPECT_NE(dir.find(first), nullptr);
  EXPECT_EQ(dir.partition_size(0), 2u);
  // Local path: the partition's own counter runs off the end.
  dir.add_remote(Handle{1, 0xfffffffeu}, 64, ObjectKind::kArray);
  EXPECT_EQ(dir.add_local(1, 1, ControlBlock{}).index, 0xffffffffu);
  EXPECT_THROW(dir.add_local(1, 1, ControlBlock{}), std::length_error);
  EXPECT_EQ(dir.partition_size(1), 2u);
  // ALL is exhausted the same way.
  dir.add_remote(Handle{kAllPartition, 0xffffffffu}, 64, ObjectKind::kArray);
  EXPECT_THROW(dir.add_local(kAllPartition, 1, ControlBlock{}),
               std::length_error);
}

bool same_block(const ControlBlock* a, const ControlBlock* b) {
  if (a == nullptr || b == nullptr) return a == b;
  return a->kind == b->kind && a->total_bytes == b->total_bytes &&
         a->local_base == b->local_base && a->local_bytes == b->local_bytes;
}

// Differential test of the replica's open-addressing tables against a
// model over std::unordered_map: seeded add_local/add_remote/remove/find
// across thread partitions and ALL, phases that grow the table through
// several doublings and then shrink it (so removals land inside probe
// chains), and announced indices at the top of the index space.
TEST(Directory, MatchesUnorderedMapModelUnderSeededChurn) {
  constexpr std::uint32_t kThreads = 6;
  const std::vector<std::uint32_t> parts = {0, 1, 2, 3, 4, 5, kAllPartition};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed);
    auto below = [&rng](std::uint64_t n) { return rng() % n; };
    auto random_kind = [&below] { return static_cast<ObjectKind>(below(4)); };
    Directory dir(kThreads);
    std::unordered_map<std::uint64_t, ControlBlock> model;
    std::unordered_map<std::uint32_t, std::uint64_t> next;  // index counters
    std::unordered_map<std::uint32_t, std::size_t> live;
    std::vector<std::uint64_t> keys;  // every key ever added
    std::size_t peak = 0;
    auto find_in_model = [&model](std::uint64_t key) -> const ControlBlock* {
      const auto it = model.find(key);
      return it == model.end() ? nullptr : &it->second;
    };
    auto check_all = [&] {
      for (std::uint64_t key : keys) {
        ASSERT_TRUE(same_block(dir.find(Handle::unpack(key)),
                               find_in_model(key)))
            << "seed " << seed << " key " << key;
      }
      for (std::uint32_t p : parts) {
        ASSERT_EQ(dir.partition_size(p), live[p]) << "partition " << p;
      }
    };
    for (int op = 0; op < 30000; ++op) {
      const bool growing = (op / 5000) % 2 == 0;
      const std::uint64_t roll = below(100);
      const std::uint32_t part = parts[below(parts.size())];
      if (roll < (growing ? 45u : 15u)) {
        ControlBlock cb;
        cb.kind = random_kind();
        cb.total_bytes = rng();
        cb.local_base = rng() | 1;
        cb.local_bytes = below(4096);
        const ThreadId writer = part == kAllPartition
                                    ? static_cast<ThreadId>(below(kThreads))
                                    : part;
        std::uint64_t& n = next[part];
        if (n > 0xffffffffu) {
          EXPECT_THROW(dir.add_local(part, writer, cb), std::length_error);
          continue;
        }
        const Handle h = dir.add_local(part, writer, cb);
        ASSERT_EQ(h, (Handle{part, static_cast<std::uint32_t>(n)}));
        ++n;
        if (model.emplace(h.pack(), cb).second) ++live[part];
        keys.push_back(h.pack());
      } else if (roll < (growing ? 70u : 25u)) {
        // Mostly indices that may collide with live entries; near the end,
        // now and then the last two indices of the partition.
        const auto index =
            op > 25000 && below(20) == 0
                ? static_cast<std::uint32_t>(0xffffffffu - below(2))
                : static_cast<std::uint32_t>(below(4096));
        const Handle h{part, index};
        ControlBlock cb;
        cb.kind = random_kind();
        cb.total_bytes = rng();
        dir.add_remote(h, cb.total_bytes, cb.kind);
        std::uint64_t& n = next[part];
        if (index >= n) n = index + 1ull;
        if (model.emplace(h.pack(), cb).second) ++live[part];
        keys.push_back(h.pack());
      } else if (roll < 85u) {
        const std::uint64_t key =
            keys.empty() || below(10) == 0
                ? Handle{part, static_cast<std::uint32_t>(below(8192))}.pack()
                : keys[below(keys.size())];
        const bool present = model.erase(key) == 1;
        ASSERT_EQ(dir.remove(Handle::unpack(key)), present);
        if (present) --live[Handle::unpack(key).partition];
      } else {
        const std::uint64_t key =
            keys.empty() || below(4) == 0
                ? Handle{part, static_cast<std::uint32_t>(below(8192))}.pack()
                : keys[below(keys.size())];
        ASSERT_TRUE(same_block(dir.find(Handle::unpack(key)),
                               find_in_model(key)));
      }
      ASSERT_EQ(dir.size(), model.size());
      peak = std::max(peak, model.size());
      if (op % 1000 == 999) check_all();
    }
    EXPECT_GT(peak, 1000u);  // grew through several doublings
    // The all-ones key: ALL partition, index 0xffffffff.
    const Handle top{kAllPartition, 0xffffffffu};
    if (model.erase(top.pack()) == 1) {
      ASSERT_TRUE(dir.remove(top));
      --live[kAllPartition];
    }
    dir.add_remote(top, 77, ObjectKind::kLock);
    ASSERT_NE(dir.find(top), nullptr);
    EXPECT_EQ(dir.find(top)->total_bytes, 77u);
    EXPECT_THROW(dir.add_local(kAllPartition, 0, ControlBlock{}),
                 std::length_error);
    EXPECT_TRUE(dir.remove(top));
    EXPECT_EQ(dir.find(top), nullptr);
    check_all();
  }
}

class DirectoryChurnProperty : public ::testing::TestWithParam<int> {};

TEST_P(DirectoryChurnProperty, AllocFreeChurnKeepsCountsConsistent) {
  const int rounds = GetParam();
  Directory dir(8);
  std::vector<Handle> live;
  for (int r = 0; r < rounds; ++r) {
    const ThreadId t = static_cast<ThreadId>(r % 8);
    live.push_back(dir.add_local(t, t, ControlBlock{}));
    if (r % 3 == 2) {
      dir.remove(live.front());
      live.erase(live.begin());
    }
  }
  EXPECT_EQ(dir.size(), live.size());
  EXPECT_EQ(dir.adds() - dir.removes(), live.size());
  for (const Handle& h : live) EXPECT_NE(dir.find(h), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DirectoryChurnProperty,
                         ::testing::Values(1, 8, 27, 64, 200));

}  // namespace
}  // namespace xlupc::svd
