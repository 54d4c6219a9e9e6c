// The remote address cache — the paper's core contribution (Sec. 3).
//
// A bounded hash table per node. Each entry correlates an SVD handle and
// a node identifier with the physical base address (and RDMA key) of the
// shared variable's piece on that remote node. A hit lets the initiator
// compute the final remote address (base + offset) locally and execute
// the transfer as an RDMA operation; a miss routes the operation through
// the default messaging path, which piggybacks the base address back to
// populate the cache for the next access.
//
// "The Address Cache is currently implemented as a dynamic hash table.
// Its size is allowed to increase on demand to a fixed limit of 100
// entries." (Sec. 4.5) — eviction beyond the limit is LRU. Entries are
// eagerly invalidated when the shared object is deallocated (Sec. 3.1).
//
// Under the chunked pinning strategy ([10]) entries are tagged per chunk,
// because a cache hit must imply the addressed memory is pinned at the
// target; under the paper's greedy strategy chunk is always 0 and "the
// cache tags can simply be the SVD handles".
//
// Layout: entries live in one vector, linked into an LRU list by index
// (freed entries are reused through a free list), and a power-of-two
// linear-probing index of entry numbers finds them by key. Deletion
// shifts later probe-chain members back instead of leaving tombstones,
// so lookups never slow down after invalidations. Both arrays grow on
// demand, which keeps the unbounded `full_table` mode working.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "net/message.h"

namespace xlupc::core {

struct CacheKey {
  std::uint64_t handle = 0;  ///< packed SVD handle
  NodeId node = 0;           ///< remote node the address lives on
  std::uint32_t chunk = 0;   ///< pin chunk index (0 under greedy pinning)

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct AddressCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class AddressCache {
 public:
  /// `max_entries` = growth limit of the dynamic hash table (paper: 100).
  explicit AddressCache(std::size_t max_entries) : max_entries_(max_entries) {}

  /// Probe for a remote base address; counts a hit or a miss and
  /// refreshes LRU order on hit.
  std::optional<net::BaseInfo> lookup(const CacheKey& key);

  /// Insert/refresh an entry (piggybacked base address arrived); evicts
  /// the least-recently-used entry when full.
  void insert(const CacheKey& key, net::BaseInfo info);

  /// Eagerly drop all entries of a shared object (it was deallocated).
  void invalidate_handle(std::uint64_t handle);

  /// Drop all entries pointing at `node` (it was declared dead by the
  /// failure detector: its base addresses are meaningless now and an
  /// RDMA tier hit against them must never happen again).
  void invalidate_node(NodeId node);

  /// Drop one entry (e.g. an RDMA NAK revealed the target unpinned it).
  void invalidate(const CacheKey& key);

  std::size_t size() const noexcept { return size_; }
  /// Every cached key, most recently used first.
  std::vector<CacheKey> keys() const;
  std::size_t max_entries() const noexcept { return max_entries_; }
  const AddressCacheStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Entry {
    CacheKey key;
    net::BaseInfo info;
    std::uint32_t prev = kNil;  ///< towards the most recently used
    std::uint32_t next = kNil;  ///< towards the LRU end; free-list link
  };

  /// The index slot holding `key`, or the empty slot where it would go.
  /// Precondition: the index is allocated.
  std::size_t probe(const CacheKey& key) const noexcept;
  /// Remove entry `e` from the index, the LRU list and the live count.
  void remove(std::uint32_t e) noexcept;
  /// Invalidate every entry for which `match(key)` holds.
  template <class Match>
  void invalidate_if(Match match);
  void unlink(std::uint32_t e) noexcept;
  void push_front(std::uint32_t e) noexcept;
  /// Make `e` the most recently used entry.
  void touch(std::uint32_t e) noexcept;
  /// Double the index (at least 16 slots) and re-insert every entry.
  void grow();

  std::size_t max_entries_;
  std::size_t size_ = 0;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;  ///< entry number, or kNil if empty
  std::uint32_t mru_ = kNil;
  std::uint32_t lru_ = kNil;
  std::uint32_t free_ = kNil;
  AddressCacheStats stats_;
};

}  // namespace xlupc::core
