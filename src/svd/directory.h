// The Shared Variable Directory (paper Sec. 2.1).
//
// One Directory replica exists per node. On a system with n UPC threads it
// has n + 1 logical partitions: partition k lists the shared variables
// affine to thread k; the ALL partition holds variables allocated
// statically or through collective operations. Partitions are the
// `partition` field of a handle, not storage: a replica keeps one flat
// table of the objects it knows about, so its size follows the objects,
// not the global thread count. Each partition has a single writer (the
// owning thread), so allocation requires no locks; remote replicas learn
// of allocations through notification messages and hold control blocks
// WITHOUT local addresses — translation from handle to memory address
// happens only on the home node, which is exactly the scalability property
// (and the performance compromise) the paper describes.
//
// Layout: the object table and the per-partition counters are each one
// power-of-two open-addressing array of {key, value} slots, with a
// multiply-shift hash and linear probing, like core::AddressCache.
// Deletion shifts later probe-chain members back instead of leaving
// tombstones. A lookup reads one slot array, with no node walk and no
// modulo. Growth and deletion move slots, so a pointer returned by
// find() is valid only until the next add or remove.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "svd/handle.h"

namespace xlupc::svd {

enum class ObjectKind : std::uint8_t {
  kScalar,
  kArray,
  kLock,
  kPointer,
};

/// Control structure associated with a shared object in a replica.
/// `local_base`/`local_bytes` describe this node's portion and are only
/// meaningful on nodes that own part of the object.
struct ControlBlock {
  ObjectKind kind = ObjectKind::kArray;
  std::uint64_t total_bytes = 0;  ///< whole-object size across all threads
  Addr local_base = kNullAddr;    ///< base of this node's combined piece
  std::uint64_t local_bytes = 0;  ///< size of this node's piece
};

/// One node's replica of the distributed symbol table.
class Directory {
 public:
  /// `threads` = total number of UPC threads (partitions 0..threads-1
  /// plus the ALL partition). Construction allocates nothing.
  explicit Directory(std::uint32_t threads);

  std::uint32_t threads() const noexcept { return threads_; }

  /// Append a locally-known object to `partition`, enforcing the
  /// single-writer rule: only thread `writer` may append to its own
  /// partition; any thread may append to ALL (collective allocations are
  /// already synchronized). Returns the new handle. Throws
  /// std::length_error once the partition's 2^32 indices are used up.
  Handle add_local(std::uint32_t partition, ThreadId writer, ControlBlock cb);

  /// Record a remotely-allocated object announced by a notification.
  /// The control block has no local address on this replica.
  void add_remote(Handle h, std::uint64_t total_bytes, ObjectKind kind);

  /// Find the control block, or nullptr if unknown/freed. The pointer is
  /// invalidated by the next add_local, add_remote or remove.
  ControlBlock* find(Handle h);
  const ControlBlock* find(Handle h) const;

  /// Home-node translation: address of byte `offset` within this node's
  /// piece. Throws std::logic_error when this replica holds no local
  /// address for the object (i.e. translation attempted off-home).
  Addr translate(Handle h, std::uint64_t offset) const;

  /// Remove the object from this replica (allocation freed).
  /// Returns true if it was present.
  bool remove(Handle h);

  /// Number of live entries in a partition.
  std::size_t partition_size(std::uint32_t partition) const;

  /// Total live entries across all partitions.
  std::size_t size() const noexcept { return entries_.size(); }

  /// Lifetime counters (consistency diagnostics).
  std::uint64_t adds() const noexcept { return adds_; }
  std::uint64_t removes() const noexcept { return removes_; }

 private:
  /// Per-partition counters, created when the partition is first written.
  /// `next_index` is 64-bit so an exhausted index space is representable.
  struct Counters {
    std::uint64_t next_index = 0;
    std::size_t live = 0;
  };

  /// Open-addressing map from a 64-bit key to a `V`: a power-of-two
  /// slot array kept at most half full, multiply-shift hashed, linearly
  /// probed, with backward-shift deletion. Allocates on first insert.
  template <class V>
  class Table {
   public:
    std::size_t size() const noexcept { return size_; }

    V* find(std::uint64_t key) noexcept {
      if (size_ == 0) return nullptr;
      Slot& s = slots_[probe(key)];
      return s.used ? &s.value : nullptr;
    }
    const V* find(std::uint64_t key) const noexcept {
      return const_cast<Table*>(this)->find(key);
    }

    /// The entry for `key`, inserting `value` if absent; `.second` is
    /// true when it was inserted.
    std::pair<V*, bool> emplace(std::uint64_t key, const V& value) {
      if (2 * (size_ + 1) > slots_.size()) grow();
      Slot& s = slots_[probe(key)];
      if (s.used) return {&s.value, false};
      s = Slot{key, value, true};
      ++size_;
      return {&s.value, true};
    }

    /// Remove `key`; returns true if it was present.
    bool erase(std::uint64_t key) noexcept {
      if (size_ == 0) return false;
      std::size_t hole = probe(key);
      if (!slots_[hole].used) return false;
      // Walk the probe chain after the hole and move back every slot
      // whose home lies at or before the hole.
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = (hole + 1) & mask; slots_[i].used;
           i = (i + 1) & mask) {
        const std::size_t home = this->home(slots_[i].key);
        if (((i - home) & mask) >= ((i - hole) & mask)) {
          slots_[hole] = slots_[i];
          hole = i;
        }
      }
      slots_[hole].used = false;
      --size_;
      return true;
    }

   private:
    struct Slot {
      std::uint64_t key = 0;
      V value{};
      bool used = false;
    };

    // Multiply-shift after folding the high word into the low one. A
    // packed handle varies in the low bits of both its partition and its
    // index; without the fold, 32 ALL handles plus 32 thread partitions
    // formed probe runs 43 slots long.
    std::size_t home(std::uint64_t key) const noexcept {
      key ^= key >> 29;
      return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
    }
    /// The slot holding `key`, or the empty slot where it would go.
    /// Precondition: the slot array is allocated.
    std::size_t probe(std::uint64_t key) const noexcept {
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = home(key);
      while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
      return i;
    }
    /// Double the slot array (at least 16 slots) and re-insert.
    void grow() {
      std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
      old.swap(slots_);
      shift_ = 64 - std::countr_zero(slots_.size());
      for (const Slot& s : old) {
        if (s.used) slots_[probe(s.key)] = s;
      }
    }

    std::vector<Slot> slots_;
    int shift_ = 64;
    std::size_t size_ = 0;
  };

  /// Throws std::out_of_range unless `partition` is a thread's or ALL.
  void check(std::uint32_t partition) const;
  void insert(Handle h, const ControlBlock& cb, Counters& counters);

  std::uint32_t threads_;
  Table<ControlBlock> entries_;  // by Handle::pack()
  Table<Counters> counters_;     // by partition
  std::uint64_t adds_ = 0;
  std::uint64_t removes_ = 0;
};

}  // namespace xlupc::svd
