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
#pragma once

#include <cstdint>
#include <unordered_map>

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

  /// Find the control block, or nullptr if unknown/freed.
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

  /// Throws std::out_of_range unless `partition` is a thread's or ALL.
  void check(std::uint32_t partition) const;
  void insert(Handle h, const ControlBlock& cb, Counters& counters);

  std::uint32_t threads_;
  std::unordered_map<std::uint64_t, ControlBlock> entries_;  // Handle::pack()
  std::unordered_map<std::uint32_t, Counters> counters_;     // by partition
  std::uint64_t adds_ = 0;
  std::uint64_t removes_ = 0;
};

}  // namespace xlupc::svd
