#include "svd/directory.h"

#include <stdexcept>

namespace xlupc::svd {

Directory::Directory(std::uint32_t threads) : threads_(threads) {
  if (threads == 0) {
    throw std::invalid_argument("Directory: thread count must be positive");
  }
}

void Directory::check(std::uint32_t partition) const {
  if (partition != kAllPartition && partition >= threads_) {
    throw std::out_of_range("Directory: bad partition number");
  }
}

void Directory::insert(Handle h, const ControlBlock& cb, Counters& counters) {
  if (entries_.emplace(h.pack(), cb).second) ++counters.live;
  ++adds_;
}

Handle Directory::add_local(std::uint32_t partition, ThreadId writer,
                            ControlBlock cb) {
  // Single-writer rule (Sec. 2.1): each thread updates only its own
  // partition; the ALL partition is written under collective
  // synchronization, so any thread may append there.
  if (partition != kAllPartition && partition != writer) {
    throw std::logic_error(
        "Directory::add_local: thread may only write its own partition");
  }
  check(partition);
  Counters& counters = *counters_.emplace(partition, Counters{}).first;
  if (counters.next_index > 0xffffffffu) {
    throw std::length_error(
        "Directory::add_local: partition index space exhausted");
  }
  const Handle h{partition, static_cast<std::uint32_t>(counters.next_index++)};
  insert(h, cb, counters);
  return h;
}

void Directory::add_remote(Handle h, std::uint64_t total_bytes,
                           ObjectKind kind) {
  check(h.partition);
  Counters& counters = *counters_.emplace(h.partition, Counters{}).first;
  // Keep index allocation ahead of remotely-announced handles so a later
  // local allocation cannot collide (an announced 0xffffffff exhausts the
  // partition rather than wrapping next_index to 0).
  if (h.index >= counters.next_index) counters.next_index = h.index + 1ull;
  ControlBlock cb;
  cb.kind = kind;
  cb.total_bytes = total_bytes;
  // No local address: translation for this object is impossible on this
  // replica — that is the point of the design.
  insert(h, cb, counters);
}

ControlBlock* Directory::find(Handle h) {
  check(h.partition);
  return entries_.find(h.pack());
}

const ControlBlock* Directory::find(Handle h) const {
  return const_cast<Directory*>(this)->find(h);
}

Addr Directory::translate(Handle h, std::uint64_t offset) const {
  const ControlBlock* cb = find(h);
  if (cb == nullptr) {
    throw std::logic_error("Directory::translate: unknown handle");
  }
  if (cb->local_base == kNullAddr) {
    throw std::logic_error(
        "Directory::translate: no local address on this replica "
        "(translation only happens on the home node)");
  }
  if (offset >= cb->local_bytes && !(offset == 0 && cb->local_bytes == 0)) {
    throw std::out_of_range("Directory::translate: offset beyond local piece");
  }
  return cb->local_base + offset;
}

bool Directory::remove(Handle h) {
  check(h.partition);
  if (!entries_.erase(h.pack())) return false;
  --counters_.find(h.partition)->live;
  ++removes_;
  return true;
}

std::size_t Directory::partition_size(std::uint32_t partition) const {
  check(partition);
  const Counters* counters = counters_.find(partition);
  return counters == nullptr ? 0 : counters->live;
}

}  // namespace xlupc::svd
