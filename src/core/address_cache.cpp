#include "core/address_cache.h"

namespace xlupc::core {

namespace {

std::size_t hash(const CacheKey& k) noexcept {
  std::uint64_t x = k.handle ^ (static_cast<std::uint64_t>(k.node) << 40) ^
                    (static_cast<std::uint64_t>(k.chunk) << 20);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return static_cast<std::size_t>(x);
}

}  // namespace

std::size_t AddressCache::probe(const CacheKey& key) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash(key) & mask;
  while (slots_[i] != kNil && !(entries_[slots_[i]].key == key)) {
    i = (i + 1) & mask;
  }
  return i;
}

void AddressCache::unlink(std::uint32_t e) noexcept {
  Entry& en = entries_[e];
  (en.prev == kNil ? mru_ : entries_[en.prev].next) = en.next;
  (en.next == kNil ? lru_ : entries_[en.next].prev) = en.prev;
}

void AddressCache::push_front(std::uint32_t e) noexcept {
  Entry& en = entries_[e];
  en.prev = kNil;
  en.next = mru_;
  (mru_ == kNil ? lru_ : entries_[mru_].prev) = e;
  mru_ = e;
}

void AddressCache::touch(std::uint32_t e) noexcept {
  if (e == mru_) return;
  unlink(e);
  push_front(e);
}

void AddressCache::remove(std::uint32_t e) noexcept {
  // Backward-shift deletion: walk the probe chain after the hole and
  // move back every entry whose home slot lies at or before the hole.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = probe(entries_[e].key);
  for (std::size_t i = (hole + 1) & mask; slots_[i] != kNil;
       i = (i + 1) & mask) {
    const std::size_t home = hash(entries_[slots_[i]].key) & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = kNil;
  unlink(e);
  entries_[e].next = free_;
  free_ = e;
  --size_;
}

void AddressCache::grow() {
  slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), kNil);
  for (std::uint32_t e = mru_; e != kNil; e = entries_[e].next) {
    slots_[probe(entries_[e].key)] = e;
  }
}

std::optional<net::BaseInfo> AddressCache::lookup(const CacheKey& key) {
  const std::uint32_t e = slots_.empty() ? kNil : slots_[probe(key)];
  if (e == kNil) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  touch(e);
  return entries_[e].info;
}

void AddressCache::insert(const CacheKey& key, net::BaseInfo info) {
  if (slots_.empty()) grow();
  std::size_t s = probe(key);
  if (slots_[s] != kNil) {
    const std::uint32_t e = slots_[s];
    entries_[e].info = info;
    touch(e);
    return;
  }
  if (max_entries_ != 0 && size_ >= max_entries_) {
    remove(lru_);
    ++stats_.evictions;
    s = probe(key);  // the deletion may have shifted the chain
  }
  if (2 * (size_ + 1) > slots_.size()) {  // keep the load factor <= 1/2
    grow();
    s = probe(key);
  }
  std::uint32_t e = free_;
  if (e != kNil) {
    free_ = entries_[e].next;
    entries_[e].key = key;
    entries_[e].info = info;
  } else {
    e = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(Entry{key, info});
  }
  slots_[s] = e;
  push_front(e);
  ++size_;
  ++stats_.insertions;
}

std::vector<CacheKey> AddressCache::keys() const {
  std::vector<CacheKey> out;
  out.reserve(size_);
  for (std::uint32_t e = mru_; e != kNil; e = entries_[e].next) {
    out.push_back(entries_[e].key);
  }
  return out;
}

template <class Match>
void AddressCache::invalidate_if(Match match) {
  for (std::uint32_t e = mru_; e != kNil;) {
    const std::uint32_t next = entries_[e].next;
    if (match(entries_[e].key)) {
      remove(e);
      ++stats_.invalidations;
    }
    e = next;
  }
}

void AddressCache::invalidate_handle(std::uint64_t handle) {
  invalidate_if([handle](const CacheKey& k) { return k.handle == handle; });
}

void AddressCache::invalidate_node(NodeId node) {
  invalidate_if([node](const CacheKey& k) { return k.node == node; });
}

void AddressCache::invalidate(const CacheKey& key) {
  if (slots_.empty()) return;
  const std::uint32_t e = slots_[probe(key)];
  if (e == kNil) return;
  remove(e);
  ++stats_.invalidations;
}

}  // namespace xlupc::core
