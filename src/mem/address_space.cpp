#include "mem/address_space.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace xlupc::mem {

namespace {
constexpr std::size_t kAlign = 16;

std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) / align * align;
}
}  // namespace

AddressSpace::AddressSpace(NodeId node) : node_(node), next_(node_base(node)) {}

Addr AddressSpace::allocate(std::size_t size) {
  const Addr addr = next_;
  blocks_.push_back(Block{addr, size, std::vector<std::byte>(size)});
  // Reserve at least one alignment unit so even empty allocations get
  // distinct addresses.
  next_ += round_up(std::max<std::size_t>(size, 1), kAlign);
  bytes_allocated_ += size;
  return addr;
}

std::vector<AddressSpace::Block>::const_iterator AddressSpace::block_at(
    Addr addr) const {
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), addr,
      [](Addr a, const Block& b) { return a < b.base; });
  return it == blocks_.begin() ? blocks_.end() : std::prev(it);
}

std::vector<AddressSpace::Block>::const_iterator AddressSpace::block_based_at(
    Addr addr) const {
  const auto it = block_at(addr);
  return it != blocks_.end() && it->base == addr ? it : blocks_.end();
}

void AddressSpace::free(Addr addr) {
  const auto it = block_based_at(addr);
  if (it == blocks_.end()) {
    throw std::invalid_argument("AddressSpace::free: not an allocation base");
  }
  bytes_allocated_ -= it->size;
  blocks_.erase(it);
}

const AddressSpace::Block& AddressSpace::locate(Addr addr,
                                                std::size_t len) const {
  const auto it = block_at(addr);
  if (it == blocks_.end()) {
    throw std::out_of_range("AddressSpace: address below all allocations");
  }
  const Block& block = *it;
  if (addr - block.base > block.size ||
      len > block.size - (addr - block.base)) {
    throw std::out_of_range("AddressSpace: range not inside an allocation");
  }
  return block;
}

bool AddressSpace::contains(Addr addr, std::size_t len) const {
  const auto it = block_at(addr);
  return it != blocks_.end() && addr - it->base <= it->size &&
         len <= it->size - (addr - it->base);
}

void AddressSpace::read(Addr addr, std::span<std::byte> out) const {
  std::copy_n(data(addr, out.size()), out.size(), out.data());
}

void AddressSpace::write(Addr addr, std::span<const std::byte> in) {
  std::copy_n(in.data(), in.size(), data(addr, in.size()));
}

std::byte* AddressSpace::data(Addr addr, std::size_t len) {
  // locate() is const; the block's byte storage is logically mutable here.
  return const_cast<std::byte*>(std::as_const(*this).data(addr, len));
}

const std::byte* AddressSpace::data(Addr addr, std::size_t len) const {
  const Block& block = locate(addr, len);
  return block.bytes.data() + (addr - block.base);
}

std::size_t AddressSpace::allocation_size(Addr addr) const {
  const auto it = block_based_at(addr);
  if (it == blocks_.end()) {
    throw std::invalid_argument("AddressSpace::allocation_size: unknown base");
  }
  return it->size;
}

Addr AddressSpace::owning_block(Addr addr) const {
  const auto it = block_at(addr);
  if (it == blocks_.end() ||
      addr - it->base >= std::max<std::size_t>(it->size, 1)) {
    return kNullAddr;
  }
  return it->base;
}

}  // namespace xlupc::mem
