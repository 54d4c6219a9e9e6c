#include "sim/pool.h"

#include <new>
#include <vector>

namespace xlupc::sim {

namespace {

// 32-byte class granularity up to 2 KiB covers every coroutine frame and
// callback spill the runtime produces (measured distribution peaks at
// 64-1024 bytes); anything larger is rare enough to leave to malloc.
// Blocks are multiples of 32 bytes carved from max_align_t-aligned
// chunks, so every block is aligned for std::max_align_t.
constexpr std::size_t kGranularity = 32;
constexpr std::size_t kMaxBlock = 2048;
constexpr std::size_t kClasses = kMaxBlock / kGranularity;
constexpr std::size_t kChunkBytes = 64 * 1024;
static_assert(kGranularity % alignof(std::max_align_t) == 0);

// A free block's first bytes hold the freelist link.
struct FreeBlock {
  FreeBlock* next;
};

struct Pool {
  FreeBlock* freelist[kClasses] = {};
  std::vector<void*> chunks;
  PoolStats stats;

  FreeBlock* carve(std::size_t cls) {
    // Carve one 64 KiB chunk wholesale into this class's freelist.
    const std::size_t block = (cls + 1) * kGranularity;
    const std::size_t count = kChunkBytes / block;
    char* base = static_cast<char*>(::operator new(kChunkBytes));
    chunks.push_back(base);
    ++stats.chunks;
    stats.chunk_bytes += kChunkBytes;
    for (std::size_t i = 0; i < count; ++i) {
      auto* b = ::new (base + i * block) FreeBlock{freelist[cls]};
      freelist[cls] = b;
    }
    return freelist[cls];
  }
};

// Never destroyed (function-local static pointer): coroutine frames held
// by static-duration objects may be freed after main() returns, so the
// pool must outlive every destructor. The pointer keeps the chunks
// reachable, which also keeps leak checkers quiet.
Pool& pool() {
  static Pool* p = new Pool;
  return *p;
}

std::size_t size_class(std::size_t bytes) noexcept {
  return bytes == 0 ? 0 : (bytes - 1) / kGranularity;
}

}  // namespace

void* pool_alloc(std::size_t bytes) {
  Pool& p = pool();
  ++p.stats.allocations;
  if (kPoolBypass || bytes > kMaxBlock) {
    if (bytes > kMaxBlock) ++p.stats.oversize;
    return ::operator new(bytes);
  }
  const std::size_t cls = size_class(bytes);
  FreeBlock* head = p.freelist[cls];
  if (head != nullptr) {
    ++p.stats.reuses;
  } else {
    head = p.carve(cls);
  }
  p.freelist[cls] = head->next;
  return head;
}

void pool_free(void* ptr, std::size_t bytes) noexcept {
  if (ptr == nullptr) return;
  Pool& p = pool();
  ++p.stats.frees;
  if (kPoolBypass || bytes > kMaxBlock) {
    ::operator delete(ptr, bytes);
    return;
  }
  const std::size_t cls = size_class(bytes);
  p.freelist[cls] = ::new (ptr) FreeBlock{p.freelist[cls]};
}

const PoolStats& pool_stats() noexcept { return pool().stats; }

}  // namespace xlupc::sim
