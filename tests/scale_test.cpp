// Scale limit of the runtime itself (paper Sec. 6: "tens of thousands of
// processors"): GM at 16384 nodes x 4 threads, 65536 UPC threads, must
// build, run a collective allocation plus one put and one cross-node get
// per thread, and stay within bounded memory. No per-node state may be
// sized by the global thread count: one 64-byte map per SVD partition in
// every replica would alone need ~68 GB at this shape.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>

#include "core/runtime.h"

#if defined(__SANITIZE_ADDRESS__)
#define XLUPC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define XLUPC_SANITIZED 1
#endif
#endif

namespace xlupc::core {
namespace {

using sim::Task;

#ifdef XLUPC_SANITIZED
// Instrumented builds run a quarter of the machine and skip the bound:
// shadow memory and redzones are not the runtime's footprint.
constexpr std::uint32_t kNodes = 4096;
#else
constexpr std::uint32_t kNodes = 16384;
#endif
constexpr std::uint32_t kThreadsPerNode = 4;
constexpr long kMaxRssKb = 1024L * 1024L;  // 1 GB

std::uint64_t value_of(std::uint64_t elem) { return elem * 7 + 3; }

TEST(Scale, GmSixteenThousandNodesRunInBoundedMemory) {
  RuntimeConfig cfg;
  cfg.platform = net::mare_nostrum_gm();
  cfg.nodes = kNodes;
  cfg.threads_per_node = kThreadsPerNode;
  Runtime rt(cfg);
  const std::uint32_t threads = rt.threads();
  ASSERT_EQ(threads, kNodes * kThreadsPerNode);

  std::uint64_t wrong = 0;
  rt.run([&](UpcThread& th) -> Task<void> {
    // Block size 1: element i is affine to thread i.
    const ArrayDesc a =
        co_await th.all_alloc(threads, sizeof(std::uint64_t), 1);
    co_await th.write<std::uint64_t>(a, th.id(), value_of(th.id()));
    co_await th.barrier();
    // Half the machine away, so every get crosses nodes.
    const std::uint64_t peer = (th.id() + threads / 2) % threads;
    if (co_await th.read<std::uint64_t>(a, peer) != value_of(peer)) ++wrong;
  });
  EXPECT_EQ(wrong, 0u);
  const OpCounters& c = rt.counters();
  EXPECT_EQ(c.local_puts, threads);
  EXPECT_EQ(c.am_gets + c.rdma_gets, threads);

#if defined(NDEBUG) && !defined(XLUPC_SANITIZED)
  rusage usage{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  EXPECT_LE(usage.ru_maxrss, kMaxRssKb) << "peak RSS in KB";
#endif
}

}  // namespace
}  // namespace xlupc::core
