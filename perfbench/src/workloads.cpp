#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <span>
#include <unordered_map>

#include "dis/kvstore.h"
#include "net/machine_registry.h"

namespace perfbench {

namespace dis = xlupc::dis;
namespace net = xlupc::net;
using core::ArrayDesc;
using core::UpcThread;
using sim::Task;

namespace {

// --- inputs ---------------------------------------------------------------

/// splitmix64: every input below is drawn from a stream keyed by the
/// workload seed and a purpose/thread tag, so the same seed always gives
/// the same inputs and the program under test sees only the values.
struct Rng {
  std::uint64_t s;
  Rng(std::uint64_t seed, std::uint64_t tag, std::uint64_t sub = 0)
      : s(seed * 0x9e3779b97f4a7c15ull ^ (tag + 1) * 0xbf58476d1ce4e5b9ull ^
          (sub + 1) * 0x94d049bb133111ebull) {}
  std::uint64_t next() {
    std::uint64_t x = (s += 0x9e3779b97f4a7c15ull);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

std::uint64_t digest(std::uint64_t h, std::span<const std::byte> bytes) {
  for (std::byte b : bytes) {
    h = (h ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ull;
  }
  return h;
}

template <class T>
std::span<std::byte> bytes_of(T& v) {
  return std::as_writable_bytes(std::span(&v, 1));
}

// --- timed ops ------------------------------------------------------------
// Each wrapper times one public-API call in simulated time and counts it.
// A throwing op is a failed op; the thread carries on to its barriers.

Task<void> get_op(UpcThread& th, OpLog& log, const ArrayDesc& a,
                  std::uint64_t elem, std::span<std::byte> dst) {
  const std::uint64_t t0 = th.now();
  try {
    co_await th.get(a, elem, dst);
  } catch (const std::exception&) {
    log.fail();
    co_return;
  }
  log.record(kGet, th.id(), t0, th.now());
}

Task<void> put_op(UpcThread& th, OpLog& log, const ArrayDesc& a,
                  std::uint64_t elem, std::span<const std::byte> src) {
  const std::uint64_t t0 = th.now();
  try {
    co_await th.put(a, elem, src);
  } catch (const std::exception&) {
    log.fail();
    co_return;
  }
  log.record(kPut, th.id(), t0, th.now());
}

Task<void> memget_op(UpcThread& th, OpLog& log, const ArrayDesc& a,
                     std::uint64_t elem, std::span<std::byte> dst) {
  const std::uint64_t t0 = th.now();
  try {
    co_await th.memget(a, elem, dst);
  } catch (const std::exception&) {
    log.fail();
    co_return;
  }
  log.record(kMemget, th.id(), t0, th.now());
}

Task<void> fetch_add_op(UpcThread& th, OpLog& log, const ArrayDesc& a,
                        std::uint64_t elem, std::uint64_t delta) {
  const std::uint64_t t0 = th.now();
  try {
    co_await th.fetch_add(a, elem, delta);
  } catch (const std::exception&) {
    log.fail();
    co_return;
  }
  log.record(kAmo, th.id(), t0, th.now());
}

/// Digest of a whole shared array, read through debug_read one thread
/// block at a time.
std::uint64_t array_digest(core::Runtime& rt, const ArrayDesc& a,
                           std::uint64_t elems_per_thread,
                           std::uint64_t elem_size) {
  std::vector<std::byte> buf(elems_per_thread * elem_size);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint32_t t = 0; t < rt.threads(); ++t) {
    rt.debug_read(a, t * elems_per_thread, buf);
    h = digest(h, buf);
  }
  return h;
}

core::RuntimeConfig gm_config(std::uint32_t nodes, std::uint32_t tpn) {
  core::RuntimeConfig cfg;
  cfg.platform = net::make_machine("gm");
  cfg.nodes = nodes;
  cfg.threads_per_node = tpn;
  return cfg;
}

std::vector<ConfigRun> two_configs() {
  std::vector<ConfigRun> c(2);
  c[0].label = "cache on";
  c[1].label = "cache off";
  return c;
}

// --- dis_mix_gm -------------------------------------------------------------
// The four DIS access patterns as barrier-separated phases on the
// MareNostrum GM model, closed loop (each thread issues its next op only
// after the last one completed). Every phase is data-race free, so the
// cache-on and cache-off runs must leave identical memory and read
// identical values.

namespace mixp {
constexpr std::uint32_t kNodes = 64;
constexpr std::uint32_t kTpn = 4;
constexpr std::uint64_t kPtrPer = 1024;   // pointer table, 8-byte elems
constexpr std::uint64_t kUpdPer = 1024;   // update table, 8-byte elems
constexpr std::uint64_t kHistPer = 64;    // fetch_add histogram
constexpr std::uint64_t kRows = 16;       // image rows per thread
constexpr std::uint64_t kCols = 1024;     // int32 pixels per row
constexpr std::uint64_t kStrPer = 16384;  // Field string bytes per thread
constexpr std::uint32_t kPointerHops = 320;
constexpr std::uint32_t kUpdateHops = 128;
constexpr std::uint32_t kSamples = 48;
constexpr std::uint64_t kStencil = 40;        // rows between stencil partners
constexpr std::uint64_t kMinSpan = 64;        // memget span, pixels
constexpr std::uint64_t kMaxSpan = 6144;
constexpr std::uint32_t kTokens = 2;
constexpr std::uint32_t kChunks = 16;         // scan chunks per token
constexpr std::uint64_t kOverhang = 16;       // overhang read, bytes
constexpr double kOverhangProb = 0.4;
constexpr double kScanBytesPerUs = 100.0;
constexpr sim::Duration kPointerWork = sim::us(1.0);
constexpr sim::Duration kUpdateWork = sim::us(2.0);
constexpr sim::Duration kSampleWork = sim::us(4.0);
}  // namespace mixp

struct MixArrays {
  ArrayDesc ptr, upd, hist, img, str;
};

struct MixOutputs {
  std::uint64_t memory = 0;  ///< digest of every array after the run
  std::uint64_t reads = 0;   ///< checksum of every value read
};

MixOutputs run_mix_config(std::uint64_t seed, bool cache_on, ConfigRun& out,
                          SpanLog& spans, std::uint32_t parent) {
  using namespace mixp;
  core::RuntimeConfig cfg = gm_config(kNodes, kTpn);
  cfg.cache.enabled = cache_on;
  Session s(std::move(cfg), out, spans, parent);
  const std::uint32_t T = s.rt().threads();
  const std::uint64_t n_ptr = kPtrPer * T;
  const std::uint64_t n_upd = kUpdPer * T;
  const std::uint64_t n_hist = kHistPer * T;
  const std::uint64_t img_per = kRows * kCols;
  const std::uint64_t n_img = img_per * T;
  const std::uint64_t n_str = kStrPer * T;
  OpLog& log = out.ops;
  MixArrays arr;
  std::vector<std::uint64_t> sums(T, 0);

  s.setup([&](UpcThread& th) -> Task<void> {
    const ArrayDesc p = co_await th.all_alloc(n_ptr, 8, kPtrPer);
    const ArrayDesc u = co_await th.all_alloc(n_upd, 8, kUpdPer);
    const ArrayDesc h = co_await th.all_alloc(n_hist, 8, kHistPer);
    const ArrayDesc i = co_await th.all_alloc(n_img, 4, img_per);
    const ArrayDesc st = co_await th.all_alloc(n_str, 1, kStrPer);
    if (th.id() == 0) arr = MixArrays{p, u, h, i, st};
  });
  s.setup_host([&](core::Runtime& rt) {
    for (std::uint32_t t = 0; t < T; ++t) {
      Rng r(seed, 1, t);
      std::vector<std::uint64_t> w(kPtrPer);
      for (auto& v : w) v = r.below(n_ptr);
      rt.debug_write(arr.ptr, t * kPtrPer, std::as_bytes(std::span(w)));
      w.assign(kUpdPer, 0);
      for (auto& v : w) v = r.next();
      rt.debug_write(arr.upd, t * kUpdPer, std::as_bytes(std::span(w)));
      w.assign(kHistPer, 0);
      rt.debug_write(arr.hist, t * kHistPer, std::as_bytes(std::span(w)));
      std::vector<std::int32_t> px(img_per);
      for (auto& v : px) v = static_cast<std::int32_t>(r.below(256));
      rt.debug_write(arr.img, t * img_per, std::as_bytes(std::span(px)));
      std::vector<std::byte> str(kStrPer);
      for (auto& b : str) b = static_cast<std::byte>('a' + r.below(26));
      rt.debug_write(arr.str, t * kStrPer, str);
    }
    // Warm the cache with every array; the pointer table goes last, so
    // it is what the 100-entry cache holds when the first phase starts.
    for (const ArrayDesc* a :
         {&arr.str, &arr.img, &arr.hist, &arr.upd, &arr.ptr}) {
      rt.warm_address_cache(*a);
    }
  });

  // Pointer: random hops through the pointer table.
  s.phase("pointer", [&](UpcThread& th) -> Task<void> {
    Rng r(seed, 2, th.id());
    std::uint64_t pos = r.below(n_ptr);
    std::uint64_t acc = 0;
    for (std::uint32_t h = 0; h < kPointerHops; ++h) {
      std::uint64_t v = 0;
      co_await get_op(th, log, arr.ptr, pos, bytes_of(v));
      acc = mix(acc, v);
      pos = v % n_ptr;
      co_await th.compute(kPointerWork);
    }
    sums[th.id()] = mix(sums[th.id()], acc);
    co_await th.barrier();
  });

  // Update: remote read-modify-write. Each hop reads a random pointer
  // entry, rewrites one update slot only this thread ever writes (slot
  // j*T+id for a distinct j per hop, on another node), and every other
  // hop bumps a random histogram bucket with fetch_add (commutative, so
  // the final memory does not depend on the interleaving).
  s.phase("update", [&](UpcThread& th) -> Task<void> {
    Rng r(seed, 3, th.id());
    const std::uint64_t stride = 2 * r.below(kUpdPer / 2) + 1;  // odd
    const std::uint64_t base = r.below(kUpdPer);
    std::uint64_t k = 0;  // walks a permutation of [0, kUpdPer)
    std::uint64_t acc = 0;
    for (std::uint32_t h = 0; h < kUpdateHops; ++h) {
      std::uint64_t v = 0;
      co_await get_op(th, log, arr.ptr, r.below(n_ptr), bytes_of(v));
      std::uint64_t slot = 0;
      do {
        slot = ((base + k++ * stride) % kUpdPer) * T + th.id();
      } while (slot / kUpdPer / kTpn == th.node());
      std::uint64_t old = 0;
      co_await get_op(th, log, arr.upd, slot, bytes_of(old));
      const std::uint64_t nv = old * 6364136223846793005ull + v;
      co_await put_op(th, log, arr.upd, slot, std::as_bytes(std::span(&nv, 1)));
      if (h % 2 == 0) {
        co_await fetch_add_op(th, log, arr.hist, r.below(n_hist),
                              (v & 0xff) + 1);
      }
      acc = mix(mix(acc, v), old);
      co_await th.compute(kUpdateWork);
    }
    sums[th.id()] = mix(sums[th.id()], acc);
    co_await th.barrier();
  });

  // Neighborhood: stencil partners kStencil rows away, fetched as one
  // memget of a row span (1-24 KB: bounce-buffered, registered and, off
  // the cache, rendezvous transfers).
  s.phase("neighborhood", [&](UpcThread& th) -> Task<void> {
    Rng r(seed, 4, th.id());
    const std::uint64_t rows = kRows * T;
    std::vector<std::byte> buf(kMaxSpan * 4);
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < kSamples; ++i) {
      const std::uint64_t row = th.id() * kRows + r.below(kRows);
      const std::uint64_t partner =
          r.below(2) == 0 ? (row + kStencil) % rows
                          : (row + rows - kStencil) % rows;
      const std::uint64_t len = kMinSpan + r.below(kMaxSpan - kMinSpan + 1);
      const std::uint64_t start =
          std::min(partner * kCols + r.below(kCols), n_img - len);
      const std::span<std::byte> dst(buf.data(), len * 4);
      co_await memget_op(th, log, arr.img, start, dst);
      acc = digest(acc, dst);
      co_await th.compute(kSampleWork);
    }
    sums[th.id()] = mix(sums[th.id()], acc);
    co_await th.barrier();
  });

  // Field: scan the first half of the local string in chunks (a local
  // memget plus scan time), reading overhangs from the neighbours'
  // boundary regions, then mark a delimiter in the second half of the
  // same thread's string on the next node. Scans and overhangs never
  // touch the second half, so the delimiter writes cannot race with
  // them.
  s.phase("field", [&](UpcThread& th) -> Task<void> {
    Rng r(seed, 5, th.id());
    const std::uint64_t next = (th.id() + 1) % T;
    const std::uint64_t prev = (th.id() + T - 1) % T;
    const std::uint64_t chunk = kStrPer / 2 / kChunks;
    std::vector<std::byte> buf(chunk);
    std::uint64_t acc = 0;
    for (std::uint32_t tok = 0; tok < kTokens; ++tok) {
      for (std::uint32_t o = 0; o < kChunks; ++o) {
        co_await memget_op(th, log, arr.str, th.id() * kStrPer + o * chunk,
                           buf);
        acc = digest(acc, buf);
        const double jitter = 0.8 + 0.4 * r.uniform();
        co_await th.compute(sim::us(jitter * static_cast<double>(chunk) /
                                    kScanBytesPerUs));
        const std::span<std::byte> ov(buf.data(), kOverhang);
        if (r.uniform() < kOverhangProb) {
          co_await get_op(th, log, arr.str, next * kStrPer + o * kOverhang,
                          ov);
          acc = digest(acc, ov);
        }
        if (r.uniform() < kOverhangProb) {
          co_await get_op(th, log, arr.str,
                          prev * kStrPer + kStrPer - kOverhang, ov);
          acc = digest(acc, ov);
        }
      }
      const std::byte delim{'#'};
      const std::uint64_t at = (th.id() + kTpn) % T * kStrPer + kStrPer / 2 +
                               r.below(kStrPer / 2 - kOverhang);
      co_await put_op(th, log, arr.str, at, std::span(&delim, 1));
      co_await th.barrier();
    }
    sums[th.id()] = mix(sums[th.id()], acc);
  });

  MixOutputs res;
  for (std::uint64_t v : sums) res.reads = mix(res.reads, v);
  core::Runtime& rt = s.rt();
  res.memory = mix(res.memory, array_digest(rt, arr.ptr, kPtrPer, 8));
  res.memory = mix(res.memory, array_digest(rt, arr.upd, kUpdPer, 8));
  res.memory = mix(res.memory, array_digest(rt, arr.hist, kHistPer, 8));
  res.memory = mix(res.memory, array_digest(rt, arr.img, img_per, 4));
  res.memory = mix(res.memory, array_digest(rt, arr.str, kStrPer, 1));
  s.finish();
  return res;
}

Round run_dis_mix(std::uint64_t seed, SpanLog& spans, std::uint32_t parent) {
  Round round;
  round.configs = two_configs();
  const MixOutputs on =
      run_mix_config(seed, true, round.configs[0], spans, parent);
  const MixOutputs off =
      run_mix_config(seed, false, round.configs[1], spans, parent);
  if (on.memory != off.memory) {
    round.errors.push_back(
        "dis_mix_gm: final shared memory differs between cache on and off");
  }
  if (on.reads != off.reads) {
    round.errors.push_back(
        "dis_mix_gm: read checksum differs between cache on and off");
  }
  return round;
}

// --- scale_gm_512x4 ----------------------------------------------------------
// Towards paper Sec. 6 scale: 2048 UPC threads, where the O(nodes x
// threads) Runtime state already sets the host cost and memory. (At
// 2048 x 4 a round takes seconds over a 1.1 GB heap, and its host times
// spread too far between runs on a shared host to gate on.) Collective
// allocation, then a short cold-cache phase: each thread reads random 8-byte elements from
// nodes within a window around its own and copies every value it read
// into its own row of a result array homed half the machine away.

namespace scalep {
constexpr std::uint32_t kNodes = 512;
constexpr std::uint32_t kTpn = 4;
constexpr std::uint64_t kPer = 64;      // 8-byte elems per thread
constexpr std::uint32_t kReads = 16;    // reads (and result PUTs) per thread
constexpr std::uint32_t kWindow = 32;   // nodes either side of home
}  // namespace scalep

std::uint64_t scale_value(std::uint64_t seed, std::uint64_t elem) {
  return mix(seed, elem) | 1;
}

/// Reads or result slots that do not hold their initialised value.
std::uint64_t run_scale_config(std::uint64_t seed, bool cache_on,
                               ConfigRun& out, SpanLog& spans,
                               std::uint32_t parent) {
  using namespace scalep;
  core::RuntimeConfig cfg = gm_config(kNodes, kTpn);
  cfg.cache.enabled = cache_on;
  Session s(std::move(cfg), out, spans, parent);
  const std::uint32_t T = s.rt().threads();
  const std::uint64_t n = kPer * T;
  OpLog& log = out.ops;
  ArrayDesc data, res;
  std::vector<std::uint64_t> read_elem(std::uint64_t{kReads} * T);
  std::uint64_t bad = 0;

  s.setup([&](UpcThread& th) -> Task<void> {
    const ArrayDesc d = co_await th.all_alloc(n, 8, kPer);
    const ArrayDesc r = co_await th.all_alloc(kReads * T, 8, kReads);
    if (th.id() == 0) data = d, res = r;
  });
  s.setup_host([&](core::Runtime& rt) {
    std::vector<std::uint64_t> w(kPer);
    for (std::uint32_t t = 0; t < T; ++t) {
      for (std::uint64_t e = 0; e < kPer; ++e) {
        w[e] = scale_value(seed, t * kPer + e);
      }
      rt.debug_write(data, t * kPer, std::as_bytes(std::span(w)));
    }
  });

  // Row t of the result array lives on thread (t + T/2) % T.
  auto row = [T](std::uint32_t t) { return (t + T / 2) % T * kReads; };
  s.phase("cold_read", [&](UpcThread& th) -> Task<void> {
    Rng r(seed, 6, th.id());
    for (std::uint32_t i = 0; i < kReads; ++i) {
      const std::uint64_t node =
          (th.node() + kNodes - kWindow + r.below(2 * kWindow + 1)) % kNodes;
      const std::uint64_t elem =
          (node * kTpn + r.below(kTpn)) * kPer + r.below(kPer);
      read_elem[th.id() * kReads + i] = elem;
      std::uint64_t v = 0;
      co_await get_op(th, log, data, elem, bytes_of(v));
      if (v != scale_value(seed, elem)) ++bad;
      co_await put_op(th, log, res, row(th.id()) + i,
                      std::as_bytes(std::span(&v, 1)));
    }
    co_await th.barrier();
  });

  std::vector<std::uint64_t> got(kReads);
  for (std::uint32_t t = 0; t < T; ++t) {
    s.rt().debug_read(res, row(t), std::as_writable_bytes(std::span(got)));
    for (std::uint32_t i = 0; i < kReads; ++i) {
      if (got[i] != scale_value(seed, read_elem[t * kReads + i])) ++bad;
    }
  }
  s.finish();
  return bad;
}

Round run_scale(std::uint64_t seed, SpanLog& spans, std::uint32_t parent) {
  Round round;
  round.configs = two_configs();
  round.gain_by_latency = true;
  for (int c = 0; c < 2; ++c) {
    const std::uint64_t bad =
        run_scale_config(seed, c == 0, round.configs[c], spans, parent);
    if (bad != 0) {
      round.errors.push_back("scale_gm_512x4 (" + round.configs[c].label +
                             "): " + std::to_string(bad) +
                             " reads or results differ from their values");
    }
  }
  return round;
}

// --- kv_ib_fabric -----------------------------------------------------------
// Open-loop Zipf(0.99) serving of dis::KvStore on the InfiniBand fat tree
// with finite switch buffers and ECMP routing. Client c's op i is due at
// t0 + offset_c + i * interarrival; its latency counts from when it was
// due. After the last barrier a GET sweep reads every key back.

namespace kvp {
constexpr std::uint32_t kNodes = 72;  // four 18-port leaf switches
constexpr std::uint32_t kTpn = 2;
constexpr std::uint64_t kKeys = 4096;
constexpr std::uint64_t kBuckets = 16384;
constexpr double kSkew = 0.99;
constexpr double kPutShare = 0.3;
constexpr std::uint32_t kOpsPerClient = 160;
constexpr sim::Duration kInterarrival = sim::us(24.0);
constexpr std::uint32_t kPortCredits = 2;
}  // namespace kvp

struct KvOp {
  std::uint64_t key = 0;
  std::uint64_t value = 0;  ///< 0 = GET
};

struct KvInputs {
  std::vector<std::vector<KvOp>> ops;  ///< per client
  std::vector<sim::Duration> offset;   ///< per client start offset
  /// Every value any client writes for each key (preload included).
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> written;
};

std::uint64_t kv_preload_value(std::uint64_t key) { return key * 1000003; }

/// Key k is the k-th most popular. Popularity is part of the workload,
/// so where the hottest keys live does not change with the seed; the
/// seed draws each client's op stream and start offset.
KvInputs kv_inputs(std::uint64_t seed, std::uint32_t clients) {
  using namespace kvp;
  std::vector<double> cdf(kKeys);
  double h = 0.0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    h += std::pow(static_cast<double>(k + 1), -kSkew);
    cdf[k] = h;
  }
  KvInputs in;
  in.ops.resize(clients);
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    in.written[k].push_back(kv_preload_value(k));
  }
  for (std::uint32_t c = 0; c < clients; ++c) {
    Rng r(seed, 8, c);
    in.offset.push_back(r.below(kInterarrival));
    for (std::uint32_t i = 0; i < kOpsPerClient; ++i) {
      const double u = r.uniform() * h;
      const std::uint64_t rank = static_cast<std::uint64_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      KvOp op;
      op.key = std::min(rank, kKeys - 1) + 1;
      if (r.uniform() < kPutShare) {
        op.value = (static_cast<std::uint64_t>(c + 1) << 32) | (i + 1);
        in.written[op.key].push_back(op.value);
      }
      in.ops[c].push_back(op);
    }
  }
  return in;
}

struct KvOutputs {
  std::uint64_t wrong = 0;  ///< sweep GETs missing or holding a bad value
  dis::KvStoreStats stats;
};

KvOutputs run_kv_config(const KvInputs& in, bool cache_on, ConfigRun& out,
                        SpanLog& spans, std::uint32_t parent) {
  using namespace kvp;
  core::RuntimeConfig cfg;
  cfg.platform = net::make_machine("ib");
  cfg.nodes = kNodes;
  cfg.threads_per_node = kTpn;
  cfg.cache.enabled = cache_on;
  cfg.fabric.port_credits = kPortCredits;
  cfg.fabric.routing = net::RoutePolicy::kEcmp;
  Session s(std::move(cfg), out, spans, parent);
  const std::uint32_t T = s.rt().threads();
  OpLog& log = out.ops;
  std::vector<dis::KvStore> store(T);
  KvOutputs res;

  s.setup([&](UpcThread& th) -> Task<void> {
    store[th.id()] =
        co_await dis::KvStore::create(th, dis::KvStoreConfig{kBuckets, 1, 8});
    for (std::uint64_t k = th.id() + 1; k <= kKeys; k += T) {
      const dis::KvStatus st =
          co_await store[th.id()].put(th, k, kv_preload_value(k));
      log.untimed(st == dis::KvStatus::kOk);
    }
    co_await th.barrier();
  });
  s.setup_host([&](core::Runtime& rt) {
    rt.warm_address_cache(store[0].array());
    for (auto& kv : store) kv.reset_stats();
  });

  s.phase("kv_serve", [&](UpcThread& th) -> Task<void> {
    dis::KvStore& kv = store[th.id()];
    const sim::Time t0 = th.now() + in.offset[th.id()];
    const std::vector<KvOp>& ops = in.ops[th.id()];
    for (std::uint32_t i = 0; i < ops.size(); ++i) {
      const sim::Time due = t0 + i * kInterarrival;
      if (th.now() < due) co_await th.compute(due - th.now());
      log.gen_lag_ns.push_back(th.now() - due);
      const bool put = ops[i].value != 0;
      std::uint64_t v = ops[i].value;
      const dis::KvStatus st = put ? co_await kv.put(th, ops[i].key, v)
                                   : co_await kv.get(th, ops[i].key, &v);
      if (st == dis::KvStatus::kOk) {
        log.record(put ? kPut : kGet, th.id(), due, th.now());
      } else {
        log.fail();
      }
    }
    co_await th.barrier();
  });

  for (const auto& kv : store) res.stats.merge(kv.stats());
  s.check([&](UpcThread& th) -> Task<void> {
    for (std::uint64_t k = th.id() + 1; k <= kKeys; k += T) {
      std::uint64_t v = 0;
      const dis::KvStatus st = co_await store[th.id()].get(th, k, &v);
      log.untimed(st == dis::KvStatus::kOk);
      const auto& ok = in.written.at(k);
      if (st != dis::KvStatus::kOk ||
          std::find(ok.begin(), ok.end(), v) == ok.end()) {
        ++res.wrong;
      }
    }
  });
  s.finish();
  return res;
}

Round run_kv(std::uint64_t seed, SpanLog& spans, std::uint32_t parent) {
  Round round;
  round.configs = two_configs();
  round.gain_by_latency = true;
  const KvInputs in = kv_inputs(seed, kvp::kNodes * kvp::kTpn);
  for (int c = 0; c < 2; ++c) {
    const KvOutputs o = run_kv_config(in, c == 0, round.configs[c], spans,
                                      parent);
    if (o.wrong != 0) {
      round.errors.push_back("kv_ib_fabric (" + round.configs[c].label +
                             "): " + std::to_string(o.wrong) +
                             " keys missing or holding an unwritten value");
    }
    if (c == 0) {
      round.layer["kv.probes"] = static_cast<double>(o.stats.probes);
      round.layer["kv.cas_lost"] = static_cast<double>(o.stats.cas_lost);
      round.layer["kv.lock_fallbacks"] =
          static_cast<double>(o.stats.lock_fallbacks);
      round.layer["kv.tier_remote"] = static_cast<double>(o.stats.tier_remote);
    }
  }
  return round;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "dis_mix_gm" || name == "scale_gm_512x4" ||
         name == "kv_ib_fabric";
}

const std::vector<std::string>& phase_names() {
  static const std::vector<std::string> names = {
      "pointer", "update", "neighborhood", "field", "cold_read", "kv_serve"};
  return names;
}

Round run_round(const std::string& name, std::uint64_t seed, SpanLog& spans) {
  const std::uint32_t span = spans.host_begin("round", 0);
  Round r;
  if (name == "dis_mix_gm") r = run_dis_mix(seed, spans, span);
  if (name == "scale_gm_512x4") r = run_scale(seed, spans, span);
  if (name == "kv_ib_fabric") r = run_kv(seed, spans, span);
  spans.host_end(span);
  return r;
}

}  // namespace perfbench
