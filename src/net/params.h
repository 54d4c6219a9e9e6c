// Platform timing/protocol parameters for the simulated machines.
//
// Two presets reproduce the paper's evaluation environments (Sec. 4.1/4.2):
//  * mare_nostrum_gm() — JS21 blades, Myrinet 3-level crossbar, GM driver.
//  * power5_lapi()     — Power5 SMPs, IBM HPS switch ("8x the rated
//                        bandwidth of Myrinet"), LAPI messaging.
// Constants are calibrated against the paper's reported numbers: 4-8 us
// small-message roundtrips, ~65 us uncached 8 KB GM GET (Fig. 7), the
// 30%/16% small-GET gains (Fig. 6), and the negative LAPI RDMA-PUT region.
//
// A third preset models a fabric beyond the paper's evaluation:
//  * infiniband_verbs() — 4X InfiniBand, fat tree, verbs RC queue pairs,
//    calibrated against Liu et al. (MPICH2 over InfiniBand with RDMA
//    support) and Novakovic et al. (Storm). See docs/MACHINES.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/time.h"

namespace xlupc::net {

enum class TransportKind : std::uint8_t { kGm, kLapi, kIb };

enum class TopologyKind : std::uint8_t {
  kMyrinetCrossbar,  // 3-level crossbar: 1 / 3 / 5 hops
  kFlatSwitch,       // single-stage switch: 1 hop
  kFatTree,          // leaf/pod/core fat tree: 1 / 3 / 5 hops
};

struct PlatformParams {
  std::string name;
  TransportKind kind = TransportKind::kGm;
  TopologyKind topology = TopologyKind::kFlatSwitch;

  // --- wire ---
  double link_bw = 250e6;                   ///< bytes/sec per link
  sim::Duration wire_base = sim::us(0.6);   ///< fixed one-way latency
  sim::Duration hop_latency = sim::us(0.35);///< added per switch hop
  std::size_t header_bytes = 64;            ///< protocol header on the wire

  // --- host CPU costs (software messaging path) ---
  sim::Duration send_overhead = sim::us(1.0);  ///< initiator per-message CPU
  sim::Duration recv_overhead = sim::us(0.7);  ///< receive dispatch CPU
  sim::Duration svd_lookup = sim::us(0.8);     ///< handle -> address at home
  sim::Duration cache_update = sim::us(0.08);  ///< insert piggybacked base
  sim::Duration cache_lookup = sim::us(0.05);  ///< initiator cache probe
  sim::Duration local_access = sim::us(0.05);  ///< shared-local fast path
  double copy_bw = 0.6e9;                      ///< host memcpy bytes/sec
  sim::Duration copy_overhead = sim::us(0.25); ///< fixed per-copy cost

  // --- NIC ---
  sim::Duration nic_tx_overhead = sim::us(0.45);  ///< per-message NIC proc.
  sim::Duration dma_engine_overhead = sim::us(0.35); ///< RDMA engine per op

  // --- RDMA path ---
  sim::Duration rdma_get_setup = sim::us(0.7);  ///< post descriptor (GET)
  sim::Duration rdma_put_setup = sim::us(0.7);  ///< post descriptor (PUT)
  sim::Duration rdma_completion = sim::us(0.4); ///< completion detection

  // --- protocol thresholds ---
  std::size_t eager_limit = 16 * 1024;  ///< <= : copy through bounce buffers
  /// Eager GET replies copy at both ends up to this size; between this and
  /// eager_limit only the target copies (receive side lands in place).
  std::size_t both_copy_limit = 16 * 1024;
  /// RDMA transfers up to this size stage through preregistered bounce
  /// buffers (one extra host copy); larger ones register the user buffer
  /// (registration cache) and run zero-copy.
  std::size_t rdma_bounce_limit = 512;

  // --- memory registration ---
  sim::Duration reg_base = sim::us(18.0);    ///< fixed registration cost
  double reg_bw = 12e9;                      ///< bytes/sec registration rate
  sim::Duration dereg_base = sim::us(30.0);  ///< deregistration (lazy)
  std::size_t max_bytes_per_handle = 0;      ///< 0 = unlimited
  std::size_t max_dmaable_bytes = 0;         ///< 0 = unlimited

  // --- verbs queue-pair model (IB only; inert on GM/LAPI) ---
  /// Payloads at or below this ride inside the work request itself
  /// (IBV_SEND_INLINE): no send-side copy, immediate local completion.
  std::size_t inline_limit = 0;
  /// Send-queue depth per reliable-connection queue pair; posting to a
  /// full queue stalls the caller until a completion retires a WQE.
  /// 0 = unbounded (non-verbs transports).
  std::uint32_t sq_depth = 0;
  /// RNR-NAK retry budget: how many times a rendezvous initiator re-sends
  /// after the target reports "receiver not ready" (transient registration
  /// failure) before degrading to bounce-buffer staging.
  std::uint32_t rnr_retry_limit = 0;
  /// Receiver-not-ready backoff timer between RNR retries.
  sim::Duration rnr_backoff = 0;

  // --- behaviour flags ---
  /// Selects the CPU that runs AM handlers. True when the transport
  /// makes progress independently of the target CPU's application work:
  /// handlers run on the node's comm CPU (LAPI: dedicated communication
  /// processor; IB: the verbs progress engine). False for GM: handlers
  /// run on, and contend with computation for, the target application
  /// core, so communication does not overlap computation (Sec. 4.6).
  bool comm_comp_overlap = false;
  /// Default for "use the address cache for PUT" — the paper disables it
  /// on LAPI after the Fig. 6 analysis (Sec. 4.3).
  bool put_cache_default = true;
  /// True when one-sided transfers complete entirely on the NIC's DMA
  /// engine (verbs READ/WRITE). Gates the trace layer's distinct
  /// offloaded-RDMA marker; false keeps GM/LAPI traces byte-identical
  /// to pre-IB builds.
  bool rdma_offload = false;

  // --- intra-node (shared-memory) transfers ---
  double shm_copy_bw = 2.5e9;
  sim::Duration shm_latency = sim::us(0.25);

  std::size_t max_cores_per_node = 4;

  /// Serialization time of `bytes` on the link.
  sim::Duration serialize(std::uint64_t bytes) const {
    return sim::transfer_time(bytes, link_bw);
  }
  /// Host copy time for `bytes`.
  sim::Duration copy_time(std::uint64_t bytes) const {
    return copy_overhead + sim::transfer_time(bytes, copy_bw);
  }
  /// Registration cost for `bytes` of new registration.
  sim::Duration reg_time(std::uint64_t new_bytes, std::size_t new_handles) const {
    if (new_handles == 0 && new_bytes == 0) return 0;
    return reg_base * new_handles + sim::transfer_time(new_bytes, reg_bw);
  }
};

/// MareNostrum: Myrinet/GM, 4 cores (PPC 970-MP) per JS21 blade.
PlatformParams mare_nostrum_gm();

/// Power5/AIX cluster: LAPI over the IBM High-Performance Switch.
PlatformParams power5_lapi();

/// 4X InfiniBand cluster: verbs RC queue pairs over a fat tree, with true
/// NIC-offloaded one-sided READ/WRITE (docs/MACHINES.md).
PlatformParams infiniband_verbs();

/// Look up a preset by transport kind (convenience for sweeps).
PlatformParams preset(TransportKind kind);

}  // namespace xlupc::net
