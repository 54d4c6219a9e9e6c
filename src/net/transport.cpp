#include "net/transport.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "net/ib/verbs.h"

namespace xlupc::net {

using sim::Duration;
using sim::Task;

Transport::Transport(Machine& machine, AmTarget& target)
    : machine_(machine), target_(target), protocol_(machine) {
  reg_caches_.reserve(machine.nodes());
  for (std::uint32_t n = 0; n < machine.nodes(); ++n) {
    reg_caches_.emplace_back(machine.params().max_dmaable_bytes);
  }
  if (machine.params().kind == TransportKind::kIb) {
    verbs_ = std::make_unique<ib::Verbs>(machine, protocol_, stats_);
  }
}

Transport::~Transport() = default;

void Transport::reset_stats() {
  stats_ = TransportStats{};
  protocol_.reset_stats();
  for (auto& rc : reg_caches_) rc.reset_counters();
}

// ------------------------------------------------- statistics views ---

const TransportStats& Transport::stats() const noexcept {
  // The reliability counters live in the shared ProtocolEngine (one
  // state machine for GM and LAPI alike); merge them into the struct
  // view on every read so the two can never drift.
  merged_stats_ = stats_;
  const ProtocolStats& ps = protocol_.stats();
  merged_stats_.retransmits = ps.retransmits;
  merged_stats_.timeouts = ps.timeouts;
  merged_stats_.dropped_msgs = ps.dropped_msgs;
  merged_stats_.corrupt_msgs = ps.corrupt_msgs;
  merged_stats_.duplicate_msgs = ps.duplicate_msgs;
  merged_stats_.backoff_ns = ps.backoff_ns;
  merged_stats_.nic_stall_waits = ps.nic_stall_waits;
  merged_stats_.wire_bytes += ps.retx_wire_bytes;
  merged_stats_.link_down_drops = ps.link_down_drops;
  merged_stats_.failover_routes = ps.failover_routes;
  merged_stats_.peer_dead_drops = ps.peer_dead_drops;
  merged_stats_.link_resyncs = ps.link_resyncs;
  return merged_stats_;
}

void Transport::peer_dead(NodeId node) {
  protocol_.declare_peer_dead(node);
  if (verbs_) verbs_->fence_peer(node);
}

void Transport::on_link_down(NodeId a, NodeId b) {
  if (verbs_) verbs_->on_link_down(a, b);
}

AmTarget::BatchServe AmTarget::serve_batch(NodeId target, RdmaBatch&& batch) {
  // Default routing: each member goes through the ordinary AM handlers
  // with want_base=false — batch members never populate the initiator's
  // remote address cache, so the one-sided RDMA tiers are unaffected.
  BatchServe out;
  for (auto& op : batch.ops) {
    if (op.is_get) {
      GetRequest req;
      req.svd_handle = op.svd_handle;
      req.offset = op.offset;
      req.len = op.len;
      req.want_base = false;
      req.target_core = op.target_core;
      out.get_data.push_back(std::move(serve_get(target, req).data));
    } else {
      PutRequest req;
      req.svd_handle = op.svd_handle;
      req.offset = op.offset;
      req.data = std::move(op.data);
      req.want_base = false;
      req.target_core = op.target_core;
      serve_put(target, std::move(req));
    }
  }
  return out;
}

std::uint64_t AmTarget::serve_amo(NodeId /*target*/, const AmoRequest& /*req*/) {
  // Only targets that actually serve atomics (the runtime) override
  // this; reaching the default is a wiring bug, not a runtime event.
  throw std::logic_error("AmTarget::serve_amo: target does not serve atomics");
}

void TransportStats::fold_into(sim::MetricsRegistry& reg, bool faults_enabled,
                               bool coalescing_enabled,
                               bool ib_enabled,
                               bool fabric_enabled,
                               bool amo_enabled) const {
  reg.set("transport.gets.eager", am_gets);
  reg.set("transport.gets.rendezvous", rendezvous_gets);
  reg.set("transport.puts.eager", am_puts);
  reg.set("transport.puts.rendezvous", rendezvous_puts);
  reg.set("transport.rdma.gets", rdma_gets);
  reg.set("transport.rdma.puts", rdma_puts);
  reg.set("transport.rdma.naks", rdma_naks);
  reg.set("transport.control_msgs", control_msgs);
  reg.set("transport.wire_bytes", wire_bytes);
  // Folded only when the CoalescingEngine is enabled, so coalescing-off
  // reports stay byte-identical to builds that predate the batch layer.
  if (coalescing_enabled) {
    reg.set("transport.batch_msgs", batch_msgs);
    reg.set("transport.batched_gets", batched_gets);
    reg.set("transport.batched_puts", batched_puts);
  }
  // Folded only when the run issued atomics, so atomics-free reports
  // stay byte-identical to builds that predate the AMO verbs.
  if (amo_enabled) {
    reg.set("transport.amos", amo_msgs);
    if (ib_enabled) reg.set("transport.ib.nic_atomics", nic_atomics);
  }
  // Folded only for the IB transport, so GM/LAPI reports stay
  // byte-identical to builds that predate the verbs backend.
  if (ib_enabled) {
    reg.set("transport.ib.qp_posts", qp_posts);
    reg.set("transport.ib.sq_stalls", sq_stalls);
    reg.set("transport.ib.inline_sends", inline_sends);
    reg.set("transport.ib.rnr_naks", rnr_naks);
    reg.set("transport.ib.rnr_retries", rnr_retries);
  }
  // Folded only when a FaultPlan is enabled, so fault-free reports stay
  // byte-identical to builds that predate the fault layer.
  if (faults_enabled) {
    reg.set("fault.dropped_msgs", dropped_msgs);
    reg.set("fault.corrupt_msgs", corrupt_msgs);
    reg.set("fault.duplicate_msgs", duplicate_msgs);
    reg.set("fault.nic_stall_waits", nic_stall_waits);
    reg.set("reliability.retransmits", retransmits);
    reg.set("reliability.timeouts", timeouts);
    reg.set("reliability.bounce_fallbacks", bounce_fallbacks);
    reg.set_gauge("reliability.backoff_us", sim::to_us(backoff_ns));
  }
  // Folded only when the plan schedules link-down windows or crashes, so
  // message-fault-only reports stay byte-identical to builds that
  // predate the whole-fabric failure model (docs/FAULTS.md).
  if (fabric_enabled) {
    reg.set("fault.fabric.link_down_drops", link_down_drops);
    reg.set("fault.fabric.failover_routes", failover_routes);
    reg.set("fault.fabric.peer_dead_drops", peer_dead_drops);
    reg.set("fault.fabric.link_resyncs", link_resyncs);
    if (ib_enabled) {
      reg.set("fault.fabric.qp_errors", qp_errors);
      reg.set("fault.fabric.qp_reconnects", qp_reconnects);
    }
  }
}

Duration Transport::reg_cache_cost(NodeId node, Addr addr, std::size_t len) {
  const auto& p = machine_.params();
  const auto rl = reg_caches_[node].ensure(addr, len);
  Duration cost = 0;
  if (rl.bounced) {
    // Region exceeds the whole DMAable budget: registration is
    // impossible, so the transfer degrades to staging through bounce
    // buffers — one extra host copy instead of an aborted (or cap-
    // overshooting) registration.
    cost += bounce_cost(len);
  } else if (!rl.hit) {
    cost += p.reg_time(rl.registered, 1);
  }
  return cost + p.dereg_base * rl.evicted_regions;  // lazy dereg bill
}

Task<void> Transport::charge_reg_cache(sim::Resource& cpu, NodeId node,
                                       Addr addr, std::size_t len) {
  const Duration cost = reg_cache_cost(node, addr, len);
  if (cost != 0) co_await cpu.use(cost);
}

Task<void> Transport::ensure_local_registered(Initiator from, Addr key,
                                              std::size_t len) {
  co_await charge_reg_cache(machine_.core(from.node, from.core), from.node,
                            key, len);
}

// Verbs hooks. On IB every initiator path posts one WQE per request and
// retires it on its last initiator step (Verbs::complete), or flushes it
// when a leg throws (Verbs::flush), so no exit path leaks a send-queue
// slot. Two-sided legs post after the send_overhead charge, one-sided
// legs and NIC atomics before their descriptor setup charge. GM/LAPI pay
// one null-pointer test per hook and nothing else.

// ---------------------------------------------------------------- GET ---

Task<GetReply> Transport::get(Initiator from, NodeId dst, GetRequest req) {
  if (req.len <= machine_.params().eager_limit) {
    ++stats_.am_gets;
    return get_eager(from, dst, std::move(req));
  }
  ++stats_.rendezvous_gets;
  return get_rendezvous(from, dst, std::move(req));
}

Task<GetReply> Transport::get_eager(Initiator from, NodeId dst,
                                    GetRequest req) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  auto& core = machine_.core(from.node, from.core);

  // Initiator: build and post the AM request (Fig. 5: "send Active Msg").
  // A verbs request is header-only, so its WQE carries it inline.
  co_await core.use(p.send_overhead);
  if (verbs_) co_await verbs_->post(from.node, dst);
  try {
    co_await machine_.nic_tx(from.node).use(tx_cost(0));
    co_await wire(from.node, dst, 0);

    // Target: header handler translates the SVD handle, optionally pins
    // the object, and copies the data into a bounce buffer.
    auto& hcpu = handler_cpu(dst, req.target_core);
    co_await hcpu.acquire();
    co_await sim.delay(scaled(dst, p.recv_overhead + p.svd_lookup));
    auto serve = target_.serve_get(dst, req);
    co_await sim.delay(scaled(dst, pin_cost(serve) + p.copy_time(req.len)));
    hcpu.release();

    // Reply carrying the data (plus the piggybacked base address).
    co_await machine_.nic_tx(dst).use(tx_cost(req.len));
    co_await wire(dst, from.node, req.len);

    // Initiator: small replies land in a preposted bounce buffer and are
    // copied out, larger ones land in place.
    Duration recv_cost = completion_cost();
    if (req.len <= p.both_copy_limit) recv_cost += p.copy_time(req.len);
    co_await core.use(recv_cost);
    if (verbs_) verbs_->complete(from.node, dst);
    co_return GetReply{std::move(serve.data), serve.base};
  } catch (...) {
    if (verbs_) verbs_->flush(from.node, dst);
    throw;
  }
}

Task<GetReply> Transport::get_rendezvous(Initiator from, NodeId dst,
                                         GetRequest req) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  auto& core = machine_.core(from.node, from.core);

  // Initiator: pre-register the private receive buffer for zero-copy
  // delivery (registration cache, lazy deregistration), post the request.
  co_await core.use(p.send_overhead);
  if (req.local_buf != kNullAddr) {
    co_await charge_reg_cache(core, from.node, req.local_buf, req.len);
  }
  if (verbs_) co_await verbs_->post(from.node, dst);
  try {
    co_await machine_.nic_tx(from.node).use(tx_cost(0));
    co_await wire(from.node, dst, 0);

    // Target: translate, register the source region, directed zero-copy
    // send. On IB a transient registration failure is receiver-not-ready:
    // the request is NAKed and re-sent, up to the retry budget, then
    // staged through bounce buffers. The handler runs exactly once, in
    // the round that admits the request.
    AmTarget::GetServe serve;
    for (std::uint32_t attempt = 0;; ++attempt) {
      auto& hcpu = handler_cpu(dst, req.target_core);
      co_await hcpu.acquire();
      co_await sim.delay(scaled(dst, p.recv_overhead + p.svd_lookup));
      const bool pin_fail = rnr_pin_fails(dst);
      if (pin_fail && attempt < p.rnr_retry_limit) {
        hcpu.release();
        co_await rnr_retry(from, dst);
        continue;
      }
      serve = target_.serve_get(dst, req);
      // GM/LAPI bill the pinning before the registration-cache lookup,
      // IB bills both in one step.
      Duration cost = pin_cost(serve);
      if (!verbs_) {
        co_await sim.delay(scaled(dst, cost));
        cost = 0;
      }
      cost += pin_fail ? bounce_cost(req.len)
                       : reg_cache_cost(dst, serve.src_addr, req.len);
      co_await sim.delay(scaled(dst, cost));
      hcpu.release();
      break;
    }

    co_await machine_.nic_tx(dst).use(tx_cost(req.len));
    co_await wire(dst, from.node, req.len);

    // Zero-copy landing: completion notification only.
    co_await core.use(completion_cost());
    if (verbs_) verbs_->complete(from.node, dst);
    co_return GetReply{std::move(serve.data), serve.base};
  } catch (...) {
    if (verbs_) verbs_->flush(from.node, dst);
    throw;
  }
}

Task<void> Transport::rnr_retry(Initiator from, NodeId dst) {
  const auto& p = machine_.params();
  auto& core = machine_.core(from.node, from.core);
  ++stats_.rnr_naks;
  // RNR NAK frame back; the NAKed WQE completes in error at the
  // initiator, which waits out the RNR timer and re-posts the request.
  co_await machine_.nic_tx(dst).use(tx_cost(0));
  co_await wire(dst, from.node, 0);
  co_await core.use(p.rdma_completion);
  verbs_->complete(from.node, dst);
  co_await machine_.simulator().delay(p.rnr_backoff);
  ++stats_.rnr_retries;
  co_await core.use(p.send_overhead);
  co_await verbs_->post(from.node, dst);
  co_await machine_.nic_tx(from.node).use(tx_cost(0));
  co_await wire(from.node, dst, 0);
}

// ---------------------------------------------------------------- PUT ---

Task<void> Transport::put(Initiator from, NodeId dst, PutRequest req,
                          PutAckHook on_ack) {
  const auto& p = machine_.params();
  const std::size_t len = req.data.size();
  // Verbs payloads up to inline_limit ride inside the WQE itself.
  const bool inline_send = verbs_ && len <= p.inline_limit;
  if (!inline_send && len > p.eager_limit) {
    ++stats_.rendezvous_puts;
    return put_rendezvous(from, dst, std::move(req), std::move(on_ack));
  }
  ++stats_.am_puts;
  if (inline_send) ++stats_.inline_sends;
  return put_eager(from, dst, std::move(req), std::move(on_ack), inline_send);
}

Task<void> Transport::put_eager(Initiator from, NodeId dst, PutRequest req,
                                PutAckHook on_ack, bool inline_send) {
  const auto& p = machine_.params();
  const std::size_t len = req.data.size();

  // Initiator: copy into a send bounce buffer (frees the user buffer —
  // local completion; an inline send needs no copy), then inject.
  Duration send_cost = p.send_overhead;
  if (!inline_send) send_cost += p.copy_time(len);
  co_await machine_.core(from.node, from.core).use(send_cost);
  if (verbs_) co_await verbs_->post(from.node, dst);
  co_await machine_.nic_tx(from.node).use(tx_cost(len));
  stats_.wire_bytes += p.header_bytes + len;

  // The remote half proceeds in the background; PUT is locally complete.
  spawn_put_remote(from, dst, std::move(req), std::move(on_ack));
}

void Transport::spawn_put_remote(Initiator from, NodeId dst, PutRequest req,
                                 PutAckHook on_ack) {
  machine_.simulator().spawn(
      put_remote(from, dst, std::move(req), std::move(on_ack)));
}

Task<void> Transport::put_remote(Initiator from, NodeId dst, PutRequest req,
                                 PutAckHook on_ack) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  const std::size_t len = req.data.size();

  try {
    co_await protocol_.deliver(from.node, dst, &machine_.nic_tx(from.node),
                               tx_cost(len), p.header_bytes + len);
  } catch (const TransportTimeout&) {
    // Detached half: the initiator already completed locally. Complete the
    // operation (without a piggybacked base) so fences cannot deadlock;
    // the loss is visible in stats().timeouts.
    if (verbs_) verbs_->flush(from.node, dst);
    if (on_ack) on_ack(PutAck{});
    co_return;
  }

  auto& hcpu = handler_cpu(dst, req.target_core);
  co_await hcpu.acquire();
  co_await sim.delay(
      scaled(dst, p.recv_overhead + p.svd_lookup + p.copy_time(len)));
  auto serve = target_.serve_put(dst, std::move(req));
  co_await sim.delay(scaled(dst, pin_cost(serve)));
  hcpu.release();

  // Acknowledgement (may carry the piggybacked base address).
  co_await machine_.nic_tx(dst).use(tx_cost(0));
  try {
    co_await wire(dst, from.node, 0);
  } catch (const TransportTimeout&) {
    if (verbs_) verbs_->flush(from.node, dst);
    if (on_ack) on_ack(PutAck{});
    co_return;
  }
  co_await machine_.core(from.node, from.core).use(completion_cost());
  if (verbs_) verbs_->complete(from.node, dst);
  if (on_ack) on_ack(PutAck{serve.base});
}

Task<void> Transport::put_rendezvous(Initiator from, NodeId dst,
                                     PutRequest req, PutAckHook on_ack) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  auto& core = machine_.core(from.node, from.core);
  const std::size_t len = req.data.size();

  // RTS (no data); its WQE retires when the CTS arrives.
  co_await core.use(p.send_overhead);
  if (verbs_) co_await verbs_->post(from.node, dst);
  AmTarget::PutServe serve;
  try {
    co_await machine_.nic_tx(from.node).use(tx_cost(0));
    co_await wire(from.node, dst, 0);

    // Target: translate + register the destination region, with the
    // same receiver-not-ready admission as the rendezvous GET.
    for (std::uint32_t attempt = 0;; ++attempt) {
      auto& hcpu = handler_cpu(dst, req.target_core);
      co_await hcpu.acquire();
      co_await sim.delay(scaled(dst, p.recv_overhead + p.svd_lookup));
      const bool pin_fail = rnr_pin_fails(dst);
      if (pin_fail && attempt < p.rnr_retry_limit) {
        hcpu.release();
        co_await rnr_retry(from, dst);
        continue;
      }
      serve = target_.serve_put_rendezvous(dst, req, len);
      Duration cost = pin_cost(serve);
      if (!verbs_) {
        co_await sim.delay(scaled(dst, cost));
        cost = 0;
      }
      cost += pin_fail ? bounce_cost(len)
                       : reg_cache_cost(dst, serve.dst_addr, len);
      co_await sim.delay(scaled(dst, cost));
      hcpu.release();
      break;
    }

    // CTS back to the initiator.
    co_await machine_.nic_tx(dst).use(tx_cost(0));
    co_await wire(dst, from.node, 0);
    co_await core.use(completion_cost());
  } catch (...) {
    if (verbs_) verbs_->flush(from.node, dst);
    throw;
  }
  if (verbs_) verbs_->complete(from.node, dst);

  // Stream the payload zero-copy; local completion when the NIC has
  // drained the user buffer.
  if (req.local_buf != kNullAddr) {
    co_await charge_reg_cache(core, from.node, req.local_buf, len);
  }
  if (verbs_) co_await verbs_->post(from.node, dst);
  co_await machine_.nic_tx(from.node).use(tx_cost(len));
  stats_.wire_bytes += p.header_bytes + len;

  PutAck ack{serve.base};
  machine_.simulator().spawn(
      put_payload_remote(from, dst, std::move(req), ack, std::move(on_ack)));
}

Task<void> Transport::put_payload_remote(Initiator from, NodeId dst,
                                         PutRequest req, PutAck ack,
                                         PutAckHook on_ack) {
  const std::size_t len = req.data.size();
  try {
    co_await protocol_.deliver(from.node, dst, &machine_.nic_tx(from.node),
                               tx_cost(len),
                               machine_.params().header_bytes + len);
  } catch (const TransportTimeout&) {
    if (verbs_) verbs_->flush(from.node, dst);
    if (on_ack) on_ack(PutAck{});
    co_return;
  }
  // Data lands via DMA into the registered destination — no target CPU.
  target_.deliver_put_payload(dst, req.svd_handle, req.offset,
                              std::move(req.data));
  co_await machine_.core(from.node, from.core).use(completion_cost());
  if (verbs_) verbs_->complete(from.node, dst);
  if (on_ack) on_ack(ack);
}

// --------------------------------------------------------------- RDMA ---

Task<RdmaGetResult> Transport::rdma_get(Initiator from, NodeId dst, Addr raddr,
                                        std::uint32_t len) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  auto& core = machine_.core(from.node, from.core);

  if (verbs_) co_await verbs_->post(from.node, dst);
  ++stats_.rdma_gets;
  RdmaGetResult result;
  try {
    // Post the read descriptor; the initiator NIC sends it to the target.
    co_await core.use(p.rdma_get_setup);
    co_await machine_.nic_dma(from.node).use(dma_cost(0));
    co_await dma_wire(from.node, dst, 0);

    // Target NIC DMA engine reads pinned memory and streams it back — the
    // remote CPU is not involved at all.
    auto& dma = machine_.nic_dma(dst);
    co_await dma.acquire();
    const RdmaWindow win = target_.rdma_memory(dst, raddr, len);
    if (!win.ok()) {
      // NAK: window not pinned. Small control frame back.
      co_await sim.delay(p.dma_engine_overhead);
      dma.release();
      ++stats_.rdma_naks;
      co_await protocol_.deliver(dst, from.node, &dma, p.dma_engine_overhead,
                                 0);
      result.nak = win.nak;
    } else {
      result.data.assign(win.memory, win.memory + len);
      co_await sim.delay(dma_cost(len));
      dma.release();
      co_await dma_wire(dst, from.node, len);
    }
    // Completion detection at the initiator.
    co_await core.use(p.rdma_completion);
  } catch (...) {
    if (verbs_) verbs_->flush(from.node, dst);
    throw;
  }
  if (verbs_) verbs_->complete(from.node, dst);
  co_return result;
}

Task<RdmaPutResult> Transport::rdma_put(Initiator from, NodeId dst, Addr raddr,
                                        Bytes data, DoneHook on_done) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  auto& core = machine_.core(from.node, from.core);
  const std::size_t len = data.size();

  if (verbs_) co_await verbs_->post(from.node, dst);
  ++stats_.rdma_puts;
  RdmaPutResult result;
  try {
    const RdmaWindow win = target_.rdma_memory(dst, raddr, len);
    if (!win.ok()) {
      // NAK discovered after a descriptor roundtrip.
      ++stats_.rdma_naks;
      co_await core.use(p.rdma_put_setup);
      if (!machine_.faults().enabled() && !machine_.fabric().enabled()) {
        co_await sim.delay(machine_.latency(from.node, dst) +
                           machine_.latency(dst, from.node));
      } else {
        co_await protocol_.deliver(from.node, dst,
                                   &machine_.nic_dma(from.node),
                                   p.dma_engine_overhead, 0);
        co_await protocol_.deliver(dst, from.node, &machine_.nic_dma(dst),
                                   p.dma_engine_overhead, 0);
      }
      co_await core.use(p.rdma_completion);
      result.nak = win.nak;
    } else {
      co_await core.use(p.rdma_put_setup);
      // Local completion when the DMA engine has drained the source
      // buffer; the WRITE WQE retires then, the landing needs no slot.
      co_await machine_.nic_dma(from.node).use(dma_cost(len));
      stats_.wire_bytes += p.header_bytes + len;
      sim.spawn(rdma_put_landing(from, dst, win.memory, std::move(data),
                                 std::move(on_done)));
    }
  } catch (...) {
    if (verbs_) verbs_->flush(from.node, dst);
    throw;
  }
  if (verbs_) verbs_->complete(from.node, dst);
  co_return result;
}

Task<void> Transport::rdma_put_landing(Initiator from, NodeId dst,
                                       std::byte* dst_mem, Bytes data,
                                       DoneHook on_done) {
  const auto& p = machine_.params();
  try {
    co_await protocol_.deliver(from.node, dst, &machine_.nic_dma(from.node),
                               dma_cost(data.size()),
                               p.header_bytes + data.size());
  } catch (const TransportTimeout&) {
    // Data never landed; complete locally so fences cannot deadlock. The
    // loss is visible in stats().timeouts.
    if (on_done) on_done();
    co_return;
  }
  std::copy(data.begin(), data.end(), dst_mem);
  if (on_done) on_done();
}

// ------------------------------------------------------------ control ---

Task<void> Transport::control(Initiator from, NodeId dst, ControlMsg msg) {
  ++stats_.control_msgs;
  const auto& p = machine_.params();

  co_await machine_.core(from.node, from.core).use(p.send_overhead);
  co_await machine_.nic_tx(from.node).use(tx_cost(kControlBytes));
  co_await wire(from.node, dst, kControlBytes);

  auto& hcpu = handler_cpu(dst, 0);
  co_await hcpu.use(scaled(dst, p.recv_overhead));
  target_.serve_control(dst, from.node, msg);
}

// ------------------------------------------------------------ atomics ---

Task<AmoResult> Transport::amo(Initiator from, NodeId dst, AmoRequest req) {
  if (verbs_ && req.raddr != kNullAddr) {
    return amo_nic(from, dst, std::move(req));
  }
  return amo_handler(from, dst, std::move(req));
}

Task<AmoResult> Transport::amo_handler(Initiator from, NodeId dst,
                                       AmoRequest req) {
  // AM-handler lowering (GM/LAPI and the IB cold-cache fallback): a
  // small request AM serviced on the handler CPU at the home node. The
  // handler CPU's mutual exclusion is what makes the read-modify-write
  // indivisible, and because the handler only runs after deliver() has
  // accepted the leg — the ProtocolEngine's sequence window suppresses
  // duplicated or retransmitted copies first — a FAA applies exactly
  // once however many times its request crosses the wire.
  ++stats_.amo_msgs;
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();

  co_await machine_.core(from.node, from.core).use(p.send_overhead);
  co_await machine_.nic_tx(from.node).use(tx_cost(kAmoBytes));
  co_await wire(from.node, dst, kAmoBytes);

  // Home node: translate the handle and apply the verb on the handler
  // CPU — serialized against every other AM, so concurrent atomics from
  // any number of initiators linearize here.
  auto& hcpu = handler_cpu(dst, req.target_core);
  co_await hcpu.acquire();
  co_await sim.delay(scaled(dst, p.recv_overhead + p.svd_lookup));
  const std::uint64_t old = target_.serve_amo(dst, req);
  hcpu.release();

  // Reply carrying the old value.
  co_await machine_.nic_tx(dst).use(tx_cost(sizeof(old)));
  co_await wire(dst, from.node, sizeof(old));
  co_await machine_.core(from.node, from.core).use(p.recv_overhead);
  co_return AmoResult{RdmaNak::kNone, old, /*offloaded=*/false};
}

Task<AmoResult> Transport::amo_nic(Initiator from, NodeId dst,
                                   AmoRequest req) {
  // NIC-offloaded verbs atomic (fetch-and-add / compare-and-swap WQE):
  // the target's DMA engine performs the fetch-modify-write against
  // pinned memory — no target CPU, neither application core nor progress
  // engine. The DMA engine's mutual exclusion is the HCA's atomicity
  // guarantee; the request leg rides the ProtocolEngine's sequence
  // window, so a retransmitted request can never double-apply.
  ++stats_.amo_msgs;
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  auto& core = machine_.core(from.node, from.core);

  co_await verbs_->post(from.node, dst);
  AmoResult result;
  try {
    co_await core.use(p.rdma_get_setup);
    co_await machine_.nic_dma(from.node).use(dma_cost(kAmoBytes));
    co_await dma_wire(from.node, dst, kAmoBytes);

    auto& dma = machine_.nic_dma(dst);
    co_await dma.acquire();
    const RdmaWindow win =
        target_.rdma_memory(dst, req.raddr, sizeof(std::uint64_t));
    if (!win.ok()) {
      // NAK: window not pinned. Small control frame back; the caller
      // invalidates its cache entry and retries through the AM lowering.
      co_await sim.delay(p.dma_engine_overhead);
      dma.release();
      ++stats_.rdma_naks;
      co_await protocol_.deliver(dst, from.node, &dma, p.dma_engine_overhead,
                                 0);
      result.nak = win.nak;
    } else {
      std::uint64_t old = 0;
      std::memcpy(&old, win.memory, sizeof(old));
      const std::uint64_t next =
          req.verb == AmoVerb::kFaa ? old + req.operand
                                    : (old == req.compare ? req.operand : old);
      std::memcpy(win.memory, &next, sizeof(next));
      ++stats_.nic_atomics;
      co_await sim.delay(dma_cost(sizeof(old)));
      dma.release();
      co_await dma_wire(dst, from.node, sizeof(old));
      result.value = old;
      result.offloaded = true;
    }
    co_await core.use(p.rdma_completion);
  } catch (...) {
    verbs_->flush(from.node, dst);
    throw;
  }
  verbs_->complete(from.node, dst);
  co_return result;
}

// -------------------------------------------------- aggregated batches ---

Task<RdmaBatchResult> Transport::rdma_batch(Initiator from, NodeId dst,
                                            RdmaBatch batch) {
  ++stats_.batch_msgs;
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();

  std::size_t put_bytes = 0, get_bytes = 0;
  Duration unpack = 0;  // per-leg unpack cost at the target
  for (const auto& op : batch.ops) {
    if (op.is_get) {
      ++stats_.batched_gets;
      get_bytes += op.len;
    } else {
      ++stats_.batched_puts;
      put_bytes += op.data.size();
    }
    unpack += p.svd_lookup + p.copy_time(op.len);
  }
  const std::size_t fwd_bytes =
      kBatchMemberBytes * batch.size() + put_bytes;

  // Initiator: pack the member descriptors and PUT payloads into one send
  // bounce buffer (a single send_overhead amortised over every member —
  // the aggregation win), then inject the framed message.
  Duration pack = p.send_overhead;
  if (put_bytes > 0) pack += p.copy_time(put_bytes);
  co_await machine_.core(from.node, from.core).use(pack);
  co_await machine_.nic_tx(from.node).use(tx_cost(fwd_bytes));
  co_await wire(from.node, dst, fwd_bytes);

  // Target: one dispatch, then each member is unpacked and applied on the
  // handler CPU in turn (svd_lookup + copy per leg). Because GM's handler
  // CPU is the application core itself, the per-leg cost still steals
  // compute time there — the paper's no-overlap effect is preserved per
  // member, only the per-message envelope is amortised. The batch is
  // applied exactly once, after deliver() has accepted the leg: a
  // retransmitted copy is suppressed by the ProtocolEngine's sequence
  // window before it ever reaches this point, so member ops can never be
  // duplicate-applied.
  auto& hcpu = handler_cpu(dst, batch.ops.empty() ? 0
                                                  : batch.ops.front().target_core);
  co_await hcpu.acquire();
  co_await sim.delay(scaled(dst, p.recv_overhead));
  co_await sim.delay(scaled(dst, unpack));
  auto serve = target_.serve_batch(dst, std::move(batch));
  hcpu.release();

  // Single reply carrying every GET member's data (ack-only when the
  // batch held no GETs).
  co_await machine_.nic_tx(dst).use(tx_cost(get_bytes));
  co_await wire(dst, from.node, get_bytes);

  // Initiator: one receive dispatch, then scatter the GET payloads out of
  // the bounce buffer.
  Duration recv_cost = p.recv_overhead;
  if (get_bytes > 0) recv_cost += p.copy_time(get_bytes);
  co_await machine_.core(from.node, from.core).use(recv_cost);

  co_return RdmaBatchResult{std::move(serve.get_data)};
}

std::unique_ptr<Transport> make_transport(Machine& machine, AmTarget& target) {
  return std::make_unique<Transport>(machine, target);
}

}  // namespace xlupc::net
