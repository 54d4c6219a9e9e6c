// Verbs-style queue pairs and completion queues on top of the DES.
//
// The InfiniBand backend (docs/MACHINES.md) models the host-visible half
// of the verbs interface that Liu et al. build MPICH2's RDMA channel on:
// work requests are posted to a reliable-connection QueuePair's send
// queue and retire through a per-node CompletionQueue. The wire protocol
// itself — eager and rendezvous GET/PUT, one-sided READ/WRITE, atomics —
// is net::Transport's, shared with GM and LAPI; Transport owns one Verbs
// connection layer only on TransportKind::kIb and calls it at its single
// post/retire choke point. The wire and the hardware engines stay where
// they are for every backend — `net::Machine`'s nic_tx/nic_dma resources
// and the shared ProtocolEngine — so these classes own only the queue
// discipline: a send queue has `sq_depth` WQE slots, and posting to a
// full queue stalls the caller until a completion frees one (the
// backpressure a real sender spins on).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace xlupc::net::ib {

/// Per-node completion queue: every work completion on every QP whose
/// initiator lives on the node lands here (one CQ polled by the progress
/// engine, the common verbs deployment).
class CompletionQueue {
 public:
  void completed() noexcept { ++cqes_; }
  std::uint64_t cqes() const noexcept { return cqes_; }

 private:
  std::uint64_t cqes_ = 0;
};

/// One reliable-connection queue pair (one per ordered initiator->target
/// node pair). Only the send side is modelled: receives are preposted in
/// bulk by the runtime and never run dry in this simulator.
///
/// Connection state follows the verbs RC state machine in miniature:
/// a QP is RTS (ready-to-send) until the transport error-fences it on
/// peer death or an unrecoverable link event (to_error: outstanding WQEs
/// flush, stalled posters wake), and stays unusable until the recovery
/// path tears it down and re-establishes it (reactivate — a fresh
/// incarnation of the same initiator->target connection).
class QueuePair {
 public:
  enum class State : std::uint8_t { kRts, kError };

  /// `sq_depth` = send-queue WQE slots; 0 = unbounded.
  QueuePair(sim::Simulator& sim, std::uint32_t sq_depth)
      : sim_(&sim), depth_(sq_depth) {}
  QueuePair(QueuePair&&) = default;

  State state() const noexcept { return state_; }
  bool in_error() const noexcept { return state_ == State::kError; }
  /// How many times this connection has been re-established.
  std::uint32_t incarnation() const noexcept { return incarnation_; }

  /// Error-fence the QP: flush every outstanding WQE (their completions
  /// will never arrive from a dead peer) and wake stalled posters so no
  /// coroutine waits forever on a send-queue slot that frees only via a
  /// completion.
  void to_error() {
    state_ = State::kError;
    outstanding_ = 0;
    if (stall_) {
      const std::shared_ptr<sim::Trigger> t = std::move(stall_);
      stall_.reset();
      t->fire();
    }
  }

  /// Re-establish the connection after a teardown: back to RTS with an
  /// empty send queue, as a new incarnation.
  void reactivate() {
    state_ = State::kRts;
    outstanding_ = 0;
    ++incarnation_;
  }

  /// True when post_send() would have to wait for a free slot.
  bool would_stall() const noexcept {
    return state_ == State::kRts && depth_ != 0 && outstanding_ >= depth_;
  }

  /// Occupy one send-queue slot, waiting (FIFO via the trigger's wake
  /// order) while the queue is full.
  sim::Task<void> post_send() {
    while (would_stall()) {
      if (!stall_) stall_ = std::make_shared<sim::Trigger>(*sim_);
      // Hold a local reference: complete() hands the trigger off to its
      // waiters before firing, and another staller may install a fresh one.
      const std::shared_ptr<sim::Trigger> t = stall_;
      co_await t->wait();
    }
    ++outstanding_;
    hwm_ = std::max(hwm_, outstanding_);
  }

  /// Retire the oldest outstanding WQE (work completion), waking stalled
  /// posters.
  void complete() {
    if (outstanding_ > 0) --outstanding_;
    if (stall_) {
      const std::shared_ptr<sim::Trigger> t = std::move(stall_);
      stall_.reset();
      t->fire();
    }
  }

  std::uint32_t outstanding() const noexcept { return outstanding_; }
  std::uint32_t hwm() const noexcept { return hwm_; }

 private:
  sim::Simulator* sim_;
  std::uint32_t depth_;
  std::uint32_t outstanding_ = 0;
  std::uint32_t hwm_ = 0;
  State state_ = State::kRts;
  std::uint32_t incarnation_ = 0;
  std::shared_ptr<sim::Trigger> stall_;
};

/// The verbs connection layer: one RC QueuePair per ordered (initiator,
/// target) node pair, created on first use, and one CompletionQueue per
/// node. Every WQE the transport posts retires exactly once — complete()
/// on the path's last initiator step, flush() when a leg fails — so a
/// timed-out operation never leaks its send-queue slot.
class Verbs {
 public:
  Verbs(Machine& machine, ProtocolEngine& protocol, TransportStats& stats)
      : machine_(machine), protocol_(protocol), stats_(stats),
        cqs_(machine.nodes()) {}

  /// Post one WQE on src -> dst, counting a stall when the send queue is
  /// full. An error-fenced connection is re-established first, unless
  /// `dst` is declared dead (PeerDeadError; nothing is posted).
  sim::Task<void> post(NodeId src, NodeId dst);
  /// Retire the oldest WQE of src -> dst and raise a CQE on src's CQ.
  void complete(NodeId src, NodeId dst);
  /// Retire the WQE of a leg that failed (a flushed completion). A
  /// connection in the error state already flushed its WQEs in
  /// to_error(), so nothing is left to retire there.
  void flush(NodeId src, NodeId dst);

  /// Failure-detector notification: every RC connection touching `node`
  /// transitions to the error state, in (src, dst) order — to_error()
  /// wakes the QP's stalled posters, so this is the equal-time order they
  /// resume in. Connections are lazily re-established by the next post
  /// unless the peer stays declared dead.
  void fence_peer(NodeId node);
  /// Link-down notification: fences the pair's connections only when the
  /// topology offers no redundant path (the fat tree usually does; the
  /// protocol engine then reroutes and the QPs stay RTS).
  void on_link_down(NodeId a, NodeId b);

  /// Test introspection: the initiator-side completion queue of `node`.
  const CompletionQueue& completion_queue(NodeId node) const {
    return cqs_.at(node);
  }
  /// Test introspection: the RC queue pair src -> dst, or nullptr when no
  /// operation has used that connection yet.
  const QueuePair* queue_pair(NodeId src, NodeId dst) const;

 private:
  static std::uint64_t key(NodeId src, NodeId dst) noexcept {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }
  QueuePair& qp(NodeId src, NodeId dst);
  /// Error-fence the src -> dst connection if it exists and is RTS.
  void fence(NodeId src, NodeId dst);

  Machine& machine_;
  ProtocolEngine& protocol_;
  TransportStats& stats_;
  /// Keyed by key(src, dst). Nodes are stable, so a QueuePair& held
  /// across a stalled post_send() survives rehashing; nothing iterates
  /// the table, so its order never reaches a run.
  std::unordered_map<std::uint64_t, QueuePair> qps_;
  std::vector<CompletionQueue> cqs_;  ///< one per node (initiator side)
};

}  // namespace xlupc::net::ib
