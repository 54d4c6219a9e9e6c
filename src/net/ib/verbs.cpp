#include "net/ib/verbs.h"

#include <string>

#include "net/topology.h"

namespace xlupc::net::ib {

QueuePair& Verbs::qp(NodeId src, NodeId dst) {
  return qps_
      .try_emplace(key(src, dst), machine_.simulator(),
                   machine_.params().sq_depth)
      .first->second;
}

const QueuePair* Verbs::queue_pair(NodeId src, NodeId dst) const {
  const auto it = qps_.find(key(src, dst));
  return it == qps_.end() ? nullptr : &it->second;
}

sim::Task<void> Verbs::post(NodeId src, NodeId dst) {
  QueuePair& q = qp(src, dst);
  if (q.in_error()) {
    // The connection was error-fenced by a failure event. Posting against
    // a peer the detector still considers dead is pointless — surface the
    // typed error instead of re-establishing a connection that can only
    // fail again.
    if (protocol_.peer_declared_dead(dst)) {
      throw PeerDeadError(dst, "ib: connection " + std::to_string(src) +
                                   "->" + std::to_string(dst) +
                                   " is error-fenced and the peer is dead");
    }
    // Tear down and re-establish: one connection-setup round trip, then
    // the QP comes back RTS as a fresh incarnation. Resyncing both
    // directions of the link rebases the sequence stamps onto what the
    // receiver has applied, so replayed traffic stays apply-once.
    co_await machine_.simulator().delay(2 * machine_.latency(src, dst));
    q.reactivate();
    ++stats_.qp_reconnects;
    protocol_.resync_link(src, dst);
    protocol_.resync_link(dst, src);
  }
  ++stats_.qp_posts;
  if (q.would_stall()) ++stats_.sq_stalls;
  co_await q.post_send();
}

void Verbs::complete(NodeId src, NodeId dst) {
  qp(src, dst).complete();
  cqs_[src].completed();
}

void Verbs::flush(NodeId src, NodeId dst) {
  if (!qp(src, dst).in_error()) complete(src, dst);
}

void Verbs::fence(NodeId src, NodeId dst) {
  const auto it = qps_.find(key(src, dst));
  if (it != qps_.end() && !it->second.in_error()) {
    it->second.to_error();
    ++stats_.qp_errors;
  }
}

void Verbs::fence_peer(NodeId node) {
  const NodeId nodes = machine_.nodes();
  for (NodeId s = 0; s < nodes; ++s) {
    if (s != node) {
      fence(s, node);
      continue;
    }
    for (NodeId d = 0; d < nodes; ++d) fence(node, d);
  }
}

void Verbs::on_link_down(NodeId a, NodeId b) {
  // With a redundant path the protocol engine reroutes around the dark
  // link and the connection stays up; only a path-less pair fences.
  if (redundant_paths(machine_.params().topology, a, b) > 0) return;
  fence(a, b);
  fence(b, a);
}

}  // namespace xlupc::net::ib
