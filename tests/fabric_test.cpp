// Congestion-aware fabric (docs/FABRIC.md): finite switch buffers,
// credit flow control, ECMP vs adaptive routing, and the byte-identity
// and apply-once guarantees the subsystem must preserve.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <regex>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/runtime.h"
#include "net/fabric.h"
#include "net/machine_registry.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace xlupc::net {
namespace {

using sim::Task;
using sim::Time;

FabricParams finite(std::uint32_t credits,
                    RoutePolicy policy = RoutePolicy::kEcmp) {
  FabricParams fp;
  fp.port_credits = credits;
  fp.routing = policy;
  fp.route_seed = 7;
  return fp;
}

// --- transit timing ------------------------------------------------------

// Uncontended store-and-forward transit: wire_base up front, then one
// serialization + one hop latency per switch port.
TEST(FabricTransit, UncontendedTimeIsStoreAndForward) {
  struct Case {
    PlatformParams p;
    NodeId src, dst;
    std::uint32_t hops;
  };
  const std::vector<Case> cases = {
      {power5_lapi(), 0, 3, 1},         // flat switch
      {mare_nostrum_gm(), 0, 1, 1},     // same linecard
      {mare_nostrum_gm(), 0, 17, 3},    // same group
      {mare_nostrum_gm(), 0, 129, 5},   // across the top level
      {infiniband_verbs(), 0, 1, 1},    // same leaf
      {infiniband_verbs(), 0, 19, 3},   // same pod
      {infiniband_verbs(), 0, 325, 5},  // through the core
  };
  const std::uint64_t bytes = 4096;
  for (const Case& c : cases) {
    sim::Simulator sim;
    Fabric fab(sim, c.p, 648, finite(4));
    Time done = 0;
    sim.spawn([](sim::Simulator& s, Fabric& f, const Case& cs,
                 std::uint64_t b, Time& out) -> Task<> {
      co_await f.transit(cs.src, cs.dst, b);
      out = s.now();
    }(sim, fab, c, bytes, done));
    sim.run();
    EXPECT_EQ(hops_between(c.p.topology, c.src, c.dst), c.hops);
    const sim::Duration expect =
        c.p.wire_base + c.hops * (c.p.serialize(bytes) + c.p.hop_latency);
    EXPECT_EQ(done, expect) << c.p.name << " " << c.src << "->" << c.dst;
    EXPECT_EQ(fab.stats().msgs, 1u);
    EXPECT_EQ(fab.stats().hops, c.hops);
    EXPECT_EQ(fab.stats().credit_waits, 0u);
  }
}

// Two messages racing for the same egress wire serialize; the fabric's
// contention shows up as added latency for the loser.
TEST(FabricTransit, SharedPortSerializes) {
  const PlatformParams p = infiniband_verbs();
  sim::Simulator sim;
  Fabric fab(sim, p, 18, finite(8));
  std::vector<Time> done(2);
  for (int i = 0; i < 2; ++i) {
    // Two sources under one leaf, one destination: the leaf's down-port
    // toward the destination is shared.
    sim.spawn([](sim::Simulator& s, Fabric& f, NodeId src,
                 Time& out) -> Task<> {
      co_await f.transit(src, 2, 1 << 20);
      out = s.now();
    }(sim, fab, static_cast<NodeId>(i), done[i]));
  }
  sim.run();
  const sim::Duration solo =
      p.wire_base + p.serialize(1 << 20) + p.hop_latency;
  EXPECT_EQ(std::min(done[0], done[1]), solo);
  // The loser waits out the winner's full serialization on the wire.
  EXPECT_EQ(std::max(done[0], done[1]), solo + p.serialize(1 << 20));
}

// Credit exhaustion: with 1-credit buffers, a third message cannot even
// enter the switch until a slot frees — backpressure reaches the source.
TEST(FabricTransit, FiniteCreditsApplyBackpressure) {
  const PlatformParams p = infiniband_verbs();
  sim::Simulator sim;
  Fabric fab(sim, p, 18, finite(1));
  int finished = 0;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Fabric& f, NodeId src, int& n) -> Task<> {
      co_await f.transit(src, 5, 1 << 16);
      ++n;
    }(fab, static_cast<NodeId>(i), finished));
  }
  sim.run();
  EXPECT_EQ(finished, 4);
  EXPECT_GT(fab.stats().credit_waits, 0u);
  EXPECT_GT(fab.stats().credit_wait_ns, 0u);
}

// A node the fabric was not sized for is refused before any port is
// touched: on the fat tree, node 36 of a 36-node table would otherwise
// land in the next level's block and alias a real port. A disabled
// fabric refuses every transit.
TEST(FabricTransit, OutOfRangeNodesThrow) {
  for (const PlatformParams& p : {power5_lapi(), infiniband_verbs()}) {
    sim::Simulator sim;
    Fabric fab(sim, p, 36, finite(4));
    EXPECT_THROW((void)fab.transit(0, 36, 64), std::out_of_range) << p.name;
    EXPECT_THROW((void)fab.transit(36, 0, 64), std::out_of_range) << p.name;
    EXPECT_THROW((void)fab.transit_failover(0, 400, 64, 0), std::out_of_range)
        << p.name;
    EXPECT_EQ(fab.port_count(), 0u);
    EXPECT_EQ(fab.stats().msgs, 0u);
    EXPECT_EQ(fab.stats().failover_transits, 0u);

    // The last node is still in range.
    sim.spawn([](Fabric& f) -> Task<> { co_await f.transit(0, 35, 64); }(fab));
    sim.run();
    EXPECT_EQ(fab.stats().msgs, 1u) << p.name;
  }
  // A disabled fabric has no port table at all.
  sim::Simulator sim;
  const PlatformParams ib = infiniband_verbs();
  Fabric off(sim, ib, 36, FabricParams{});
  EXPECT_THROW((void)off.transit(0, 1, 64), std::out_of_range);
}

// --- port table ----------------------------------------------------------

// The egress ports a route crosses, named independently of the fabric
// (docs/FABRIC.md): level rank in table order, switch, port.
using PortId = std::tuple<int, std::uint32_t, std::uint32_t>;

std::vector<PortId> route_ports(TopologyKind t, NodeId s, NodeId d,
                                std::uint32_t route) {
  enum { kLeafDn, kLeafUp, kSpineDn, kSpineUp, kTopDn, kLcDn, kLcUp, kMidDn,
         kMidUp };
  if (s == d) return {};
  if (t == TopologyKind::kFlatSwitch) return {{kLeafDn, 0, d}};
  if (t == TopologyKind::kMyrinetCrossbar) {
    const NodeId ls = s / 16, ld = d / 16, gs = s / 128, gd = d / 128;
    if (ls == ld) return {{kLcDn, ld, d % 16}};
    std::vector<PortId> out = {{kLcUp, ls, 0}};
    if (gs != gd) {
      out.push_back({kMidUp, gs, 0});
      out.push_back({kTopDn, 0, gd});
    }
    out.push_back({kMidDn, gd, ld % 8});
    out.push_back({kLcDn, ld, d % 16});
    return out;
  }
  const NodeId ls = s / 18, ld = d / 18, ps = s / 324, pd = d / 324;
  if (ls == ld) return {{kLeafDn, ld, d % 18}};
  std::vector<PortId> out = {{kLeafUp, ls, route}};
  if (ps != pd) {
    out.push_back({kSpineUp, ps * 18 + route, 0});
    out.push_back({kTopDn, route, pd});
  }
  out.push_back({kSpineDn, pd * 18 + route, ld % 18});
  out.push_back({kLeafDn, ld, d % 18});
  return out;
}

// "fab.leaf0.dn3.buf" -> (rank of leaf.dn, 0, 3); the trailing "buf" or
// "wire" is returned through `suffix`.
PortId parse_port(const std::string& name, std::string& suffix) {
  static const std::vector<std::string> order = {
      "leaf.dn", "leaf.up", "spine.dn", "spine.up", "top.dn",
      "lc.dn",   "lc.up",   "mid.dn",   "mid.up"};
  static const std::regex re(R"(fab\.([a-z]+)(\d+)\.([a-z]+)(\d+)\.([a-z]+))");
  std::smatch m;
  if (!std::regex_match(name, m, re)) {
    ADD_FAILURE() << "unparsable port name " << name;
    return {-1, 0, 0};
  }
  suffix = m[5];
  const auto it = std::find(order.begin(), order.end(),
                            m[1].str() + "." + m[3].str());
  EXPECT_NE(it, order.end()) << name;
  return {static_cast<int>(it - order.begin()),
          static_cast<std::uint32_t>(std::stoul(m[2])),
          static_cast<std::uint32_t>(std::stoul(m[4]))};
}

// All-to-all traffic materializes exactly the ports its routes cross, and
// for_each_port yields each once, buffer then wire, in (level, switch,
// port) order — the order every report built from the fabric relies on.
// Sources step by a stride coprime to the leaf/linecard size, so every
// switch still sends (and every port is crossed) at a fraction of the
// events.
TEST(FabricPorts, AllToAllYieldsTouchedPortsInKeyOrder) {
  struct Case {
    PlatformParams p;
    std::uint32_t nodes;
    NodeId stride;      // between sources
    std::size_t ports;  // distinct ports the traffic crosses
    std::vector<std::string> names;  // a sample that must be present
  };
  const std::vector<Case> cases = {
      {power5_lapi(), 24, 1, 24, {"fab.leaf0.dn3.buf", "fab.leaf0.dn23.wire"}},
      // 16 linecards of 16 nodes, 2 groups: 256 + 16 + 16 + 2 + 2.
      {mare_nostrum_gm(), 256, 3, 292,
       {"fab.lc0.dn3.buf", "fab.lc15.up0.wire", "fab.mid1.dn7.buf",
        "fab.mid0.up0.buf", "fab.top0.dn1.wire"}},
      // 36 leaves, 2 pods: 648 leaf-down + 648 leaf-up (18 routes) +
      // 648 spine-down + 36 spine-up + 36 core-down.
      {infiniband_verbs(), 648, 7, 2016,
       {"fab.leaf0.dn3.buf", "fab.leaf35.up17.wire", "fab.spine35.dn17.buf",
        "fab.spine0.up0.wire", "fab.top17.dn1.buf"}},
  };
  for (const Case& c : cases) {
    sim::Simulator sim;
    Fabric fab(sim, c.p, c.nodes, finite(64));
    std::set<PortId> touched;
    for (NodeId s = 0; s < c.nodes; s += c.stride) {
      for (NodeId d = 0; d < c.nodes; ++d) {
        for (const PortId& id :
             route_ports(c.p.topology, s, d, fab.primary_route(s, d))) {
          touched.insert(id);
        }
      }
      sim.spawn([](Fabric& f, NodeId src, std::uint32_t n) -> Task<> {
        for (NodeId dst = 0; dst < n; ++dst) co_await f.transit(src, dst, 64);
      }(fab, s, c.nodes));
    }
    sim.run();
    EXPECT_EQ(touched.size(), c.ports) << c.p.name;
    EXPECT_EQ(fab.port_count(), touched.size()) << c.p.name;

    std::vector<std::string> names;
    fab.for_each_port(
        [&](const sim::Resource& r) { names.push_back(r.name()); });
    ASSERT_EQ(names.size(), 2 * touched.size()) << c.p.name;
    std::vector<PortId> visited;
    for (std::size_t i = 0; i < names.size(); i += 2) {
      std::string buf, wire;
      const PortId id = parse_port(names[i], buf);
      EXPECT_EQ(parse_port(names[i + 1], wire), id) << names[i + 1];
      EXPECT_EQ(buf, "buf") << names[i];
      EXPECT_EQ(wire, "wire") << names[i + 1];
      visited.push_back(id);
    }
    // Strictly increasing: key order, no duplicates, and exactly the
    // ports the routes cross.
    EXPECT_TRUE(std::adjacent_find(visited.begin(), visited.end(),
                                   std::greater_equal<>()) == visited.end())
        << c.p.name;
    EXPECT_EQ(std::set<PortId>(visited.begin(), visited.end()), touched)
        << c.p.name;
    for (const std::string& n : c.names) {
      EXPECT_NE(std::find(names.begin(), names.end(), n), names.end()) << n;
    }
  }
}

// Observing routes creates nothing: adaptive selection on an idle fabric
// reads every candidate route's load, yet no port materializes. Traffic
// then materializes only the ports it crosses.
TEST(FabricPorts, AdaptiveSelectionOnIdleFabricMaterializesNoPort) {
  sim::Simulator sim;
  const PlatformParams ib = infiniband_verbs();
  Fabric fab(sim, ib, 648, finite(2, RoutePolicy::kAdaptive));
  for (NodeId s = 0; s < 648; s += 7) {
    for (NodeId d = 0; d < 648; d += 5) {
      EXPECT_EQ(fab.select_route(s, d), fab.primary_route(s, d));
    }
  }
  EXPECT_EQ(fab.port_count(), 0u);
  std::size_t visited = 0;
  fab.for_each_port([&](const sim::Resource&) { ++visited; });
  EXPECT_EQ(visited, 0u);

  // One message through the core materializes its five ports, no more.
  sim.spawn([](Fabric& f) -> Task<> { co_await f.transit(0, 400, 64); }(fab));
  sim.run();
  EXPECT_EQ(fab.port_count(), 5u);
  fab.for_each_port([&](const sim::Resource&) { ++visited; });
  EXPECT_EQ(visited, 10u);
}

// --- routing -------------------------------------------------------------

TEST(FabricRouting, RouteCountsFollowTopology) {
  const PlatformParams ib = infiniband_verbs();
  sim::Simulator sim;
  Fabric fab(sim, ib, 648, finite(4));
  EXPECT_EQ(fab.route_count(0, 1), 1u);     // same leaf: single path
  EXPECT_EQ(fab.route_count(0, 19), 18u);   // pod spines
  EXPECT_EQ(fab.route_count(0, 400), 18u);  // core planes

  const PlatformParams gm = mare_nostrum_gm();
  Fabric crossbar(sim, gm, 256, finite(4));
  EXPECT_EQ(crossbar.route_count(0, 129), 1u);  // Myrinet: single route
}

TEST(FabricRouting, EcmpIsStableAndSeeded) {
  const PlatformParams ib = infiniband_verbs();
  sim::Simulator sim;
  Fabric fab(sim, ib, 324, finite(4));
  const std::uint32_t r = fab.primary_route(3, 40);
  EXPECT_EQ(fab.primary_route(3, 40), r);  // pure hash, no state consumed
  EXPECT_LT(r, fab.route_count(3, 40));

  // A different route seed re-places at least one of a spread of pairs.
  FabricParams other = finite(4);
  other.route_seed = 12345;
  Fabric fab2(sim, ib, 324, other);
  bool moved = false;
  for (NodeId dst = 19; dst < 19 + 32 && !moved; ++dst) {
    moved = fab.primary_route(0, dst) != fab2.primary_route(0, dst);
  }
  EXPECT_TRUE(moved);
}

// Adaptive routing equals ECMP on an idle fabric (strict-improvement
// tie-break) and diverts once the primary route carries load.
TEST(FabricRouting, AdaptiveDivertsOnlyUnderLoad) {
  const PlatformParams ib = infiniband_verbs();
  {
    sim::Simulator sim;
    Fabric idle(sim, ib, kFatTreePod, finite(2, RoutePolicy::kAdaptive));
    EXPECT_EQ(idle.select_route(0, 19), idle.primary_route(0, 19));
  }

  // Destinations across the pod whose ECMP hashes collide on one route:
  // from one source leaf they share the primary's leaf-up port, while
  // their spine-down and leaf-down ports differ — exactly the hash
  // collision multipath exists to break. Under ECMP the burst
  // serializes through the one 2-credit leaf-up port; adaptive sees the
  // occupied buffers at injection and spreads across the other routes.
  const NodeId src = 0;
  std::vector<NodeId> dsts;
  {
    sim::Simulator sim;
    Fabric probe(sim, ib, kFatTreePod, finite(2));
    const std::uint32_t prim = probe.primary_route(src, 19);
    for (NodeId d = 19; d < kFatTreePod && dsts.size() < 4; ++d) {
      if (probe.primary_route(src, d) == prim) dsts.push_back(d);
    }
  }
  ASSERT_EQ(dsts.size(), 4u);

  const auto burst = [&](RoutePolicy policy) {
    sim::Simulator sim;
    Fabric fab(sim, ib, kFatTreePod, finite(2, policy));
    for (const NodeId d : dsts) {
      sim.spawn([](Fabric& f, NodeId s, NodeId dd) -> Task<> {
        co_await f.transit(s, dd, 1 << 18);
      }(fab, src, d));
    }
    sim.run();
    return fab.stats();
  };
  const FabricStats adaptive = burst(RoutePolicy::kAdaptive);
  const FabricStats ecmp = burst(RoutePolicy::kEcmp);
  EXPECT_GT(adaptive.adaptive_diverts, 0u);
  EXPECT_EQ(ecmp.adaptive_diverts, 0u);
  EXPECT_GT(ecmp.credit_wait_ns, adaptive.credit_wait_ns);
}

// --- runtime integration -------------------------------------------------

core::RuntimeConfig rt_config(const char* machine, std::uint32_t nodes) {
  core::RuntimeConfig cfg;
  cfg.platform = make_machine(machine);
  cfg.nodes = nodes;
  cfg.threads_per_node = 1;
  return cfg;
}

core::RunReport pingpong_report(core::RuntimeConfig cfg) {
  core::Runtime rt(std::move(cfg));
  rt.run([&](core::UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(64, 8, 8);
    co_await th.barrier();
    for (int rep = 0; rep < 4; ++rep) {
      const std::uint64_t peer = (th.id() + 1) % rt.threads();
      co_await th.write<std::uint64_t>(a, peer * 8, rep);
      (void)co_await th.read<std::uint64_t>(a, peer * 8 + 1);
    }
    co_await th.barrier();
  });
  return rt.metrics();
}

// Infinite buffers (the default) leave the report without a single
// fabric artifact: no fabric.* keys, no fab.* port resources.
TEST(FabricRuntime, DisabledFabricLeavesNoTrace) {
  const core::RunReport r = pingpong_report(rt_config("ib", 4));
  for (const auto& [k, v] : r.counters) {
    EXPECT_EQ(k.rfind("fabric.", 0), std::string::npos) << k;
  }
  for (const auto& u : r.resources) {
    EXPECT_EQ(u.name.rfind("fab.", 0), std::string::npos) << u.name;
  }
}

// Same-seed determinism with finite buffers: two identical runs fold
// identical counters, port lists and timings.
TEST(FabricRuntime, FiniteBuffersAreDeterministic) {
  for (const char* m : {"gm", "lapi", "ib"}) {
    auto cfg = rt_config(m, 4);
    cfg.fabric = finite(2, RoutePolicy::kAdaptive);
    const core::RunReport a = pingpong_report(cfg);
    const core::RunReport b = pingpong_report(cfg);
    EXPECT_EQ(a.counters, b.counters) << m;
    EXPECT_GT(a.counter("fabric.msgs"), 0u) << m;
    ASSERT_EQ(a.resources.size(), b.resources.size()) << m;
    for (std::size_t i = 0; i < a.resources.size(); ++i) {
      EXPECT_EQ(a.resources[i].name, b.resources[i].name);
      EXPECT_EQ(a.resources[i].busy_us, b.resources[i].busy_us);
    }
    // Port resources made it into the report.
    EXPECT_TRUE(std::any_of(a.resources.begin(), a.resources.end(),
                            [](const core::ResourceUsage& u) {
                              return u.name.rfind("fab.", 0) == 0;
                            }))
        << m;
  }
}

// --- satellite: retransmits under sustained backpressure ----------------
//
// Finite buffers stretch delivery far past the base RTT, so the RTO
// fires while the original is still queued in the fabric: retransmitted
// copies then arrive behind it. Apply-once must survive — a remote
// counter incremented N times must read exactly N, with real
// retransmission work recorded.
TEST(FabricBackpressure, RetransmitsNeverDoubleApply) {
  auto cfg = rt_config("gm", 8);
  cfg.fabric = finite(1);
  cfg.faults.seed = 11;
  cfg.faults.drop_prob = 0.05;
  cfg.faults.dup_prob = 0.5;
  // An RTO short enough that fabric queueing delays beat it: spurious
  // timeouts retransmit legs that were merely stuck behind a full
  // buffer, and the seqno window must suppress every late copy.
  cfg.faults.rto = sim::us(30.0);
  cfg.faults.max_retransmits = 64;

  constexpr std::uint64_t kAddsPerThread = 24;
  core::Runtime rt(std::move(cfg));
  rt.run([&](core::UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(8, 8, 1);  // one hot counter on thread 0
    co_await th.barrier();
    for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
      (void)co_await th.fetch_add(a, 0, 1);
    }
    co_await th.barrier();
    if (th.id() == 0) {
      EXPECT_EQ(co_await th.read<std::uint64_t>(a, 0),
                kAddsPerThread * rt.threads());
    }
    co_await th.barrier();
  });
  const core::RunReport r = rt.metrics();
  // The scenario actually exercised recovery under congestion: messages
  // were dropped and retransmitted while the fabric carried real load.
  EXPECT_GT(r.counter("reliability.retransmits"), 0u);
  EXPECT_GT(r.counter("fabric.credit_waits"), 0u);
}

// Link-down failover composes with the fabric: the detour traverses the
// alternate route's buffers and is counted.
TEST(FabricFailover, LinkDownDetoursThroughAlternateBuffers) {
  auto cfg = rt_config("ib", 24);  // spans two leaves: redundant paths
  cfg.fabric = finite(4);
  sim::LinkDownWindow w;
  w.a = 0;
  w.b = 20;  // cross-leaf pair with 17 alternates
  w.start = 0;
  w.length = sim::us(100000.0);  // dark for the whole run
  cfg.faults.seed = 5;
  cfg.faults.link_downs.push_back(w);

  core::Runtime rt(std::move(cfg));
  rt.run([&](core::UpcThread& th) -> Task<void> {
    auto a = co_await th.all_alloc(48, 8, 2);
    co_await th.barrier();
    if (th.id() == 0) {
      for (int i = 0; i < 6; ++i) {
        co_await th.write<std::uint64_t>(a, 40, i);  // element homed on 20
        (void)co_await th.read<std::uint64_t>(a, 41);
      }
    }
    co_await th.barrier();
  });
  const core::RunReport r = rt.metrics();
  EXPECT_GT(r.counter("fault.fabric.failover_routes"), 0u);
  EXPECT_GT(r.counter("fabric.failover_transits"), 0u);
}

}  // namespace
}  // namespace xlupc::net
