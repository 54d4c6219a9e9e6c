// Cross-version pin of every transport wire path (docs/COMM_ENGINE.md,
// docs/MACHINES.md): GET/PUT around the inline and eager/rendezvous
// crossovers (with and without a registered local buffer), one-sided
// rdma_get/rdma_put accepted and NAKed, cold/warm/NAKed atomics, an
// aggregated batch and a control message, on gm, lapi and ib, each under
// five fault plans. Every op's completion instants, returned bytes or
// value and the transport statistics are written as text and compared
// byte-for-byte with tests/golden/transport_paths.txt, so any change to
// a protocol leg's cost, order or counters shows as a diff. Regenerate
// intentionally with:
//   XLUPC_REGEN_GOLDEN=1 ./transport_paths_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/ib/verbs.h"
#include "net/machine.h"
#include "net/machine_registry.h"
#include "net/transport.h"
#include "sim/fault_plan.h"

namespace xlupc::net {
namespace {

using sim::FaultParams;

// Passive target with a first-touch pinning model: the first serve of an
// offset on a node reports its bytes as newly registered, so the target's
// pin-cost leg is exercised; rdma_memory NAKs while `pinned` is false.
class PathTarget : public AmTarget {
 public:
  // Room for the largest op: an eager_limit + 1 byte GET at offset 64.
  explicit PathTarget(std::size_t eager_limit) : bytes_(eager_limit + 4096) {
    for (NodeId n = 0; n < 2; ++n) {
      store_[n].resize(bytes_);
      for (std::size_t i = 0; i < bytes_; ++i) {
        store_[n][i] = static_cast<std::byte>((i * 7 + n * 13) & 0xff);
      }
    }
  }
  Addr base(NodeId n) const { return 0x1000u + (static_cast<Addr>(n) << 32); }

  GetServe serve_get(NodeId target, const GetRequest& req) override {
    GetServe out;
    out.data.assign(store_[target].begin() + req.offset,
                    store_[target].begin() + req.offset + req.len);
    out.src_addr = base(target) + req.offset;
    if (req.want_base) out.base = BaseInfo{base(target), 0x77};
    first_touch(target, req.offset, req.len, out);
    return out;
  }
  PutServe serve_put(NodeId target, PutRequest&& req) override {
    std::copy(req.data.begin(), req.data.end(),
              store_[target].begin() + req.offset);
    PutServe out;
    out.dst_addr = base(target) + req.offset;
    if (req.want_base) out.base = BaseInfo{base(target), 0x78};
    first_touch(target, req.offset, req.data.size(), out);
    return out;
  }
  PutServe serve_put_rendezvous(NodeId target, const PutRequest& req,
                                std::size_t len) override {
    PutServe out;
    out.dst_addr = base(target) + req.offset;
    if (req.want_base) out.base = BaseInfo{base(target), 0x79};
    first_touch(target, req.offset, len, out);
    return out;
  }
  void deliver_put_payload(NodeId target, std::uint64_t, std::uint64_t offset,
                           Bytes&& data) override {
    std::copy(data.begin(), data.end(), store_[target].begin() + offset);
  }
  void serve_control(NodeId, NodeId, const ControlMsg&) override {
    ++controls;
  }
  std::uint64_t serve_amo(NodeId target, const AmoRequest& req) override {
    std::uint64_t old = 0;
    std::memcpy(&old, store_[target].data() + req.offset, sizeof(old));
    const std::uint64_t next =
        req.verb == AmoVerb::kFaa ? old + req.operand
                                  : (old == req.compare ? req.operand : old);
    std::memcpy(store_[target].data() + req.offset, &next, sizeof(next));
    return old;
  }
  RdmaWindow rdma_memory(NodeId target, Addr addr, std::size_t len) override {
    if (addr < base(target) || addr + len > base(target) + bytes_) {
      throw RdmaProtocolError("bad address");
    }
    if (!pinned) return RdmaWindow{nullptr, RdmaNak::kNotPinned};
    return RdmaWindow{store_[target].data() + (addr - base(target)),
                      RdmaNak::kNone};
  }

  bool pinned = true;
  int controls = 0;

 private:
  template <class Serve>
  void first_touch(NodeId target, std::uint64_t offset, std::size_t len,
                   Serve& out) {
    if (touched_[target].emplace(offset, len).second) {
      out.reg_new_bytes = len;
      out.reg_new_handles = 1;
    }
  }

  std::size_t bytes_;
  std::map<NodeId, std::vector<std::byte>> store_;
  std::map<NodeId, std::map<std::uint64_t, std::size_t>> touched_;
};

struct Plan {
  const char* name;
  FaultParams params;
};

std::vector<Plan> plans() {
  std::vector<Plan> out;
  out.push_back({"none", {}});
  FaultParams lossy;
  lossy.seed = 7;
  lossy.drop_prob = 0.25;
  lossy.corrupt_prob = 0.15;
  lossy.dup_prob = 0.5;
  out.push_back({"lossy", lossy});
  FaultParams pin;
  pin.seed = 9;
  pin.pin_fail_prob = 0.5;
  out.push_back({"pinfail", pin});
  FaultParams pin_all;  // every pin fails: RNR budget out, then bounce
  pin_all.seed = 10;
  pin_all.pin_fail_prob = 1.0;
  out.push_back({"pinfail_all", pin_all});
  FaultParams slow;
  slow.seed = 3;
  slow.slowdowns.push_back({1, 0, sim::us(40.0), 2.5});
  out.push_back({"slowdown", slow});
  FaultParams stall;
  stall.seed = 4;
  stall.nic_stalls.push_back({0, sim::us(1.0), sim::us(20.0)});
  stall.nic_stalls.push_back({1, sim::us(8.0), sim::us(30.0)});
  out.push_back({"nicstall", stall});
  return out;
}

struct Rig {
  Rig(PlatformParams p, FaultParams fp)
      : target(p.eager_limit),
        machine(sim, std::move(p), {2, 2, std::move(fp), {}}),
        transport(make_transport(machine, target)) {}
  sim::Simulator sim;
  PathTarget target;
  Machine machine;
  std::unique_ptr<Transport> transport;
};

// --- verbs introspection (null on GM/LAPI) ---
const ib::QueuePair* queue_pair(Transport& t, NodeId src, NodeId dst) {
  return t.verbs() ? t.verbs()->queue_pair(src, dst) : nullptr;
}
const ib::CompletionQueue* completion_queue(Transport& t, NodeId node) {
  return t.verbs() ? &t.verbs()->completion_queue(node) : nullptr;
}

std::uint64_t fnv(const Bytes& b) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::byte x : b) {
    h = (h ^ static_cast<std::uint8_t>(x)) * 1099511628211ull;
  }
  return h;
}

void put_stats(std::ostream& os, const TransportStats& s) {
#define XLUPC_FIELD(f) \
  if (s.f != 0) os << ' ' << #f << '=' << s.f;
  XLUPC_FIELD(am_gets)
  XLUPC_FIELD(am_puts)
  XLUPC_FIELD(rendezvous_gets)
  XLUPC_FIELD(rendezvous_puts)
  XLUPC_FIELD(rdma_gets)
  XLUPC_FIELD(rdma_puts)
  XLUPC_FIELD(rdma_naks)
  XLUPC_FIELD(control_msgs)
  XLUPC_FIELD(wire_bytes)
  XLUPC_FIELD(batch_msgs)
  XLUPC_FIELD(batched_gets)
  XLUPC_FIELD(batched_puts)
  XLUPC_FIELD(retransmits)
  XLUPC_FIELD(timeouts)
  XLUPC_FIELD(dropped_msgs)
  XLUPC_FIELD(corrupt_msgs)
  XLUPC_FIELD(duplicate_msgs)
  XLUPC_FIELD(backoff_ns)
  XLUPC_FIELD(nic_stall_waits)
  XLUPC_FIELD(bounce_fallbacks)
  XLUPC_FIELD(amo_msgs)
  XLUPC_FIELD(nic_atomics)
  XLUPC_FIELD(qp_posts)
  XLUPC_FIELD(sq_stalls)
  XLUPC_FIELD(inline_sends)
  XLUPC_FIELD(rnr_naks)
  XLUPC_FIELD(rnr_retries)
  XLUPC_FIELD(link_down_drops)
  XLUPC_FIELD(failover_routes)
  XLUPC_FIELD(peer_dead_drops)
  XLUPC_FIELD(link_resyncs)
  XLUPC_FIELD(qp_errors)
  XLUPC_FIELD(qp_reconnects)
#undef XLUPC_FIELD
}

// One case: run `op` twice back to back from (node 0, core 0) against
// node 1 (the second run sees warm registration caches), then write the
// per-op lines and the case summary.
using Op = std::function<sim::Task<void>(Rig&, std::ostream&)>;

void run_case(std::ostream& os, const std::string& label,
              const PlatformParams& p, FaultParams fp, const Op& op,
              bool pinned = true) {
  // Each case draws its own fault streams (a plan's streams depend only
  // on its seed, so a shared seed would replay one pattern everywhere).
  for (char c : label) fp.seed = fp.seed * 131 + static_cast<unsigned char>(c);
  Rig rig(p, std::move(fp));
  rig.target.pinned = pinned;
  std::ostringstream ops;
  rig.sim.spawn([](Rig& r, const Op& o, std::ostream& out) -> sim::Task<> {
    for (int i = 0; i < 2; ++i) {
      out << "  op" << i << " t0=" << r.sim.now();
      co_await o(r, out);
      out << '\n';
    }
  }(rig, op, ops));
  rig.sim.run();

  os << label << '\n' << ops.str();
  os << "  end t=" << rig.sim.now()
     << " events=" << rig.sim.events_executed()
     << " live=" << rig.sim.live_processes() << '\n';
  os << "  stats";
  put_stats(os, rig.transport->stats());
  os << '\n';
  os << "  res";
  rig.machine.for_each_resource([&os](const sim::Resource& res) {
    if (res.acquisitions() == 0) return;
    os << ' ' << res.name() << '=' << res.busy_time() << '/'
       << res.queue_wait_time() << '/' << res.acquisitions();
  });
  os << '\n';
  os << "  regcache";
  for (NodeId n = 0; n < 2; ++n) {
    const auto& rc = rig.transport->reg_cache(n);
    os << " n" << n << '=' << rc.hits() << '/' << rc.misses() << '/'
       << rc.evictions() << '/' << rc.bounces();
  }
  os << '\n';
  if (const ib::QueuePair* q = queue_pair(*rig.transport, 0, 1)) {
    os << "  qp0-1 outstanding=" << q->outstanding() << " hwm=" << q->hwm()
       << " incarnation=" << q->incarnation() << '\n';
  }
  if (const ib::QueuePair* q = queue_pair(*rig.transport, 1, 0)) {
    os << "  qp1-0 outstanding=" << q->outstanding() << '\n';
  }
  if (completion_queue(*rig.transport, 0) != nullptr) {
    os << "  cq n0=" << completion_queue(*rig.transport, 0)->cqes()
       << " n1=" << completion_queue(*rig.transport, 1)->cqes() << '\n';
  }
}

constexpr Addr kLocalBuf = 0x9000000;

Op get_op(std::uint32_t len, Addr local_buf) {
  return [len, local_buf](Rig& r, std::ostream& out) -> sim::Task<void> {
    GetRequest req;
    req.offset = 64;
    req.len = len;
    req.want_base = true;
    req.target_core = 1;
    req.local_buf = local_buf;
    const GetReply rep = co_await r.transport->get({0, 0}, 1, req);
    out << " done=" << r.sim.now() << " bytes=" << rep.data.size() << ':'
        << fnv(rep.data) << " base=" << rep.base.has_value();
  };
}

Op put_op(std::size_t len, Addr local_buf) {
  return [len, local_buf](Rig& r, std::ostream& out) -> sim::Task<void> {
    PutRequest req;
    req.offset = 128;
    req.data.assign(len, std::byte{0x5a});
    req.want_base = true;
    req.target_core = 1;
    req.local_buf = local_buf;
    auto* o = &out;
    sim::Simulator* sim = &r.sim;
    co_await r.transport->put({0, 0}, 1, std::move(req),
                              [o, sim](const PutAck& ack) {
                                *o << " ack=" << sim->now()
                                   << " ackbase=" << ack.base.has_value();
                              });
    out << " local=" << r.sim.now();
    // Let the detached remote half finish inside this op's line.
    co_await r.sim.delay(sim::us(5000.0));
  };
}

Op rdma_get_op(std::uint32_t len) {
  return [len](Rig& r, std::ostream& out) -> sim::Task<void> {
    const RdmaGetResult res =
        co_await r.transport->rdma_get({0, 0}, 1, r.target.base(1) + 256, len);
    out << " done=" << r.sim.now() << " nak=" << static_cast<int>(res.nak)
        << " bytes=" << res.data.size() << ':' << fnv(res.data);
  };
}

Op rdma_put_op(std::size_t len) {
  return [len](Rig& r, std::ostream& out) -> sim::Task<void> {
    Bytes data(len, std::byte{0x3c});
    auto* o = &out;
    sim::Simulator* sim = &r.sim;
    const RdmaPutResult res = co_await r.transport->rdma_put(
        {0, 0}, 1, r.target.base(1) + 512, std::move(data),
        [o, sim] { *o << " landed=" << sim->now(); });
    out << " local=" << r.sim.now() << " nak=" << static_cast<int>(res.nak);
    co_await r.sim.delay(sim::us(5000.0));
  };
}

Op amo_op(bool warm) {
  auto step = std::make_shared<int>(0);
  return [warm, step](Rig& r, std::ostream& out) -> sim::Task<void> {
    AmoRequest req;
    req.verb = (*step)++ == 0 ? AmoVerb::kFaa : AmoVerb::kCas;
    req.offset = 1024;
    req.operand = 5;
    req.compare = 0;
    req.target_core = 1;
    if (warm) req.raddr = r.target.base(1) + 1024;
    const AmoResult res = co_await r.transport->amo({0, 0}, 1, req);
    out << " done=" << r.sim.now() << " nak=" << static_cast<int>(res.nak)
        << " value=" << res.value << " offloaded=" << res.offloaded;
  };
}

Op batch_op() {
  return [](Rig& r, std::ostream& out) -> sim::Task<void> {
    RdmaBatch batch;
    for (int i = 0; i < 3; ++i) {
      RdmaBatchOp m;
      m.is_get = i != 1;
      m.offset = 2048 + 64 * i;
      m.len = 8u << i;
      m.target_core = 1;
      if (!m.is_get) m.data.assign(m.len, std::byte{0x11});
      batch.ops.push_back(std::move(m));
    }
    const RdmaBatchResult res =
        co_await r.transport->rdma_batch({0, 0}, 1, std::move(batch));
    out << " done=" << r.sim.now() << " gets=" << res.get_data.size();
    for (const Bytes& b : res.get_data) out << ' ' << b.size() << ':' << fnv(b);
  };
}

Op control_op() {
  return [](Rig& r, std::ostream& out) -> sim::Task<void> {
    co_await r.transport->control({0, 0}, 1, SvdFreeNotice{42});
    out << " done=" << r.sim.now() << " controls=" << r.target.controls;
  };
}

std::string render_all() {
  std::ostringstream os;
  // "-tight" variants cap the DMAable budget at eager_limit, so every
  // rendezvous region overflows it and stages through bounce buffers.
  for (const char* machine : {"gm", "lapi", "ib", "gm-tight", "ib-tight"}) {
    const std::string name = machine;
    const bool tight = name.size() > 6 && name.ends_with("-tight");
    PlatformParams p = make_machine(tight ? name.substr(0, name.size() - 6)
                                          : name);
    if (tight) p.max_dmaable_bytes = p.eager_limit;
    const auto il = static_cast<std::uint32_t>(p.inline_limit);
    const auto el = static_cast<std::uint32_t>(p.eager_limit);
    std::vector<std::uint32_t> sizes = {0, il, il + 1, el, el + 1};
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    for (const Plan& plan : plans()) {
      const std::string pre =
          std::string(machine) + " " + plan.name + " ";
      for (std::uint32_t len : sizes) {
        for (Addr lb : {kNullAddr, kLocalBuf}) {
          const std::string tail =
              std::to_string(len) + (lb == kNullAddr ? "" : " local_buf");
          run_case(os, pre + "get " + tail, p, plan.params, get_op(len, lb));
          run_case(os, pre + "put " + tail, p, plan.params, put_op(len, lb));
        }
      }
      for (bool pinned : {true, false}) {
        const std::string tail = pinned ? " ok" : " nak";
        run_case(os, pre + "rdma_get 64" + tail, p, plan.params,
                 rdma_get_op(64), pinned);
        run_case(os, pre + "rdma_put 64" + tail, p, plan.params,
                 rdma_put_op(64), pinned);
      }
      run_case(os, pre + "amo cold", p, plan.params, amo_op(false));
      run_case(os, pre + "amo warm", p, plan.params, amo_op(true));
      run_case(os, pre + "amo nak", p, plan.params, amo_op(true),
               /*pinned=*/false);
      run_case(os, pre + "batch", p, plan.params, batch_op());
      run_case(os, pre + "control", p, plan.params, control_op());
    }
  }
  return os.str();
}

TEST(TransportPaths, GoldenFileIsByteStable) {
  const std::string got = render_all();
  const std::string path =
      std::string(XLUPC_SOURCE_DIR) + "/tests/golden/transport_paths.txt";
  if (std::getenv("XLUPC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::stringstream want_ss;
  want_ss << in.rdbuf();
  const std::string want = want_ss.str();
  if (got == want) return;
  // Report the first differing line with its case header, not 300 KB.
  std::istringstream g(got), w(want);
  std::string gl, wl, header;
  for (int line = 1;; ++line) {
    const bool gm = static_cast<bool>(std::getline(g, gl));
    const bool wm = static_cast<bool>(std::getline(w, wl));
    if (!gm && !wm) break;
    if (gm && gl.rfind("  ", 0) != 0) header = gl;
    if (gl != wl || gm != wm) {
      FAIL() << "line " << line << " differs (case: " << header << ")\n"
             << "  want: " << (wm ? wl : "<eof>") << "\n"
             << "   got: " << (gm ? gl : "<eof>");
    }
  }
  FAIL() << "output differs from " << path;
}

}  // namespace
}  // namespace xlupc::net
