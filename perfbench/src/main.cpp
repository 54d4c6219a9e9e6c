// perfbench: one whole-run benchmark of the simulator (README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// Runs rounds of one workload until --seconds have passed (at least
// three), each round a fresh Runtime per configuration. With --trace 0 it
// prints the end-to-end metrics: set-up time is the median over the
// rounds, the other host times are the fastest round, and simulated ones
// must repeat exactly in every round. With --trace 1 it runs untraced
// rounds, then one traced round, prints the per-layer metrics and writes
// the spans as Chrome trace-event JSON. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;  ///< required with --trace 1
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0)) usage("--seconds takes s > 0");
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      o.trace = v[0] == '1';
    } else if (a == "--trace-file") {
      o.trace_file = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!known_workload(o.workload)) usage("unknown or missing --workload");
  if (o.trace && o.trace_file.empty()) usage("--trace 1 needs --trace-file");
  return o;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quantile of simulated latencies, in microseconds. Simulated time is
/// kept in whole nanoseconds, so a latency of L ns stands for the interval
/// [L, L + 1) and deterministic service times pile up on single values.
/// The estimate takes the order statistic at rank q * n and places it
/// within its nanosecond by the rank's position among the samples tied
/// at that value (linear interpolation within the quantisation bin, as
/// bucketed latency histograms do). It never moves a result by a full
/// nanosecond.
double quantile_us(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  const std::size_t i =
      std::min(static_cast<std::size_t>(rank), v.size() - 1);
  const auto lo = std::lower_bound(v.begin(), v.end(), v[i]);
  const auto hi = std::upper_bound(v.begin(), v.end(), v[i]);
  const double frac = std::clamp(
      (rank - static_cast<double>(lo - v.begin())) /
          static_cast<double>(hi - lo),
      0.0, 1.0);
  return (static_cast<double>(v[i]) + frac) / 1e3;
}

/// A p99 needs at least ten samples beyond it.
constexpr std::size_t kTailSamples = 1000;

double mean_us(const OpLog& log) {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& v : log.lat_ns) {
    for (std::uint64_t x : v) sum += static_cast<double>(x);
    n += v.size();
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n) / 1e3;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Simulated end-to-end metrics of a round: pure functions of the seed.
std::vector<Metric> sim_metrics(const Round& r) {
  const ConfigRun& on = r.configs[0];
  const ConfigRun& off = r.configs[1];
  const double sim_s = static_cast<double>(on.sim_ns()) / 1e9;
  const double ops = static_cast<double>(on.ops.measured_ops());
  double z = static_cast<double>(off.sim_ns());
  double w = static_cast<double>(on.sim_ns());
  if (r.gain_by_latency) z = mean_us(off.ops), w = mean_us(on.ops);
  return {
      {"sim_ms", sim_s * 1e3, "ms"},
      {"sim_get_p50_us", quantile_us(on.ops.lat_ns[kGet], 0.50), "us"},
      {"sim_get_p99_us", quantile_us(on.ops.lat_ns[kGet], 0.99), "us"},
      {"sim_put_p99_us", quantile_us(on.ops.lat_ns[kPut], 0.99), "us"},
      {"sim_ops_per_s", ops / sim_s, "1/s"},
      {"cache_improvement_pct", 100.0 * (z - w) / z, "%"},
      {"ops", ops, "count"},
      {"sim.events", static_cast<double>(on.events()), "count"},
  };
}

struct HostTimes {
  double setup_s = 0, run_s = 0, teardown_s = 0, wall_s = 0, events = 0;
};

HostTimes host_times(const Round& r, double wall_s) {
  HostTimes h;
  h.wall_s = wall_s;
  for (const ConfigRun& c : r.configs) {
    h.setup_s += c.setup_s();
    h.run_s += c.run_s();
    h.teardown_s += c.teardown_s();
    h.events += static_cast<double>(c.events());
  }
  return h;
}

// --- per-layer ---------------------------------------------------------------

std::uint64_t sum_counter(const ConfigRun& c, const char* name) {
  std::uint64_t n = 0;
  for (const PhaseResult& p : c.phases) n += p.report.counter(name);
  return n;
}

/// Utilisation gauge averaged over the phases, weighted by their length.
double mean_gauge(const ConfigRun& c, const char* name) {
  double sum = 0.0, len = 0.0;
  for (const PhaseResult& p : c.phases) {
    sum += p.report.gauge(name) * static_cast<double>(p.sim_ns);
    len += static_cast<double>(p.sim_ns);
  }
  return len == 0.0 ? 0.0 : sum / len;
}

double queue_wait_us(const ConfigRun& c, const char* part) {
  double us = 0.0;
  for (const PhaseResult& p : c.phases) {
    for (const core::ResourceUsage& u : p.report.resources) {
      if (u.name.find(part) != std::string::npos) us += u.queue_wait_us;
    }
  }
  return us;
}

std::vector<Metric> layer_metrics(const Round& r, double setup_rss_mb) {
  const ConfigRun& on = r.configs[0];
  std::vector<Metric> m;
  auto add = [&m](std::string name, double v, const char* unit) {
    m.push_back({std::move(name), v, unit});
  };
  auto count = [&](const char* name) {
    add(name, static_cast<double>(sum_counter(on, name)), "count");
  };

  double ctor = 0, alloc = 0, dtor = 0, metrics = 0;
  std::uint64_t attempted = 0, failed = 0;
  for (const ConfigRun& c : r.configs) {
    ctor += c.ctor_s, alloc += c.alloc_s, dtor += c.dtor_s;
    metrics += c.metrics_s;
    attempted += c.ops.attempted, failed += c.ops.failed;
  }
  // setup: Runtime construction and destruction, allocation, init.
  add("setup.ctor_s", ctor, "s");
  add("setup.alloc_s", alloc, "s");
  add("setup.rss_mb", setup_rss_mb, "MB");
  add("teardown.dtor_s", dtor, "s");
  add("report.metrics_s", metrics, "s");

  // sim event core, per phase.
  const double events = static_cast<double>(on.events());
  const double ops = static_cast<double>(on.ops.measured_ops());
  add("sim.events", events, "count");
  add("sim.events_per_op", ops == 0 ? 0.0 : events / ops, "count");
  for (const std::string& name : phase_names()) {
    double host = 0.0, sim_us = 0.0;
    for (const ConfigRun& c : r.configs) {
      for (const PhaseResult& p : c.phases) {
        if (p.name == name) host += p.host_s;
      }
    }
    for (const PhaseResult& p : on.phases) {
      if (p.name == name) sim_us = static_cast<double>(p.sim_ns) / 1e3;
    }
    add("phase." + name + ".host_s", host, "s");
    add("phase." + name + ".sim_us", sim_us, "us");
  }

  // core access path, address cache, completion engine.
  const double hits = static_cast<double>(sum_counter(on, "cache.hits"));
  const double misses = static_cast<double>(sum_counter(on, "cache.misses"));
  add("cache.hits", hits, "count");
  add("cache.misses", misses, "count");
  add("cache.hit_rate", hits + misses == 0 ? 0.0 : hits / (hits + misses),
      "ratio");
  count("cache.evictions");
  for (const char* n :
       {"runtime.gets.rdma", "runtime.gets.am", "runtime.gets.shm",
        "runtime.gets.local", "runtime.puts.rdma", "runtime.puts.am",
        "runtime.puts.shm", "runtime.puts.local", "runtime.rdma_naks",
        "comm.wait_stalls"}) {
    count(n);
  }
  for (int k = 0; k < kOpKinds; ++k) {
    const auto& v = on.ops.lat_ns[k];
    const std::string base = std::string("op.") + op_name(OpKind(k));
    add(base + ".p50_us", quantile_us(v, 0.50), "us");
    add(base + ".p99_us", v.size() >= kTailSamples ? quantile_us(v, 0.99) : 0,
        "us");
    add(base + ".samples", static_cast<double>(v.size()), "count");
  }

  // net transports and protocol engine.
  for (const char* n :
       {"transport.gets.eager", "transport.gets.rendezvous",
        "transport.puts.eager", "transport.puts.rendezvous",
        "transport.wire_bytes", "transport.control_msgs"}) {
    count(n);
  }
  add("wait.handler_cpu_us", queue_wait_us(on, ".core"), "us");
  add("wait.nic_tx_us", queue_wait_us(on, ".nic_tx"), "us");
  add("util.cpu_pct", mean_gauge(on, "util.cpu_pct"), "%");
  add("util.nic_pct", mean_gauge(on, "util.nic_pct"), "%");

  // net::Fabric and the IB verbs model.
  for (const char* n : {"fabric.msgs", "fabric.hops", "fabric.credit_waits",
                        "fabric.credit_wait_ns"}) {
    count(n);
  }
  add("util.fabric_pct", mean_gauge(on, "util.fabric_pct"), "%");
  for (const char* n : {"transport.ib.nic_atomics", "transport.ib.sq_stalls",
                        "transport.ib.inline_sends"}) {
    count(n);
  }

  // mem pinning and registration.
  count("pin.registrations");
  add("pin.pinned_bytes",
      on.phases.empty()
          ? 0.0
          : static_cast<double>(
                on.phases.back().report.counter("pin.pinned_bytes")),
      "count");
  count("regcache.hits");
  count("regcache.misses");

  // dis::KvStore.
  for (const char* n :
       {"kv.probes", "kv.cas_lost", "kv.lock_fallbacks", "kv.tier_remote"}) {
    const auto it = r.layer.find(n);
    add(n, it == r.layer.end() ? 0.0 : it->second, "count");
  }
  add("kv.gen_lag_p99_us",
      on.ops.gen_lag_ns.size() >= kTailSamples
          ? quantile_us(on.ops.gen_lag_ns, 0.99)
          : 0.0,
      "us");
  add("op_fail_ratio",
      attempted == 0 ? 0.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted),
      "ratio");
  return m;
}

// --- output -----------------------------------------------------------------

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Options& o) {
  const Clock::time_point start = Clock::now();
  const std::size_t min_rounds = o.trace ? 1 : 3;
  std::vector<HostTimes> host;
  std::vector<Metric> sim_ref;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  double setup_rss_mb = 0.0;

  auto account = [&](const Round& r) {
    for (const ConfigRun& c : r.configs) {
      attempted += c.ops.attempted;
      failed += c.ops.failed;
      if (c.ops.measured_ops() == 0) errors.push_back("no ops measured");
    }
    for (const std::string& e : r.errors) errors.push_back(e);
    const OpLog& on = r.configs[0].ops;
    if (on.lat_ns[kGet].size() < kTailSamples ||
        on.lat_ns[kPut].size() < kTailSamples) {
      errors.push_back("fewer than 1000 GET or PUT samples for a p99");
    }
    const std::vector<Metric> sim = sim_metrics(r);
    if (sim_ref.empty()) {
      sim_ref = sim;
      return;
    }
    for (std::size_t i = 0; i < sim.size(); ++i) {
      if (sim[i].value != sim_ref[i].value) {
        errors.push_back(sim[i].name + " differs between rounds of one seed");
      }
    }
  };

  while (host.size() < min_rounds ||
         seconds_between(start, Clock::now()) < o.seconds) {
    SpanLog off(false);
    const Clock::time_point t0 = Clock::now();
    const Round r = run_round(o.workload, o.seed, off);
    host.push_back(host_times(r, seconds_between(t0, Clock::now())));
    const HostTimes& h = host.back();
    std::printf("round %zu: setup %.4f s, run %.4f s, teardown %.4f s, "
                "wall %.4f s (cache on: run %.4f s, teardown %.5f s; "
                "off: run %.4f s, teardown %.5f s)\n",
                host.size(), h.setup_s, h.run_s, h.teardown_s, h.wall_s,
                r.configs[0].run_s(), r.configs[0].teardown_s(),
                r.configs[1].run_s(), r.configs[1].teardown_s());
    if (host.size() == 1) setup_rss_mb = peak_rss_mb();
    account(r);
  }

  std::vector<Metric> out;
  if (!o.trace) {
    // Every round repeats the same deterministic work, so the spread
    // between rounds is the host's doing. Set-up is the median round;
    // the other host times are the fastest round, which a host whose
    // speed drifts for tens of seconds moves far less than the median.
    auto med = [&host](double HostTimes::*f) {
      std::vector<double> v;
      for (const HostTimes& h : host) v.push_back(h.*f);
      return median(v);
    };
    auto fastest = [&host](double HostTimes::*f) {
      double best = host.front().*f;
      for (const HostTimes& h : host) best = std::min(best, h.*f);
      return best;
    };
    double eps = 0.0;
    for (const HostTimes& h : host) eps = std::max(eps, h.events / h.run_s);
    out = {{"setup_s", med(&HostTimes::setup_s), "s"},
           {"run_s", fastest(&HostTimes::run_s), "s"},
           {"teardown_s", fastest(&HostTimes::teardown_s), "s"},
           {"wall_s", fastest(&HostTimes::wall_s), "s"},
           {"events_per_s", eps, "1/s"},
           {"peak_rss_mb", peak_rss_mb(), "MB"}};
    for (const Metric& m : sim_ref) {
      if (m.name != "sim.events") out.push_back(m);
    }
    std::printf("rounds %zu\n", host.size());
  } else {
    SpanLog spans(true);
    const Clock::time_point t0 = Clock::now();
    const Round r = run_round(o.workload, o.seed, spans);
    const double traced_wall = seconds_between(t0, Clock::now());
    account(r);
    std::vector<double> walls;
    for (const HostTimes& h : host) walls.push_back(h.wall_s);
    out = layer_metrics(r, setup_rss_mb);
    out.push_back({"trace.overhead_s", traced_wall - median(walls), "s"});
    out.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
    if (!spans.write_chrome_json(o.trace_file)) {
      errors.push_back("cannot write " + o.trace_file);
    }
    std::printf("trace %s (%llu spans); tracing overhead %.4f s\n",
                o.trace_file.c_str(),
                static_cast<unsigned long long>(spans.size()),
                traced_wall - median(walls));
  }
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = errors.empty() && failed == 0;
  print_result(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
