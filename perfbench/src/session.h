// Timing, op recording and span capture shared by the workloads.
//
// A Session owns one core::Runtime for one configuration of one round.
// It times the constructor, the set-up runs, every measured phase, the
// Runtime::metrics() calls and the destructor on the host clock, and it
// snapshots a RunReport delta per measured phase (reset_metrics() before,
// metrics() after). Ops are timed in simulated time by the workload
// bodies through an OpLog. When tracing is on, a SpanLog keeps host and
// simulated spans in memory and writes them as Chrome trace-event JSON.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.h"

namespace perfbench {

namespace core = xlupc::core;
namespace sim = xlupc::sim;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum OpKind : std::uint8_t { kGet, kPut, kMemget, kAmo, kOpKinds };
const char* op_name(OpKind k);

/// In-memory trace of one process. Host spans are on the host clock;
/// simulated spans (phases and ops) are on the simulator's clock, one
/// Chrome process per configuration so cache-on and cache-off runs get
/// their own tracks. Every span has an id; ops name their phase as
/// parent, phases name their host span as parent.
class SpanLog {
 public:
  explicit SpanLog(bool on);

  bool on() const noexcept { return on_; }
  /// Open a host span; returns its id (0 when tracing is off).
  std::uint32_t host_begin(std::string name, std::uint32_t parent);
  void host_end(std::uint32_t id);
  /// Reserve a span id ahead of the span (a phase's ops need their
  /// parent's id before the phase's simulated extent is known).
  std::uint32_t reserve_id() { return on_ ? next_id_++ : 0; }
  void sim_phase(std::uint32_t id, std::uint32_t track, std::string name,
                 std::uint64_t start_ns, std::uint64_t end_ns,
                 std::uint32_t parent);
  void sim_op(std::uint32_t track, OpKind kind, std::uint32_t thread,
              std::uint64_t start_ns, std::uint64_t dur_ns,
              std::uint32_t parent);
  /// Name a simulated track (one Chrome process per configuration).
  std::uint32_t new_track(std::string name);
  std::uint64_t size() const noexcept {
    return host_.size() + phases_.size() + ops_.size();
  }
  /// Write every span as Chrome trace-event JSON; false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct HostSpan {
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
  };
  struct PhaseSpan {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t track = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
  };
  struct OpSpan {
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint32_t thread = 0;
    std::uint32_t parent = 0;
    std::uint16_t track = 0;
    OpKind kind = kGet;
  };

  bool on_;
  Clock::time_point origin_;
  std::uint32_t next_id_ = 1;
  std::vector<HostSpan> host_;
  std::vector<PhaseSpan> phases_;
  std::vector<OpSpan> ops_;
  std::vector<std::string> tracks_;
};

/// Simulated-time record of every op one configuration issued.
/// Latencies are kept only inside measured phases; attempts and
/// failures are counted everywhere (set-up and check runs too).
struct OpLog {
  std::array<std::vector<std::uint64_t>, kOpKinds> lat_ns;
  std::vector<std::uint64_t> gen_lag_ns;  ///< open loop: issue - due
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool measuring = false;

  /// One op of `kind` by `thread` that started at `start` (for an open
  /// loop: was due at `start`) and ended at `end`.
  void record(OpKind kind, std::uint32_t thread, std::uint64_t start,
              std::uint64_t end);
  /// An untimed op (set-up or check); counts a failure unless `ok`.
  void untimed(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// An op that failed (returned an error status or threw).
  void fail() { untimed(false); }
  std::uint64_t measured_ops() const;

  // Span capture, pointed at the current phase by the Session.
  SpanLog* spans = nullptr;
  std::uint32_t track = 0;
  std::uint32_t phase_span = 0;
};

struct PhaseResult {
  std::string name;
  double host_s = 0.0;
  std::uint64_t sim_ns = 0;
  core::RunReport report;  ///< delta over the phase
};

/// Host and simulated results of one configuration of one round.
struct ConfigRun {
  std::string label;
  double ctor_s = 0.0;
  double alloc_s = 0.0;    ///< set-up runs, initialisation, warm-up
  double metrics_s = 0.0;  ///< Runtime::metrics() and reset_metrics()
  double dtor_s = 0.0;
  std::vector<PhaseResult> phases;
  OpLog ops;

  double setup_s() const { return ctor_s + alloc_s; }
  double run_s() const;
  double teardown_s() const { return metrics_s + dtor_s; }
  std::uint64_t sim_ns() const;
  std::uint64_t events() const;
};

class Session {
 public:
  Session(core::RuntimeConfig cfg, ConfigRun& out, SpanLog& spans,
          std::uint32_t parent_span);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  core::Runtime& rt() { return *rt_; }

  /// An unmeasured run (allocation, preload), charged to set-up.
  void setup(core::Runtime::ThreadBody body);
  /// Host-side set-up work (debug_write initialisation, cache warm-up).
  template <class Fn>
  void setup_host(Fn&& fn) {
    const std::uint32_t s = spans_.host_begin("setup host", span_);
    const Clock::time_point t0 = Clock::now();
    fn(*rt_);
    out_.alloc_s += seconds_between(t0, Clock::now());
    spans_.host_end(s);
  }
  /// A measured phase: a fresh metrics window, one Runtime::run, and the
  /// window's RunReport.
  void phase(const std::string& name, core::Runtime::ThreadBody body);
  /// An unmeasured verification run after the measured phases.
  void check(core::Runtime::ThreadBody body);
  /// Destroy the runtime (timed as teardown).
  void finish();

 private:
  std::unique_ptr<core::Runtime> rt_;
  ConfigRun& out_;
  SpanLog& spans_;
  std::uint32_t span_;
};

}  // namespace perfbench
