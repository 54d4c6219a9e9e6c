// The benchmark's three workloads (README.md gives the rationale for
// each). A round runs one workload end to end, once with the remote
// address cache on and once with it off, each in a fresh Runtime, and
// checks the outputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "session.h"

namespace perfbench {

struct Round {
  /// [0] = cache on (the configuration users run; its simulated results
  /// and counters are reported), [1] = cache off (the baseline of
  /// cache_improvement_pct).
  std::vector<ConfigRun> configs;
  /// What cache_improvement_pct compares: false = the measured phases'
  /// simulated time (the Fig. 9 quantity), true = mean op latency, for
  /// workloads whose simulated time is set by an arrival schedule or by
  /// the slowest of thousands of threads.
  bool gain_by_latency = false;
  /// Output-check failures; empty when every output was correct.
  std::vector<std::string> errors;
  /// Workload-specific per-layer numbers (the kv.* family).
  std::map<std::string, double> layer;
};

bool known_workload(const std::string& name);
/// Names of every measured phase of every workload, in report order.
const std::vector<std::string>& phase_names();

/// Run one round of `name` on inputs generated from `seed`.
Round run_round(const std::string& name, std::uint64_t seed, SpanLog& spans);

}  // namespace perfbench
