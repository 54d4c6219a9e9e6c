#include "session.h"

#include <cstdio>
#include <utility>

namespace perfbench {

const char* op_name(OpKind k) {
  switch (k) {
    case kGet: return "get";
    case kPut: return "put";
    case kMemget: return "memget";
    case kAmo: return "amo";
    case kOpKinds: break;
  }
  return "?";
}

// --- SpanLog -------------------------------------------------------------

SpanLog::SpanLog(bool on) : on_(on), origin_(Clock::now()) {}

std::uint32_t SpanLog::host_begin(std::string name, std::uint32_t parent) {
  if (!on_) return 0;
  HostSpan s;
  s.name = std::move(name);
  s.start_us = seconds_between(origin_, Clock::now()) * 1e6;
  s.id = next_id_++;
  s.parent = parent;
  host_.push_back(std::move(s));
  return host_.back().id;
}

void SpanLog::host_end(std::uint32_t id) {
  if (!on_) return;
  const double now_us = seconds_between(origin_, Clock::now()) * 1e6;
  for (auto it = host_.rbegin(); it != host_.rend(); ++it) {
    if (it->id == id) {
      it->dur_us = now_us - it->start_us;
      return;
    }
  }
}

std::uint32_t SpanLog::new_track(std::string name) {
  if (!on_) return 0;
  tracks_.push_back(std::move(name));
  return static_cast<std::uint32_t>(tracks_.size());
}

void SpanLog::sim_phase(std::uint32_t id, std::uint32_t track,
                        std::string name, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::uint32_t parent) {
  if (!on_) return;
  PhaseSpan s;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.track = track;
  s.id = id;
  s.parent = parent;
  phases_.push_back(std::move(s));
}

void SpanLog::sim_op(std::uint32_t track, OpKind kind, std::uint32_t thread,
                     std::uint64_t start_ns, std::uint64_t dur_ns,
                     std::uint32_t parent) {
  if (!on_) return;
  ops_.push_back(OpSpan{start_ns, dur_ns, thread, parent,
                        static_cast<std::uint16_t>(track), kind});
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // pid 0 is the host clock; pid N is simulated track N. Simulated
  // phases sit on tid 0 of their track, ops on tid 1 + UPC thread.
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
               "\"args\":{\"name\":\"host (wall clock)\"}}");
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    std::fprintf(f,
                 ",\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%zu,"
                 "\"tid\":0,\"args\":{\"name\":\"simulated: %s\"}}",
                 t + 1, tracks_[t].c_str());
  }
  for (const HostSpan& s : host_) {
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"cat\":\"host\",\"name\":\"%s\",\"pid\":0,"
                 "\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u}}",
                 s.name.c_str(), s.start_us, s.dur_us, s.id, s.parent);
  }
  for (const PhaseSpan& s : phases_) {
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"cat\":\"phase\",\"name\":\"%s\","
                 "\"pid\":%u,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%u,\"parent\":%u}}",
                 s.name.c_str(), s.track, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent);
  }
  for (const OpSpan& s : ops_) {
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"cat\":\"op\",\"name\":\"%s\",\"pid\":%u,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"parent\":%u}}",
                 op_name(s.kind), static_cast<unsigned>(s.track), s.thread + 1,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- OpLog, ConfigRun ----------------------------------------------------

void OpLog::record(OpKind kind, std::uint32_t thread, std::uint64_t start,
                   std::uint64_t end) {
  ++attempted;
  if (!measuring) return;
  lat_ns[kind].push_back(end - start);
  if (spans != nullptr) {
    spans->sim_op(track, kind, thread, start, end - start, phase_span);
  }
}

std::uint64_t OpLog::measured_ops() const {
  std::uint64_t n = 0;
  for (const auto& v : lat_ns) n += v.size();
  return n;
}

double ConfigRun::run_s() const {
  double s = 0.0;
  for (const PhaseResult& p : phases) s += p.host_s;
  return s;
}

std::uint64_t ConfigRun::sim_ns() const {
  std::uint64_t ns = 0;
  for (const PhaseResult& p : phases) ns += p.sim_ns;
  return ns;
}

std::uint64_t ConfigRun::events() const {
  std::uint64_t n = 0;
  for (const PhaseResult& p : phases) n += p.report.events;
  return n;
}

// --- Session -------------------------------------------------------------

Session::Session(core::RuntimeConfig cfg, ConfigRun& out, SpanLog& spans,
                 std::uint32_t parent_span)
    : out_(out), spans_(spans) {
  span_ = spans_.host_begin("config " + out_.label, parent_span);
  out_.ops.spans = spans_.on() ? &spans_ : nullptr;
  out_.ops.track = spans_.new_track(out_.label);
  const std::uint32_t s = spans_.host_begin("Runtime()", span_);
  const Clock::time_point t0 = Clock::now();
  rt_ = std::make_unique<core::Runtime>(std::move(cfg));
  out_.ctor_s += seconds_between(t0, Clock::now());
  spans_.host_end(s);
}

Session::~Session() {
  if (rt_) finish();
}

void Session::setup(core::Runtime::ThreadBody body) {
  const std::uint32_t s = spans_.host_begin("setup run", span_);
  const Clock::time_point t0 = Clock::now();
  rt_->run(std::move(body));
  out_.alloc_s += seconds_between(t0, Clock::now());
  spans_.host_end(s);
}

void Session::phase(const std::string& name, core::Runtime::ThreadBody body) {
  {
    const std::uint32_t s = spans_.host_begin("reset_metrics", span_);
    const Clock::time_point t0 = Clock::now();
    rt_->reset_metrics();
    out_.metrics_s += seconds_between(t0, Clock::now());
    spans_.host_end(s);
  }
  PhaseResult result;
  result.name = name;
  const std::uint32_t hs = spans_.host_begin("phase " + name, span_);
  const std::uint64_t sim0 = rt_->elapsed();
  const std::uint32_t sim_span = spans_.reserve_id();
  out_.ops.phase_span = sim_span;
  out_.ops.measuring = true;
  const Clock::time_point t0 = Clock::now();
  rt_->run(std::move(body));
  result.host_s = seconds_between(t0, Clock::now());
  out_.ops.measuring = false;
  result.sim_ns = rt_->elapsed() - sim0;
  spans_.host_end(hs);
  spans_.sim_phase(sim_span, out_.ops.track, name, sim0,
                   sim0 + result.sim_ns, hs);
  {
    const std::uint32_t s = spans_.host_begin("metrics", span_);
    const Clock::time_point t1 = Clock::now();
    result.report = rt_->metrics();
    out_.metrics_s += seconds_between(t1, Clock::now());
    spans_.host_end(s);
  }
  out_.phases.push_back(std::move(result));
}

void Session::check(core::Runtime::ThreadBody body) {
  const std::uint32_t s = spans_.host_begin("check run", span_);
  rt_->run(std::move(body));
  spans_.host_end(s);
}

void Session::finish() {
  const std::uint32_t s = spans_.host_begin("~Runtime()", span_);
  const Clock::time_point t0 = Clock::now();
  rt_.reset();
  out_.dtor_s += seconds_between(t0, Clock::now());
  spans_.host_end(s);
  spans_.host_end(span_);
}

}  // namespace perfbench
