#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace fs = std::filesystem;

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

const std::vector<LayerMetricSpec>& per_layer_specs() {
  static const std::vector<LayerMetricSpec> specs = [] {
    std::vector<LayerMetricSpec> s = {
        {"tb.phase.calls", "count"},
        {"tb.phase.self_ms", "ms"},
        {"bti.trap_ensemble.evolve.calls", "count"},
        {"bti.trap_ensemble.evolve.ms", "ms"},
        {"fpga.ro.delay_eval.calls", "count"},
        {"fpga.ro.delay_eval.ms", "ms"},
        {"fpga.chip.construct_ms", "ms"},
        {"bti.batch.evolve.calls", "count"},
        {"bti.batch.evolve.ms", "ms"},
        {"bti.batch.ns_per_trap_update", "ns"},
        {"bti.batch.rate_evals", "count"},
        {"bti.batch.bytes_per_step", "bytes"},
        {"bti.batch.construct_ms", "ms"},
    };
    for (const char* family :
         {"fleet.codec.encode_us.", "fleet.codec.parse_us.",
          "fleet.respond_us.", "fleet.server.latency_ms."}) {
      const std::string unit =
          std::string(family).rfind("fleet.server.", 0) == 0 ? "ms" : "us";
      for (const char* verb : kVerbs) s.push_back({family + std::string(verb), unit});
    }
    const std::vector<LayerMetricSpec> tail = {
        {"mc.margin_batch.us_per_device", "us"},
        {"fleet.state.serialize_us", "us"},
        {"fleet.state.bytes", "bytes"},
        {"fleet.store.save_us", "us"},
        {"fleet.idempotency.find_miss_us", "us"},
        {"fleet.server.queue_wait_ms", "ms"},
        {"fleet.client.retries", "count"},
        {"fleet.client.reconnects", "count"},
        {"obs.trace_overhead_frac", "frac"},
        {"obs.self_share_sum", "frac"},
    };
    s.insert(s.end(), tail.begin(), tail.end());
    return s;
  }();
  return specs;
}

// --- spans ---------------------------------------------------------------

namespace {
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

int SpanRecorder::begin(const std::string& name, int parent) {
  spans_.push_back(Span{name, parent, now_ns(), 0});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int span) {
  spans_[static_cast<std::size_t>(span)].t1_ns = now_ns();
}

double SpanRecorder::duration_ns(int span) const {
  const Span& s = spans_[static_cast<std::size_t>(span)];
  return static_cast<double>(s.t1_ns - s.t0_ns);
}

void SpanRecorder::adopt(const SpanRecorder& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(std::move(s));
  }
  for (Aggregate a : other.aggregates_) {
    a.parent += offset;
    aggregates_.push_back(std::move(a));
  }
}

void SpanRecorder::add_aggregate(int parent, const std::string& name,
                                 double ns, std::uint64_t calls) {
  aggregates_.push_back(Aggregate{parent, name, ns, calls});
}

std::map<std::string, double> SpanRecorder::self_ns() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  std::vector<double> aggregate_cover(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0_ns, s.t1_ns);
    }
  }
  std::map<std::string, double> self;
  for (const Aggregate& a : aggregates_) {
    aggregate_cover[static_cast<std::size_t>(a.parent)] += a.ns;
    self[a.name] += a.ns;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = aggregate_cover[i];
    std::int64_t reach = s.t0_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t lo = std::max(a, reach);
      const std::int64_t hi = std::min(b, s.t1_ns);
      if (hi > lo) covered += static_cast<double>(hi - lo);
      reach = std::max(reach, hi);
    }
    const double dur = static_cast<double>(s.t1_ns - s.t0_ns);
    self[s.name] += std::max(0.0, dur - covered);
  }
  return self;
}

double SpanRecorder::root_ns() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += static_cast<double>(s.t1_ns - s.t0_ns);
  }
  return total;
}

std::map<std::string, double> SpanRecorder::shares() const {
  std::map<std::string, double> out = self_ns();
  const double root = root_ns();
  for (auto& [name, v] : out) v = root > 0.0 ? v / root : 0.0;
  return out;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().t0_ns;
  os << "{\"traceEvents\": [\n";
  bool first = true;
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d}}",
                  first ? "" : ",\n", s.name.c_str(),
                  static_cast<double>(s.t0_ns - origin) * 1e-3,
                  static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3, i, s.parent);
    os << line;
    first = false;
  }
  for (const Aggregate& a : aggregates_) {
    const Span& p = spans_[static_cast<std::size_t>(a.parent)];
    std::snprintf(line, sizeof line,
                  "%s{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"t\", "
                  "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"args\": "
                  "{\"parent\": %d, \"aggregate_ns\": %.0f, \"calls\": %llu}}",
                  first ? "" : ",\n", a.name.c_str(),
                  static_cast<double>(p.t1_ns - origin) * 1e-3, a.parent, a.ns,
                  static_cast<unsigned long long>(a.calls));
    os << line;
    first = false;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

void finish_trace(const SpanRecorder& spans, const Options& options,
                  Result& result) {
  double sum = 0.0;
  for (const auto& [name, share] : spans.shares()) {
    sum += share;
    std::printf("  self-time share %-34s %7.3f %%\n", name.c_str(),
                share * 100.0);
  }
  std::printf("  self-time shares sum               %7.3f %%\n", sum * 100.0);
  result.per_layer["obs.self_share_sum"] = sum;
  result.check(sum <= 1.0 + 1e-9, "per-layer self-time shares sum to more "
                                  "than 100 %");
  const std::string path = options.work_dir + "/spans-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  result.check(spans.write_chrome_json(path), "cannot write spans to " + path);
  std::printf("  spans written to %s\n", path.c_str());
}

// --- host speed ------------------------------------------------------------

namespace {
/// One pass of the probe kernel over an L1/L2-resident array.
double probe_once() {
  static std::vector<double> data(1 << 12, 1.0);
  const auto t0 = Clock::now();
  double acc = 0.0;
  for (int pass = 0; pass < 16; ++pass) {
    for (double& x : data) {
      x = x * 0.999999 + std::exp(-x * 1e-3);
      acc += x;
    }
  }
  const double ms = seconds_since(t0) * 1e3;
  // Keep the loop observable so it cannot be folded away.
  static volatile double sink = 0.0;
  sink = sink + acc;
  return ms;
}

std::vector<double>& probe_log() {
  static std::vector<double> log;
  return log;
}
}  // namespace

double probe_ms() {
  // The median skips passes that a preemption landed in.
  std::vector<double> passes;
  for (int i = 0; i < 16; ++i) passes.push_back(probe_once());
  probe_log().push_back(median(passes));
  return probe_log().back();
}

double probe_mean_ms() {
  double sum = 0.0;
  for (double v : probe_log()) sum += v;
  return probe_log().empty() ? 0.0 : sum / static_cast<double>(probe_log().size());
}

void pin_to_one_vcpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(c, &set);
    ::sched_setaffinity(0, sizeof set, &set);
    return;
  }
}

// --- process / filesystem helpers -----------------------------------------

double self_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t directory_bytes(const std::string& path) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(path)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) throw std::runtime_error("cannot create " + path + ": " + ec.message());
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

}  // namespace perfbench
