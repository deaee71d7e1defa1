#pragma once

/// \file bench.h
/// Shared pieces of the libash benchmark: run options, the metric/result
/// record every workload fills, a small in-memory span recorder with
/// self-time accounting, the host-speed probe that normalizes timings, and
/// order statistics.  See perfbench/README.md.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory (relative to the working directory) for state
  /// directories, sockets and the span dump.
  std::string work_dir = ".bench_build/work";
};

/// Median of a sample (NaN-free input; empty gives 0).
double median(std::vector<double> values);
/// Linear-interpolated quantile, p in [0, 1] (empty gives 0).
double quantile(std::vector<double> values, double p);

/// One reported number with its unit and how many samples produced it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What one workload run produces.
struct Result {
  /// The gated end-to-end slots (same names on every workload).
  std::map<std::string, Metric> end_to_end;
  /// The workload's own end-to-end figures, printed in the report.
  std::vector<std::pair<std::string, Metric>> detail;
  /// Per-layer figures of a traced run (names from per_layer_specs()).
  std::map<std::string, double> per_layer;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> check_failures;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void add_detail(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
    detail.emplace_back(name, Metric{value, unit, samples});
  }
};

/// Every per-layer metric a traced run reports, in print order.  A layer
/// the workload never enters reports 0 (the bypass is itself the
/// prediction).  Mirrors the per_layer list of BENCHMARK.json.
struct LayerMetricSpec {
  std::string name;
  std::string unit;
};
const std::vector<LayerMetricSpec>& per_layer_specs();

/// The five fleet verbs the session mixes (suffixes of per-verb metrics).
inline constexpr const char* kVerbs[] = {"ping", "status", "margin",
                                         "margin_batch", "schedule_sleep"};

/// Spans recorded by the benchmark around its calls into the library.
/// Everything stays in memory; `write_chrome_json` dumps it at the end.
class SpanRecorder {
 public:
  /// Open a span under `parent` (-1 = root); returns its index.
  int begin(const std::string& name, int parent);
  void end(int span);
  /// Duration of a closed span, ns.
  double duration_ns(int span) const;
  /// Append another recorder's spans and aggregates (as further roots).
  void adopt(const SpanRecorder& other);
  /// Attach an aggregate child that has a total duration but no interval
  /// (an obs kernel counter read around the parent span).
  void add_aggregate(int parent, const std::string& name, double ns,
                     std::uint64_t calls);

  /// Self time per layer name in ns: each span's duration minus the part
  /// its children cover (the union of child intervals plus aggregate
  /// totals), clamped at zero; aggregates are their own self time.
  std::map<std::string, double> self_ns() const;
  /// Sum of root span durations, ns.
  double root_ns() const;
  /// Self-time share per layer (self / root total).
  std::map<std::string, double> shares() const;

  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
  };
  struct Aggregate {
    int parent = -1;
    std::string name;
    double ns = 0.0;
    std::uint64_t calls = 0;
  };
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
};

/// Checks that the self-time shares sum to at most 100 %, records the
/// per-layer `obs.self_share_sum`, and dumps the spans to the work dir.
void finish_trace(const SpanRecorder& spans, const Options& options,
                  Result& result);

/// Host-speed probe.  On a shared host the speed of one vCPU drifts by up
/// to ~1.7x within seconds (identical compute measured 29..56 ms), which no
/// in-run statistic removes.  So each timed interval is bracketed by probes
/// on the same vCPU — a fixed compute kernel independent of libash — and
/// its time is also reported normalized to the probe's nominal speed:
/// raw * kProbeNominalMs / mean(probe before, probe after).  A change to
/// libash moves the interval, not the probe.
double probe_ms();
/// Mean of every probe reading taken so far in this process.
double probe_mean_ms();
/// Typical probe time on the reference VM (the scale of normalized times).
inline constexpr double kProbeNominalMs = 0.6;

/// Times successive intervals, each bracketed by probes: an interval's
/// after-probe is the next interval's before-probe.
class ProbedClock {
 public:
  struct Interval {
    double raw_s = 0.0;
    double norm_s = 0.0;
  };
  ProbedClock() : last_probe_ms_(probe_ms()) {}
  template <class F>
  Interval time(F&& fn) {
    const auto t0 = Clock::now();
    fn();
    const double raw = seconds_since(t0);
    const double probe = probe_ms();
    const double factor = 2.0 * kProbeNominalMs / (last_probe_ms_ + probe);
    last_probe_ms_ = probe;
    return {raw, raw * factor};
  }

 private:
  double last_probe_ms_;
};

/// Pin the calling thread — and so every thread and process it starts
/// later — to the last vCPU it may run on.  Every workload runs on one
/// vCPU, where the probes measure it.
void pin_to_one_vcpu();

/// Peak resident set of this process so far, MB.
double self_peak_rss_mb();

/// Recursive size of a directory's regular files, bytes.
std::uint64_t directory_bytes(const std::string& path);

/// Create a directory and its parents; throws on failure.
void make_dirs(const std::string& path);
/// Remove a directory tree (best effort).
void remove_tree(const std::string& path);

// --- workloads ---------------------------------------------------------
Result run_chip5_campaign(const Options& options);
Result run_population_sweep(const Options& options);
Result run_fleet_session(const Options& options);

}  // namespace perfbench
