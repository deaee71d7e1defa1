/// population_sweep: 1024 chips with log-normal corner spread (sigma 0.05
/// on delta_vth_mean_v) in 16 kinetics classes of 64 chips each, aged by
/// bti::BatchEnsemble in exact mode, serially, through the 474-step
/// drifting-chamber schedule (DC stress with an AC wake every 20 steps, a
/// -0.3 V recovery tail, a whole-fleet read every 16 steps).  tb, fpga and
/// fleet are bypassed.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <tuple>

#include "ash/bti/batch_ensemble.h"
#include "ash/bti/trap_ensemble.h"
#include "ash/obs/profile.h"
#include "ash/util/constants.h"
#include "ash/util/random.h"
#include "bench.h"

namespace perfbench {

namespace {

constexpr int kChips = 1024;
constexpr int kClasses = 16;
constexpr double kCornerSigma = 0.05;

struct Step {
  ash::bti::OperatingCondition condition;
  double dt_s = 0.0;
  bool read_fleet = false;
};

/// 360 drifting-temperature DC stress steps (a fresh condition each),
/// an AC measurement wake after every 20th, then 96 recovery steps at
/// -0.3 V / 110 C; every 16th stress or recovery step reads the fleet.
std::vector<Step> schedule() {
  std::vector<Step> steps;
  for (int s = 0; s < 360; ++s) {
    Step step;
    step.condition.voltage_v = ash::Volts{1.2};
    step.condition.temperature_k = ash::Kelvin{ash::celsius(110.0) + 0.011 * s};
    step.condition.gate_stress_duty = 1.0;
    step.dt_s = 60.0;
    step.read_fleet = (s % 16) == 15;
    steps.push_back(step);
    if ((s % 20) == 19) {
      Step wake;
      wake.condition = ash::bti::ac_stress(ash::Volts{1.2}, ash::Celsius{110.0}, 0.5);
      wake.dt_s = 2.7;
      steps.push_back(wake);
    }
  }
  for (int s = 0; s < 96; ++s) {
    Step step;
    step.condition = ash::bti::recovery(ash::Volts{-0.3}, ash::Celsius{110.0});
    step.dt_s = 600.0;
    step.read_fleet = (s % 16) == 15;
    steps.push_back(step);
  }
  return steps;
}

std::vector<ash::bti::BatchMemberSpec> population(std::uint64_t seed) {
  std::vector<ash::bti::BatchMemberSpec> specs;
  ash::Rng corners(ash::derive_seed(seed, 0xB0));
  for (int m = 0; m < kChips; ++m) {
    ash::bti::TdParameters p = ash::bti::default_td_parameters();
    p.delta_vth_mean_v = p.delta_vth_mean_v * std::exp(corners.normal(0.0, kCornerSigma));
    const int cls = m / (kChips / kClasses);
    specs.push_back({p, ash::derive_seed(seed, 0xB100 + static_cast<std::uint64_t>(cls))});
  }
  return specs;
}

/// One pass: every step, plus the periodic fleet reads (spanned when a
/// recorder is given).  Returns the sum of all reads.
double sweep(ash::bti::BatchEnsemble& batch, const std::vector<Step>& steps,
             SpanRecorder* spans, int parent) {
  double acc = 0.0;
  for (const Step& step : steps) {
    batch.evolve(step.condition, ash::Seconds{step.dt_s});
    if (step.read_fleet) {
      const int span = spans ? spans->begin("population.read", parent) : -1;
      for (int m = 0; m < kChips; ++m) acc += batch.delta_vth(m);
      if (spans) spans->end(span);
    }
  }
  return acc;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::pair<std::uint64_t, double> batch_kernel() {
  for (const auto& k : ash::obs::profile_snapshot()) {
    if (k.kernel == ash::obs::Kernel::kBtiBatchEvolve) {
      return {k.calls, static_cast<double>(k.total_ns)};
    }
  }
  return {0, 0.0};
}

}  // namespace

Result run_population_sweep(const Options& options) {
  Result r;
  const std::vector<Step> steps = schedule();
  const std::vector<ash::bti::BatchMemberSpec> specs = population(options.seed);

  // Warm-up pass: its final vector is the reference every timed pass must
  // reproduce, and what the independent engines are compared against.
  std::vector<double> reference;
  std::uint64_t total_traps = 0;
  int classes = 0;
  {
    ash::bti::BatchEnsemble batch(specs);
    (void)sweep(batch, steps, nullptr, -1);
    reference = batch.delta_vth_all();
    classes = batch.class_count();
    for (int m = 0; m < kChips; ++m) total_traps += static_cast<std::uint64_t>(batch.trap_count(m));
  }
  r.check(classes == kClasses, "population does not form 16 kinetics classes");

  ProbedClock clock;
  std::vector<double> build_s, build_raw_s, pass_s, norm_s, traced_norm_s;
  std::optional<ash::bti::BatchEnsemble> batch;
  const auto build = [&] {
    const ProbedClock::Interval t = clock.time([&] { batch.emplace(specs); });
    build_raw_s.push_back(t.raw_s);
    build_s.push_back(t.norm_s);
  };
  SpanRecorder spans;
  std::pair<std::uint64_t, double> kernel{0, 0.0};
  const auto start = Clock::now();
  do {
    build();
    const ProbedClock::Interval pass =
        clock.time([&] { (void)sweep(*batch, steps, nullptr, -1); });
    pass_s.push_back(pass.raw_s);
    norm_s.push_back(pass.norm_s);
    ++r.attempted;
    r.check(bit_equal(batch->delta_vth_all(), reference),
            "a timed pass diverged from the warm-up pass");
    if (options.trace) {
      build();
      ash::obs::enable_profiling(true);
      const auto before = batch_kernel();
      const int root = spans.begin("population.pass", -1);
      const ProbedClock::Interval traced = clock.time([&] {
        (void)sweep(*batch, steps, &spans, root);
        spans.end(root);
      });
      const auto after = batch_kernel();
      ash::obs::enable_profiling(false);
      traced_norm_s.push_back(traced.norm_s);
      spans.add_aggregate(root, "bti.batch.evolve", after.second - before.second,
                          after.first - before.first);
      kernel.first += after.first - before.first;
      kernel.second += after.second - before.second;
      r.check(bit_equal(batch->delta_vth_all(), reference),
              "the traced pass diverged from the untraced one");
    }
  } while (seconds_since(start) < options.seconds);
  const double peak_rss = self_peak_rss_mb();

  // Independent per-chip engines, once, outside the timed passes.
  {
    std::vector<ash::bti::TrapEnsemble> chips;
    chips.reserve(kChips);
    for (const auto& spec : specs) chips.emplace_back(spec.params, spec.seed);
    for (const Step& step : steps) {
      for (auto& chip : chips) chip.evolve(step.condition, ash::Seconds{step.dt_s});
    }
    std::vector<double> independent;
    for (const auto& chip : chips) independent.push_back(chip.delta_vth());
    r.check(bit_equal(independent, reference),
            "batch exact mode differs from independent TrapEnsembles");
  }

  const double chip_steps = static_cast<double>(kChips) * static_cast<double>(steps.size());
  const double norm_med = median(norm_s);
  const double state_bytes = static_cast<double>(total_traps) * 2.0 * sizeof(double);
  r.add_detail("setup_s", median(build_raw_s), "s", build_raw_s.size());
  r.add_detail("setup_s.normalized", median(build_s), "s", build_s.size());
  r.add_detail("pass_ms", median(pass_s) * 1e3, "ms", pass_s.size());
  r.add_detail("pass_ms.normalized", norm_med * 1e3, "ms", norm_s.size());
  r.add_detail("sweep_chip_steps_per_s", chip_steps / median(pass_s), "1/s", pass_s.size());
  r.add_detail("sweep_chip_steps_per_s.normalized", chip_steps / norm_med, "1/s", norm_s.size());
  r.add_detail("peak_rss_mb", peak_rss, "MB", 1);
  r.add_detail("member_state_bytes (computed)", state_bytes, "bytes", 1);
  r.add_detail("error_frac", 0.0, "frac", pass_s.size());
  r.add_detail("host_probe_ms (mean)", probe_mean_ms(), "ms", 1);

  r.end_to_end["setup_s"] = {median(build_s), "s", build_s.size()};
  r.end_to_end["op_p50_ms"] = {norm_med * 1e3, "ms", norm_s.size()};
  r.end_to_end["throughput_per_s"] = {chip_steps / norm_med, "1/s", norm_s.size()};
  r.end_to_end["peak_rss_mb"] = {peak_rss, "MB", 1};
  r.end_to_end["state_bytes"] = {state_bytes, "bytes", 1};

  if (options.trace) {
    // Distinct (condition, dt) pairs of one pass, times the classes: the
    // rate computations a per-class cache cannot avoid (computed).
    std::set<std::tuple<double, double, double, double>> distinct;
    for (const Step& s : steps) {
      distinct.insert({s.condition.voltage_v.value(), s.condition.temperature_k.value(),
                       s.condition.gate_stress_duty, s.dt_s});
    }
    const double passes = static_cast<double>(traced_norm_s.size());
    r.per_layer["bti.batch.evolve.calls"] = static_cast<double>(kernel.first);
    r.per_layer["bti.batch.evolve.ms"] = kernel.second * 1e-6;
    r.per_layer["bti.batch.ns_per_trap_update"] =
        kernel.second / (static_cast<double>(kernel.first) * static_cast<double>(total_traps));
    r.per_layer["bti.batch.rate_evals"] =
        passes * static_cast<double>(distinct.size()) * static_cast<double>(classes);
    // The fused sweep reads and writes each member trap's occupancy and
    // reads its class's p_inf and decay entries: 4 doubles per trap.
    r.per_layer["bti.batch.bytes_per_step"] =
        static_cast<double>(total_traps) * 4.0 * sizeof(double);
    r.per_layer["bti.batch.construct_ms"] = median(build_raw_s) * 1e3;
    r.per_layer["obs.trace_overhead_frac"] = median(traced_norm_s) / norm_med - 1.0;
    finish_trace(spans, options, r);
  }
  return r;
}

}  // namespace perfbench
