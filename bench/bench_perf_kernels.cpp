/// bench_perf_kernels — google-benchmark timings of the simulator kernels.
///
/// Not a paper figure: this measures the library's own hot paths so
/// regressions in simulation throughput are visible.  Covered kernels:
/// trap-ensemble evolution, closed-form ager segments, RO delay
/// evaluation, full-chip aging steps, thermal steady-state solves and a
/// multi-core scheduling interval.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "ash/bti/batch_ensemble.h"
#include "ash/bti/closed_form.h"
#include "ash/bti/trap_ensemble.h"
#include "ash/fpga/chip.h"
#include "ash/mc/system.h"
#include "ash/obs/profile.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/test_case.h"
#include "ash/util/constants.h"
#include "ash/util/random.h"

namespace {

using namespace ash;

void BM_TrapEnsembleEvolve(benchmark::State& state) {
  bti::TrapEnsemble e(bti::default_td_parameters(), 1);
  const auto cond = bti::dc_stress(Volts{1.2}, Celsius{110.0});
  for (auto _ : state) {
    e.evolve(cond, Seconds{60.0});
    benchmark::DoNotOptimize(e.delta_vth());
  }
}
BENCHMARK(BM_TrapEnsembleEvolve);

void BM_TrapEnsembleDeltaVth(benchmark::State& state) {
  bti::TrapEnsemble e(bti::default_td_parameters(), 1);
  e.evolve(bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(24.0)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.delta_vth());
  }
}
BENCHMARK(BM_TrapEnsembleDeltaVth);

void BM_ClosedFormAgerCycle(benchmark::State& state) {
  bti::ClosedFormAger ager(
      bti::ClosedFormParameters::from_td(bti::default_td_parameters()));
  const auto stress = bti::dc_stress(Volts{1.2}, Celsius{110.0});
  const auto heal = bti::recovery(Volts{-0.3}, Celsius{110.0});
  for (auto _ : state) {
    ager.evolve(stress, Seconds{hours(24.0)});
    ager.evolve(heal, Seconds{hours(6.0)});
    benchmark::DoNotOptimize(ager.delta_vth());
  }
}
BENCHMARK(BM_ClosedFormAgerCycle);

void BM_RingOscillatorFrequency(benchmark::State& state) {
  fpga::ChipConfig cc;
  cc.ro_stages = static_cast<int>(state.range(0));
  fpga::FpgaChip chip(cc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chip.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value());
  }
}
BENCHMARK(BM_RingOscillatorFrequency)->Arg(15)->Arg(75);

void BM_ChipEvolveDcHour(benchmark::State& state) {
  fpga::ChipConfig cc;
  cc.ro_stages = static_cast<int>(state.range(0));
  fpga::FpgaChip chip(cc);
  const auto cond = bti::dc_stress(Volts{1.2}, Celsius{110.0});
  for (auto _ : state) {
    chip.evolve(fpga::RoMode::kDcFrozen, cond, Seconds{hours(1.0)});
  }
}
BENCHMARK(BM_ChipEvolveDcHour)->Arg(15)->Arg(75);

void BM_BatchEnsembleEvolveNoisy(benchmark::State& state) {
  // One batch step of a homogeneous-kinetics population under a drifting
  // (never-repeating) condition — the regime where the per-chip engine
  // pays a full rate recomputation per member and the batch engine pays
  // one per class.
  const int chips = static_cast<int>(state.range(0));
  std::vector<bti::BatchMemberSpec> specs;
  Rng scales(0xC082);
  for (int m = 0; m < chips; ++m) {
    bti::TdParameters p = bti::default_td_parameters();
    p.delta_vth_mean_v = p.delta_vth_mean_v * std::exp(scales.normal(0.0, 0.05));
    specs.push_back({p, 0xBA7C});
  }
  bti::BatchEnsemble batch(specs, {});
  double temp_k = celsius(110.0);
  for (auto _ : state) {
    bti::OperatingCondition cond;
    cond.voltage_v = Volts{1.2};
    cond.temperature_k = Kelvin{temp_k};
    cond.gate_stress_duty = 1.0;
    batch.evolve(cond, Seconds{60.0});
    temp_k += 1e-4;  // unique condition every step
  }
  benchmark::DoNotOptimize(batch.delta_vth(0));
}
BENCHMARK(BM_BatchEnsembleEvolveNoisy)->Arg(256)->Arg(1024);

void BM_ThermalSteadyState(benchmark::State& state) {
  const mc::Floorplan fp;
  const mc::ThermalModel model(fp, mc::ThermalConfig{});
  std::vector<double> powers(static_cast<std::size_t>(fp.node_count()), 8.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.solve_steady_state(powers));
  }
}
BENCHMARK(BM_ThermalSteadyState);

void BM_MulticoreSimMonth(benchmark::State& state) {
  mc::SystemConfig cfg;
  cfg.horizon_s = Seconds{30.0 * 86400.0};
  for (auto _ : state) {
    mc::HeaterAwareCircadianScheduler scheduler;
    benchmark::DoNotOptimize(mc::simulate_system(cfg, scheduler));
  }
}
BENCHMARK(BM_MulticoreSimMonth);

double wall_ms(const std::chrono::steady_clock::time_point begin,
               const std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

/// `--json` mode: run a fixed, deterministic workload with the in-library
/// kernel timers on and emit machine-readable numbers for the CI
/// perf-smoke gate (tools/check_perf_regression.py).  The workload covers
/// the three regimes that matter: the steady-state trap kernel (rate-cache
/// hits), the chip-5 runner campaign (chamber noise defeats the cache —
/// the honest end-to-end number) and a fixed-condition drive of the same
/// chip (cache-friendly end-to-end).
int run_json_mode(const std::string& path) {
  using clock = std::chrono::steady_clock;
  using namespace ash;
  obs::enable_profiling(true);
  obs::reset_profile();

  // Steady-state trap kernel: one condition, repeated steps.
  {
    bti::TrapEnsemble e(bti::default_td_parameters(), 1);
    const auto cond = bti::dc_stress(Volts{1.2}, Celsius{110.0});
    for (int i = 0; i < 200000; ++i) e.evolve(cond, Seconds{60.0});
    benchmark::DoNotOptimize(e.delta_vth());
  }

  // Repeated RO reads at a fixed operating point (cached path delays).
  {
    fpga::ChipConfig cc;
    cc.ro_stages = 75;
    fpga::FpgaChip chip(cc);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
      sum += chip.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value();
    }
    benchmark::DoNotOptimize(sum);
  }

  // End-to-end chip-5 campaign through the full instrument stack.
  const tb::TestCase tc = tb::paper_campaign().at(4);
  double campaign_ms = 0.0;
  {
    fpga::ChipConfig cc;
    cc.chip_id = tc.chip_id;
    cc.seed = 0x40A0 + static_cast<std::uint64_t>(tc.chip_id);
    cc.ro_stages = 75;
    fpga::FpgaChip chip(cc);
    tb::ExperimentRunner runner{tb::RunnerConfig{}};
    const auto t0 = clock::now();
    const auto result = runner.run_campaign(chip, tc);
    campaign_ms = wall_ms(t0, clock::now());
    benchmark::DoNotOptimize(result.log.size());
  }

  // The same chip schedule driven at fixed per-phase conditions (no
  // chamber noise): what the trap kernel does when the rate cache can
  // actually hit.
  double fixed_drive_ms = 0.0;
  {
    fpga::ChipConfig cc;
    cc.chip_id = tc.chip_id;
    cc.seed = 0x40A0 + static_cast<std::uint64_t>(tc.chip_id);
    cc.ro_stages = 75;
    fpga::FpgaChip chip(cc);
    const auto t0 = clock::now();
    for (const auto& phase : tc.phases) {
      bti::OperatingCondition cond;
      cond.voltage_v = phase.supply_v;
      cond.temperature_k = Kelvin{celsius(phase.chamber_c.value())};
      cond.gate_stress_duty =
          phase.mode == fpga::RoMode::kAcOscillating ? phase.ac_duty
          : phase.mode == fpga::RoMode::kDcFrozen    ? 1.0
                                                     : 0.0;
      const int steps = std::max(
          1, phase.sample_every_s > Seconds{0.0}
                 ? static_cast<int>(phase.duration_s / phase.sample_every_s)
                 : 1);
      const double dt = phase.duration_s.value() / steps;
      for (int s = 0; s < steps; ++s) {
        chip.evolve(phase.mode, cond, Seconds{dt});
        // Read at the nominal measurement rail (sleep phases bias the
        // core below threshold; the counter always runs at 1.2 V).
        benchmark::DoNotOptimize(
            chip.ro_frequency_hz(Volts{1.2}, cond.temperature_k).value());
      }
    }
    fixed_drive_ms = wall_ms(t0, clock::now());
  }

  // One multicore month exercises the mc.* kernel split.
  {
    mc::SystemConfig cfg;
    cfg.horizon_s = Seconds{30.0 * 86400.0};
    mc::HeaterAwareCircadianScheduler scheduler;
    benchmark::DoNotOptimize(mc::simulate_system(cfg, scheduler));
  }

  // Population sweep (the acceptance workload): 1024 chips of one
  // kinetics class (shared seed, per-chip DeltaVth corner scale) driven
  // through a noisy fleet campaign — drifting chamber temperature (every
  // interval a fresh condition), periodic AC measurement wakes, a steady
  // recovery tail, and a whole-fleet margin read every 16 steps.  Two
  // passes over the identical schedule: 1024 independent TrapEnsembles and
  // the batch engine (asserted bit-identical).
  constexpr int kPopChips = 1024;
  double pop_independent_ms = 0.0;
  double pop_batch_ms = 0.0;
  int pop_steps = 0;
  {
    struct PopStep {
      bti::OperatingCondition condition;
      double dt_s = 0.0;
      bool read_fleet = false;
    };
    std::vector<PopStep> schedule;
    for (int s = 0; s < 360; ++s) {
      PopStep step;
      step.condition.voltage_v = Volts{1.2};
      step.condition.temperature_k = Kelvin{celsius(110.0) + 0.011 * s};
      step.condition.gate_stress_duty = 1.0;
      step.dt_s = 60.0;
      step.read_fleet = (s % 16) == 15;
      schedule.push_back(step);
      if ((s % 20) == 19) {
        PopStep wake;
        wake.condition = bti::ac_stress(Volts{1.2}, Celsius{110.0}, 0.5);
        wake.dt_s = 2.7;
        schedule.push_back(wake);
      }
    }
    for (int s = 0; s < 96; ++s) {
      PopStep step;
      step.condition = bti::recovery(Volts{-0.3}, Celsius{110.0});
      step.dt_s = 600.0;
      step.read_fleet = (s % 16) == 15;
      schedule.push_back(step);
    }
    pop_steps = static_cast<int>(schedule.size());

    std::vector<bti::BatchMemberSpec> specs;
    Rng scales(0x90F7);
    for (int m = 0; m < kPopChips; ++m) {
      bti::TdParameters p = bti::default_td_parameters();
      p.delta_vth_mean_v = p.delta_vth_mean_v * std::exp(scales.normal(0.0, 0.05));
      specs.push_back({p, 0xF1EE7});
    }

    // Pass 1: independent per-chip engines.  Profiling off so the huge
    // one-shot-condition call count does not skew the
    // bti.trap_ensemble.evolve row the perf gate compares.
    std::vector<double> independent_delta(kPopChips, 0.0);
    obs::enable_profiling(false);
    {
      std::vector<bti::TrapEnsemble> fleet;
      fleet.reserve(kPopChips);
      for (const auto& spec : specs) fleet.emplace_back(spec.params, spec.seed);
      const auto t0 = clock::now();
      double acc = 0.0;
      for (const auto& step : schedule) {
        for (auto& chip : fleet) chip.evolve(step.condition, Seconds{step.dt_s});
        if (step.read_fleet) {
          for (const auto& chip : fleet) acc += chip.delta_vth();
        }
      }
      pop_independent_ms = wall_ms(t0, clock::now());
      benchmark::DoNotOptimize(acc);
      for (int m = 0; m < kPopChips; ++m) {
        independent_delta[static_cast<std::size_t>(m)] =
            fleet[static_cast<std::size_t>(m)].delta_vth();
      }
    }
    obs::enable_profiling(true);

    // Pass 2: batch engine (this is the bti.batch.evolve row).
    {
      bti::BatchEnsemble batch(specs);
      const auto t0 = clock::now();
      double acc = 0.0;
      for (const auto& step : schedule) {
        batch.evolve(step.condition, Seconds{step.dt_s});
        if (step.read_fleet) {
          for (int m = 0; m < kPopChips; ++m) acc += batch.delta_vth(m);
        }
      }
      pop_batch_ms = wall_ms(t0, clock::now());
      benchmark::DoNotOptimize(acc);
      for (int m = 0; m < kPopChips; ++m) {
        if (batch.delta_vth(m) != independent_delta[static_cast<std::size_t>(m)]) {
          std::fprintf(stderr,
                       "bench_perf_kernels: batch engine diverged from "
                       "independent runs at chip %d\n",
                       m);
          return 1;
        }
      }
    }
  }

  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "bench_perf_kernels: cannot write %s\n",
                 path.c_str());
    return 1;
  }
  os << "{\n  \"kernels\": [\n";
  const auto profiles = obs::profile_snapshot();
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& p = profiles[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"calls\": %llu, \"total_ns\": "
                  "%llu, \"ns_per_call\": %.1f}%s\n",
                  obs::to_string(p.kernel),
                  static_cast<unsigned long long>(p.calls),
                  static_cast<unsigned long long>(p.total_ns),
                  static_cast<double>(p.total_ns) /
                      static_cast<double>(p.calls),
                  i + 1 < profiles.size() ? "," : "");
    os << line;
  }
  char tail[560];
  std::snprintf(tail, sizeof(tail),
                "  ],\n  \"chip5_campaign_wall_ms\": %.1f,\n"
                "  \"chip5_fixed_drive_wall_ms\": %.1f,\n"
                "  \"population_chips\": %d,\n"
                "  \"population_steps\": %d,\n"
                "  \"population_independent_wall_ms\": %.1f,\n"
                "  \"population_batch_wall_ms\": %.1f,\n"
                "  \"population_speedup_exact\": %.2f\n}\n",
                campaign_ms, fixed_drive_ms, kPopChips, pop_steps,
                pop_independent_ms, pop_batch_ms,
                pop_independent_ms / pop_batch_ms);
  os << tail;
  std::printf("wrote %s\n%s", path.c_str(), obs::profile_table().c_str());
  std::printf("chip5 campaign: %.1f ms   fixed drive: %.1f ms\n",
              campaign_ms, fixed_drive_ms);
  std::printf(
      "population (%d chips, %d steps): independent %.1f ms   batch %.1f ms "
      "(%.1fx)\n",
      kPopChips, pop_steps, pop_independent_ms, pop_batch_ms,
      pop_independent_ms / pop_batch_ms);
  return 0;
}

}  // namespace

/// BENCHMARK_MAIN() plus the ash::obs profile: the same run that times the
/// kernels also aggregates the in-library kernel timers, so the share
/// breakdown (where does a multicore month actually go?) prints alongside
/// the google-benchmark numbers.  `--json FILE` (default
/// BENCH_kernels.json) switches to the fixed CI workload instead; the
/// custom flag is stripped before benchmark::Initialize sees it.
int main(int argc, char** argv) {
  std::string json_path;
  bool json_mode = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_mode = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_mode = true;
      json_path = arg.substr(7);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (json_mode) {
    return run_json_mode(json_path.empty() ? "BENCH_kernels.json"
                                           : json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ash::obs::enable_profiling(true);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("\nin-library kernel profile (aggregated over all runs):\n%s",
              ash::obs::profile_table().c_str());
  return 0;
}
