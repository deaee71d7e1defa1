/// bench_fig10_multicore — reproduces the Figure 10 / Section 6.2 study.
///
/// "Illustration of multi-core system self-healing": an 8-core + L3
/// floorplan where sleeping cores are heated by their active neighbours.
/// The bench compares four scheduling policies over a 2-year horizon and
/// reports the observables the paper argues about: the sleeping-core
/// temperature (heater effect), mean/worst aging, TDP behaviour and
/// time-to-margin lifetime.

#include <cstdio>

#include "ash/mc/system.h"
#include "ash/util/table.h"
#include "common.h"

int main() {
  using namespace ash;
  bench::print_banner(
      "Figure 10 — multi-core self-healing with on-chip heaters",
      "active neighbours heat sleeping cores; circadian scheduling extends "
      "lifetime and respects TDP");

  mc::SystemConfig cfg;
  cfg.horizon_s = Seconds{2.0 * 365.25 * 86400.0};
  cfg.margin_delta_vth_v = Volts{9e-3};

  mc::AllActiveScheduler all_active;
  mc::RoundRobinSleepScheduler rr_passive(/*rejuvenate=*/false);
  mc::RoundRobinSleepScheduler rr_active(/*rejuvenate=*/true);
  mc::HeaterAwareCircadianScheduler circadian;
  mc::Scheduler* schedulers[] = {&all_active, &rr_passive, &rr_active,
                                 &circadian};

  Table t({"policy", "sleep temp (degC)", "mean aging (mV)",
           "worst aging (mV)", "TDP violations", "time-to-margin (days)",
           "throughput (core-y)"});
  double baseline_ttm = 0.0;
  double circadian_ttm = 0.0;
  for (auto* s : schedulers) {
    const auto r = simulate_system(cfg, *s);
    if (s == &all_active) baseline_ttm = r.time_to_first_margin_s.value();
    if (s == &circadian) circadian_ttm = r.time_to_first_margin_s.value();
    t.add_row({r.scheduler,
               std::isnan(r.mean_sleep_temp_c.value())
                   ? std::string("-")
                   : fmt_fixed(r.mean_sleep_temp_c.value(), 1),
               fmt_fixed(r.mean_end_delta_vth_v.value() * 1e3, 2),
               fmt_fixed(r.worst_end_delta_vth_v.value() * 1e3, 2),
               strformat("%d", r.tdp_violations),
               r.margin_exceeded
                   ? fmt_fixed(r.time_to_first_margin_s.value() / 86400.0, 0)
                   : std::string(">").append(
                         fmt_fixed(cfg.horizon_s.value() / 86400.0, 0)) +
                         " (censored)",
               fmt_fixed(r.throughput_core_s.value() / (365.25 * 86400.0), 1)});
  }
  std::printf("%s\n", t.render().c_str());

  Table s({"check", "paper", "measured"});
  s.add_row({"sleeping cores heated well above 45 degC ambient",
             "yes ('on-chip heaters')", "see sleep temp column"});
  s.add_row({"circadian lifetime vs no-sleep baseline", "huge benefit",
             strformat("%.1fx (censored lower bound)",
                       circadian_ttm / baseline_ttm)});
  std::printf("%s\n", s.render().c_str());
  return 0;
}
