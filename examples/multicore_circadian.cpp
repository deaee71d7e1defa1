/// multicore_circadian — the Section 6.2 application: circadian
/// self-healing scheduling on an 8-core system.
///
/// Simulates the Fig. 10 floorplan for a configurable number of years
/// under each shipped scheduling policy and prints the system-architect's
/// view: sleeping-core temperature (the free "on-chip heater" effect),
/// aging statistics, TDP compliance and per-core wear fairness.
///
/// Usage:
///   ./build/examples/multicore_circadian [years] [cores_needed]
/// defaults: 3 years, 6-of-8 cores demanded.

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "ash/mc/system.h"
#include "ash/util/table.h"

int main(int argc, char** argv) {
  using namespace ash;
  const double years = argc > 1 ? std::atof(argv[1]) : 3.0;
  const int cores_needed = argc > 2 ? std::atoi(argv[2]) : 6;

  mc::SystemConfig cfg;
  cfg.horizon_s = Seconds{years * 365.25 * 86400.0};
  cfg.cores_needed = cores_needed;
  cfg.margin_delta_vth_v = Volts{9e-3};

  std::printf("8-core system, %d cores demanded, %.1f-year horizon, "
              "margin %.1f mV\n\n",
              cfg.cores_needed, years, cfg.margin_delta_vth_v.value() * 1e3);

  mc::AllActiveScheduler all_active;
  mc::RoundRobinSleepScheduler rr_passive(false);
  mc::RoundRobinSleepScheduler rr_rejuvenate(true);
  mc::HeaterAwareCircadianScheduler circadian;

  Table t({"policy", "sleep T (degC)", "mean aging (mV)", "worst (mV)",
           "perm spread", "TDP viol.", "lifetime (days)"});
  mc::Scheduler* schedulers[] = {&all_active, &rr_passive, &rr_rejuvenate,
                                 &circadian};
  for (mc::Scheduler* s : schedulers) {
    const auto r = simulate_system(cfg, *s);
    double perm_lo = 1e9;
    double perm_hi = 0.0;
    for (const Volts v : r.end_permanent_v) {
      perm_lo = std::min(perm_lo, v.value());
      perm_hi = std::max(perm_hi, v.value());
    }
    t.add_row({r.scheduler,
               std::isnan(r.mean_sleep_temp_c.value())
                   ? std::string("-")
                   : fmt_fixed(r.mean_sleep_temp_c.value(), 1),
               fmt_fixed(r.mean_end_delta_vth_v.value() * 1e3, 2),
               fmt_fixed(r.worst_end_delta_vth_v.value() * 1e3, 2),
               perm_lo > 0.0 ? fmt_fixed(perm_hi / perm_lo, 2) : "-",
               strformat("%d", r.tdp_violations),
               r.margin_exceeded
                   ? fmt_fixed(r.time_to_first_margin_s.value() / 86400.0, 0)
                   : std::string(">").append(
                         fmt_fixed(cfg.horizon_s.value() / 86400.0, 0))});
  }
  std::printf("%s\n", t.render().c_str());

  std::printf(
      "reading: sleepers sit ~20 degC above ambient thanks to their active\n"
      "neighbours (free heat for recovery); the heater-aware circadian\n"
      "policy keeps every core under the aging margin for the whole horizon\n"
      "while the always-on baseline burns through it, and rotation keeps\n"
      "irreversible wear spread evenly (perm spread ~ 1).\n");
  return 0;
}
