/// chip5_campaign: the Table 1 chip-5 schedule (stress, -0.3 V / 110 C
/// heal, re-stress; the paper's Fig. 9) on a 75-stage chip, run through
/// tb::ExperimentRunner in a clean lab with chamber noise on.  The
/// per-chip path: tb -> fpga -> bti, never the batch engine or fleet.

#include <cstdio>
#include <optional>
#include <sstream>
#include <string>

#include "ash/fpga/chip.h"
#include "ash/obs/profile.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/test_case.h"
#include "ash/util/crc32.h"
#include "ash/util/random.h"
#include "bench.h"

namespace perfbench {

namespace {

/// The chip-5 log that seed kPinnedSeed produces must CRC to kPinnedCrc;
/// every invocation re-runs it first (doubling as the warm-up campaign),
/// so a change to the simulated physics or the log format fails the
/// benchmark whatever seed it was asked for.
constexpr std::uint64_t kPinnedSeed = 1;
constexpr std::uint32_t kPinnedCrc = 0x98eec88e;

/// Chip builds per run for the setup_s median (besides one per campaign).
constexpr int kExtraChipBuilds = 12;

struct Inputs {
  ash::tb::TestCase test_case;
  ash::fpga::ChipConfig chip;
  ash::tb::RunnerConfig runner;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.test_case = ash::tb::paper_campaign().at(4);
  in.chip.chip_id = in.test_case.chip_id;
  in.chip.seed = ash::derive_seed(seed, 0xC5);
  in.chip.ro_stages = 75;
  in.runner.seed = ash::derive_seed(seed, 0xC6);
  in.runner.chamber.seed = ash::derive_seed(seed, 0xC7);
  return in;
}

std::string csv_of(const ash::tb::DataLog& log) {
  std::ostringstream os;
  log.write_csv(os);
  return os.str();
}

struct KernelTotals {
  double evolve_ns = 0.0, delay_ns = 0.0;
  std::uint64_t evolve_calls = 0, delay_calls = 0;
};

KernelTotals kernel_totals() {
  KernelTotals t;
  for (const auto& k : ash::obs::profile_snapshot()) {
    if (k.kernel == ash::obs::Kernel::kTrapEnsembleEvolve) {
      t.evolve_ns = static_cast<double>(k.total_ns);
      t.evolve_calls = k.calls;
    } else if (k.kernel == ash::obs::Kernel::kRoDelayEval) {
      t.delay_ns = static_cast<double>(k.total_ns);
      t.delay_calls = k.calls;
    }
  }
  return t;
}

/// One campaign, stepped a phase at a time (initial_checkpoint +
/// run_campaign(..., max_phases = 1)), each phase a probed interval.
/// Traced, it records a root span, a span per phase, and the obs kernel
/// counters read around each phase as that phase's aggregate children.
struct Stepped {
  ash::tb::CampaignResult result;
  ProbedClock::Interval time;
};

Stepped stepped_campaign(const Inputs& in, ash::fpga::FpgaChip& chip, ProbedClock& clock,
                         SpanRecorder* spans, KernelTotals* sum) {
  ash::tb::ExperimentRunner runner(in.runner);
  Stepped out;
  out.result.checkpoint = ash::tb::initial_checkpoint(chip, in.test_case, in.runner);
  const auto phases = static_cast<int>(in.test_case.phases.size());
  const int root = spans ? spans->begin("campaign", -1) : -1;
  while (out.result.checkpoint.next_phase < phases) {
    const ProbedClock::Interval phase = clock.time([&] {
      const KernelTotals before = spans ? kernel_totals() : KernelTotals{};
      const int span = spans ? spans->begin("tb.phase", root) : -1;
      out.result = runner.run_campaign(chip, in.test_case, out.result.checkpoint, 1);
      if (!spans) return;
      spans->end(span);
      const KernelTotals after = kernel_totals();
      spans->add_aggregate(span, "bti.trap_ensemble.evolve",
                           after.evolve_ns - before.evolve_ns,
                           after.evolve_calls - before.evolve_calls);
      spans->add_aggregate(span, "fpga.ro.delay_eval", after.delay_ns - before.delay_ns,
                           after.delay_calls - before.delay_calls);
      sum->evolve_ns += after.evolve_ns - before.evolve_ns;
      sum->delay_ns += after.delay_ns - before.delay_ns;
      sum->evolve_calls += after.evolve_calls - before.evolve_calls;
      sum->delay_calls += after.delay_calls - before.delay_calls;
    });
    out.time.raw_s += phase.raw_s;
    out.time.norm_s += phase.norm_s;
  }
  if (spans) spans->end(root);
  return out;
}

/// The log of one whole, unstepped run_campaign call.
std::string whole_campaign_csv(const Inputs& in) {
  ash::fpga::FpgaChip chip(in.chip);
  ash::tb::ExperimentRunner runner(in.runner);
  return csv_of(runner.run_campaign(chip, in.test_case).log);
}

}  // namespace

Result run_chip5_campaign(const Options& options) {
  Result r;
  {
    const std::string csv = whole_campaign_csv(make_inputs(kPinnedSeed));
    const std::uint32_t crc = ash::util::crc32(csv);
    std::printf("  pinned chip-5 log (seed %llu): %zu bytes crc32 %08x\n",
                static_cast<unsigned long long>(kPinnedSeed), csv.size(), crc);
    r.check(crc == kPinnedCrc, "pinned chip-5 sample-log crc32 changed");
  }

  const Inputs in = make_inputs(options.seed);
  // Every stepped campaign, timed or traced, must log exactly what one
  // whole run_campaign call logs for this seed.
  const std::string reference_csv = whole_campaign_csv(in);

  ProbedClock clock;
  std::vector<double> build_s, build_raw_s;
  std::optional<ash::fpga::FpgaChip> chip;
  const auto build_chip = [&] {
    const ProbedClock::Interval t = clock.time([&] { chip.emplace(in.chip); });
    build_raw_s.push_back(t.raw_s);
    build_s.push_back(t.norm_s);
  };
  for (int i = 0; i < kExtraChipBuilds; ++i) build_chip();

  std::vector<double> campaign_s, norm_s, traced_norm_s;
  std::size_t samples = 0;
  std::size_t checkpoint_bytes = 0;
  SpanRecorder spans;
  KernelTotals kernels;
  if (options.trace) ash::obs::reset_profile();
  const auto start = Clock::now();
  do {
    build_chip();
    const Stepped run = stepped_campaign(in, *chip, clock, nullptr, nullptr);
    campaign_s.push_back(run.time.raw_s);
    norm_s.push_back(run.time.norm_s);
    ++r.attempted;
    if (samples == 0) {
      samples = run.result.log.size();
      checkpoint_bytes = run.result.checkpoint.serialize().size();
    }
    r.check(run.result.completed, "campaign did not complete");
    r.check(csv_of(run.result.log) == reference_csv,
            "stepped campaign log differs from the whole-campaign log");

    if (options.trace) {
      build_chip();
      ash::obs::enable_profiling(true);
      const Stepped traced = stepped_campaign(in, *chip, clock, &spans, &kernels);
      ash::obs::enable_profiling(false);
      traced_norm_s.push_back(traced.time.norm_s);
      r.check(csv_of(traced.result.log) == reference_csv,
              "traced campaign log differs from the untraced one");
    }
  } while (seconds_since(start) < options.seconds);

  const double peak_rss = self_peak_rss_mb();
  const double norm_med = median(norm_s);
  r.add_detail("setup_s", median(build_raw_s), "s", build_raw_s.size());
  r.add_detail("setup_s.normalized", median(build_s), "s", build_s.size());
  r.add_detail("campaign_s", median(campaign_s), "s", campaign_s.size());
  r.add_detail("campaign_s.normalized", norm_med, "s", norm_s.size());
  r.add_detail("samples_per_campaign", static_cast<double>(samples), "count", 1);
  r.add_detail("peak_rss_mb", peak_rss, "MB", 1);
  r.add_detail("checkpoint_bytes", static_cast<double>(checkpoint_bytes), "bytes", 1);
  r.add_detail("error_frac", 0.0, "frac", campaign_s.size());
  r.add_detail("host_probe_ms (mean)", probe_mean_ms(), "ms", 1);

  r.end_to_end["setup_s"] = {median(build_s), "s", build_s.size()};
  r.end_to_end["op_p50_ms"] = {norm_med * 1e3, "ms", norm_s.size()};
  r.end_to_end["throughput_per_s"] = {static_cast<double>(samples) / norm_med, "1/s",
                                      norm_s.size()};
  r.end_to_end["peak_rss_mb"] = {peak_rss, "MB", 1};
  r.end_to_end["state_bytes"] = {static_cast<double>(checkpoint_bytes), "bytes", 1};

  if (options.trace) {
    const auto phases = static_cast<double>(traced_norm_s.size() * in.test_case.phases.size());
    const auto self = spans.self_ns();
    r.per_layer["tb.phase.calls"] = phases;
    r.per_layer["tb.phase.self_ms"] = self.at("tb.phase") * 1e-6;
    r.per_layer["bti.trap_ensemble.evolve.calls"] = static_cast<double>(kernels.evolve_calls);
    r.per_layer["bti.trap_ensemble.evolve.ms"] = kernels.evolve_ns * 1e-6;
    r.per_layer["fpga.ro.delay_eval.calls"] = static_cast<double>(kernels.delay_calls);
    r.per_layer["fpga.ro.delay_eval.ms"] = kernels.delay_ns * 1e-6;
    r.per_layer["fpga.chip.construct_ms"] = median(build_raw_s) * 1e3;
    r.per_layer["obs.trace_overhead_frac"] = median(traced_norm_s) / norm_med - 1.0;
    finish_trace(spans, options, r);
  }
  return r;
}

}  // namespace perfbench
