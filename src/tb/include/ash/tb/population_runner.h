#pragma once

/// \file population_runner.h
/// The batch-engine lab: one campaign driven over a whole population of
/// chips in lockstep.
///
/// A statistical sweep runs the *same* schedule with the *same*
/// RunnerConfig on N chips that differ only in their seeds (corner,
/// mismatch, traps).  Run solo, that is N independent campaigns that
/// recompute identical instrument noise, identical fault draws and — for
/// homogeneous populations — identical trap-rate tables N times over.  The
/// PopulationRunner instead advances every chip through the schedule
/// together:
///
///   * one shared thermal chamber and supply (their noise streams derive
///     from (config.seed, phase, attempt), which the population shares, so
///     every solo run would hold bit-identical instrument state anyway);
///   * per-chip measurement rigs and fault injectors, constructed with the
///     solo derivation chains so each chip's recorded noise matches its
///     solo run bit-for-bit;
///   * the aging physics batched: one bti::BatchEnsemble per device site
///     (stage index x device index) spanning the population, so rates are
///     shared across chips whose trap kinetics coincide and the per-chip
///     work collapses to the fused occupancy update.
///
/// Determinism contract: the per-chip sample logs are
/// bit-identical to N independent ExperimentRunner::run calls with the
/// same RunnerConfig and per-chip test cases sharing this schedule.  The
/// bench bench_ablation_chip_variation asserts that byte equality against
/// both the threaded and the process-sharded per-chip paths.
///
/// Scope: this is the *clean-lab fast path*.  Lockstep cannot survive a
/// divergent control-flow decision for a single chip — a retried sample or
/// a watchdog phase rewind ages one chip's instruments past its
/// neighbours'.  Any sample that comes back invalid or implausible, and
/// any configuration that could not replay solo (the kill switch), throws
/// instead of silently diverging; run those chips solo.

#include <vector>

#include "ash/fpga/chip.h"
#include "ash/tb/data_log.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/test_case.h"
#include "ash/util/thread_pool.h"

namespace ash::tb {

/// Batch-engine knobs, forwarded to the per-site bti::BatchEnsemble.
struct PopulationRunnerConfig {
  /// Optional worker pool for the per-site occupancy sweeps.
  util::ThreadPool* pool = nullptr;
};

/// The lockstep population lab.
class PopulationRunner {
 public:
  /// `config` plays the role it has for ExperimentRunner and is shared by
  /// the whole population.  config.abort_at_campaign_s must stay disabled
  /// (< 0): a mid-campaign kill is a per-chip checkpoint concern the
  /// lockstep path does not model.
  explicit PopulationRunner(const RunnerConfig& config,
                            const PopulationRunnerConfig& population = {});

  /// Run the full schedule on every chip, mutating their aging state, and
  /// return one sample log per chip (in chip order).  All chips must share
  /// one RO structure (stage count).  `test_case.chip_id` is ignored, as
  /// in the solo runner — logged chip ids come from the chips themselves.
  ///
  /// Throws std::invalid_argument for an empty/null/mixed-structure
  /// population or an unsupported config, and std::logic_error when the
  /// campaign leaves the clean-lab contract (a sample retry, a watchdog
  /// trip, a lost reading) and bit-identical lockstep cannot continue.
  std::vector<DataLog> run(const std::vector<fpga::FpgaChip*>& chips,
                           const TestCase& test_case);

  const RunnerConfig& config() const { return config_; }

 private:
  RunnerConfig config_;
  PopulationRunnerConfig population_;
};

}  // namespace ash::tb
