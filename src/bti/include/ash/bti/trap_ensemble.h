#pragma once

/// \file trap_ensemble.h
/// The stochastic Trapping/Detrapping model: an ensemble of oxide traps per
/// device.
///
/// This is the ground-truth physics layer of the reproduction (the stand-in
/// for the paper's actual 40 nm silicon).  Its macroscopic behaviour —
/// log(1+Ct) stress growth, amplitude ∝ phi(V,T), fast-then-log partial
/// recovery, AC ≈ ½ DC — *emerges* from the microscopic trap kinetics; the
/// paper's closed-form Eqs. (1)–(4) are then fit against it exactly as the
/// authors fit their equations against chip measurements.
///
/// Performance architecture (DESIGN.md Sec. 8): the trap population is
/// stored structure-of-arrays, and the per-condition rate constants (two
/// exponentials and two divisions per trap in the naive formulation) are
/// memoized by the device's `RateMemo` (rate_memo.h), the aging kernel this
/// class shares with `BatchEnsemble`.  Campaigns apply the same handful of
/// conditions for millions of steps, so the steady-state cost of `evolve`
/// is one fused multiply-add sweep over the ensemble — no `exp()` at all
/// when the (condition, dt) pair repeats.  Trajectories are pinned
/// bit-for-bit by tests/perf/golden_trajectory_test.cpp.

#include <cstdint>
#include <vector>

#include "ash/bti/condition.h"
#include "ash/bti/parameters.h"
#include "ash/bti/rate_memo.h"

namespace ash::bti {

/// Ensemble of traps belonging to one transistor's gate oxide.
///
/// Value-semantic: copying an ensemble snapshots the full degradation state
/// (used by the what-if planner).  Deterministic: the trap population is a
/// pure function of (parameters, seed).
class TrapEnsemble {
 public:
  /// Build a fresh (unstressed) device.  `seed` individualizes the trap
  /// population — two devices with different seeds age statistically alike
  /// but not identically, which is how chip-to-chip variation on aging
  /// enters the virtual fabric.
  TrapEnsemble(const TdParameters& params, std::uint64_t seed);

  /// Advance the device by dt seconds under a constant operating condition.
  /// Stress intervals capture (and, for AC duty < 1, concurrently emit
  /// during the unbiased half-cycles); recovery intervals only emit, at a
  /// rate accelerated by temperature and negative bias.
  void evolve(const OperatingCondition& condition, Seconds dt);

  /// Current threshold-voltage shift (volts): dot product of occupancies
  /// and per-trap contributions.  Cached between state changes, so
  /// repeated reads after the same aging step are O(1).
  double delta_vth() const;

  /// Shift carried by permanent (never-recoverable) traps only.
  double permanent_delta_vth() const;

  /// Upper bound on the shift if every trap were occupied.
  double max_delta_vth() const;

  /// Restore the factory-fresh state (all traps empty).
  void reset();

  int trap_count() const { return static_cast<int>(occupancy_.size()); }
  const TdParameters& parameters() const { return memo_.parameters(); }

  /// Snapshot / restore of the mutable state (occupancies), for
  /// checkpointing long campaigns.  `set_occupancies` requires a vector of
  /// exactly trap_count() values in [0, 1], and — like `evolve` and
  /// `reset` — invalidates every cached derived quantity (the delta_vth
  /// dot product here, delay caches in the fpga layer via the version
  /// counter), so a checkpoint rewind is immediately visible to readers.
  std::vector<double> occupancies() const;
  void set_occupancies(const std::vector<double>& occ);

  /// Monotonic state-change counter: bumped by every `evolve` (with
  /// dt > 0), `set_occupancies` and `reset`.  Higher layers (fpga delay
  /// caches) use it as a cheap dirty flag: equal versions guarantee the
  /// occupancies — and anything derived from them — are unchanged.
  std::uint64_t state_version() const { return version_; }

  /// What `bti::BatchEnsemble` adopts: the kinetics draw (inside the rate
  /// memo) and the per-trap shift contributions, trap_count() entries.  A
  /// batch is thus built from the *same* drawn population a solo ensemble
  /// evolves — the foundation of its bit-exactness (DESIGN.md Sec. 13).
  const RateMemo& rate_memo() const { return memo_; }
  const std::vector<double>& trap_delta_vth() const { return delta_vth_v_; }

 private:
  // Trap population, structure-of-arrays: the per-trap shifts and
  // occupancies here, the kinetics draw in the memo.  delta_vth_v_ is
  // declared first: the draw that builds memo_ fills it.
  std::vector<double> delta_vth_v_;
  RateMemo memo_;
  std::vector<double> occupancy_;

  std::uint64_t version_ = 0;
  mutable double cached_delta_vth_ = 0.0;
  mutable std::uint64_t cached_delta_version_ = ~std::uint64_t{0};
};

}  // namespace ash::bti
