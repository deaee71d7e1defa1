#pragma once

/// \file rate_memo.h
/// The one aging kernel of the trap-ensemble model (DESIGN.md Sec. 8, 13).
///
/// Over an interval of constant operating condition every trap obeys a
/// linear ODE whose exact solution is
///
///     p' = p_inf + (p - p_inf) * exp(-lambda * dt),
///     lambda = rc + re,   p_inf = rc * phi / lambda,
///
/// with capture/emission rates rc, re accelerated by field, bias and
/// temperature.  A `RateMemo` owns one kinetics draw (per-trap time
/// constants, activation energies, permanence) and memoizes everything of
/// that update that the occupancies do not enter: the condition-level
/// scalars, the temperature-keyed Arrhenius factors exp(-Ea_i * x) and,
/// per (voltage, temperature, duty) slot, the lambda / p_inf arrays plus
/// the decay factors of the slot's most recent dt.
///
/// `TrapEnsemble` holds one memo per device; `BatchEnsemble` one per trap
/// class, shared by every member of the class.  The rate, decay and update
/// expressions exist only in rate_memo.cpp, so the two engines are
/// bit-identical by construction (pinned by the golden chip-5 trajectory,
/// the 64-chip batch tests and the population byte-identity tests).  The
/// memo is an implementation type of `bti`; other modules go through the
/// two ensembles.

#include <cstdint>
#include <vector>

#include "ash/bti/condition.h"
#include "ash/bti/parameters.h"

namespace ash::bti {

class RateMemo {
 public:
  /// Update coefficients of one (condition, dt): trap i advances as
  /// occ[i] = p_inf[i] + (occ[i] - p_inf[i]) * decay[i].
  struct Step {
    const double* p_inf = nullptr;
    const double* decay = nullptr;
  };

  /// Adopt a kinetics draw (trap i at index i of every array) with `slots`
  /// per-condition memo slots.  `params` supplies the rate constants and
  /// the safe operating range.
  RateMemo(const TdParameters& params, std::vector<double> tau_capture_s,
           std::vector<double> tau_emission_s,
           std::vector<double> capture_ea_ev,
           std::vector<double> emission_ea_ev,
           std::vector<std::uint8_t> permanent, int slots);
  /// The kinetics of `source` with `slots` fresh (empty) memo slots.
  RateMemo(const RateMemo& source, int slots);

  const TdParameters& parameters() const { return params_; }
  /// Per-trap permanence flags (1: damage never anneals).
  const std::vector<std::uint8_t>& permanent() const { return permanent_; }

  /// True when `other` draws identical kinetics under identical kinetics
  /// parameters, so its rates equal this memo's for every condition.
  /// Only delta_vth_mean_v may differ: it scales per-trap shifts, which
  /// the rates never read.
  bool same_kinetics(const RateMemo& other) const;

  /// The evolve validation: throws std::invalid_argument for a negative
  /// dt, a voltage below the pn-junction breakdown limit or a temperature
  /// above the functional limit.  Returns false for dt == 0 (a no-op,
  /// checked before the limits).
  bool check(const OperatingCondition& condition, Seconds dt) const;

  /// Advance one population's occupancies (one value per trap) by dt.
  /// A memo hit with the same dt is one multiply-add sweep; a new dt
  /// refreshes the slot's decay factors in the same pass as the update; a
  /// condition missing twice in a row (recurring) is filled into the next
  /// round-robin slot, fused with the update; any other miss (a one-shot
  /// condition, e.g. a drifting chamber) is stepped without writing a
  /// slot.  Call check() first.
  void advance(const OperatingCondition& condition, Seconds dt, double* occ);

  /// Coefficients for (condition, dt) to apply to many populations sharing
  /// this kinetics.  Every miss fills a slot: the cost amortizes over all
  /// of them.  Valid until the next advance()/step_for().  Call check()
  /// first.
  Step step_for(const OperatingCondition& condition, Seconds dt);

  /// Apply coefficients to `n` occupancies.
  static void apply(Step step, double* occ, std::size_t n);

 private:
  /// One per-condition slot: (lambda, p_inf) for the condition and the
  /// decay factors for the most recent dt.  Traps with lambda <= 0 store
  /// p_inf = 0 and decay = 1, which leaves their occupancy bit-exactly
  /// unchanged.
  struct Slot {
    Volts voltage_v{0.0};
    Kelvin temperature_k{0.0};
    double duty = 0.0;
    bool valid = false;
    std::vector<double> lambda;
    std::vector<double> p_inf;
    double decay_dt_s = -1.0;
    std::vector<double> decay;
  };

  /// Per-temperature memo of the Arrhenius factors exp(-Ea_i * arr_x).
  /// Voltage and duty enter the rates only through scalars, so the arrays
  /// are shared by conditions that differ only in those (a measurement
  /// wake and the following aging step read the same chamber state).
  struct Factors {
    struct Entry {
      double arr_x = 0.0;
      bool valid = false;
      std::vector<double> f;
    };
    static constexpr int kEntries = 2;
    Entry entries[kEntries];
    int next = 0;
  };

  /// Condition-level scalars of the rate formulas.
  struct Scalars {
    double duty;
    double phi;
    double capture_field;
    double capture_arr_x;
    double emission_bias_boost;
    double emission_arr_x;
    /// Arrhenius factor arrays, null where the duty zeroes the rate.
    const double* exp_c;
    const double* exp_e;
  };

  Scalars scalars_for(const OperatingCondition& condition);
  /// Trap i's rate lambda (returned) and equilibrium occupancy p_inf.
  double rate(const Scalars& s, std::size_t i, double& p_inf) const;
  const double* arrhenius(Factors& memo, const std::vector<double>& ea_ev,
                          double arr_x);
  Slot* find(const OperatingCondition& condition, double duty);
  Slot& claim();
  /// Rates and decay into `slot`; `occ`, when non-null, advanced in the
  /// same pass.
  void fill(Slot& slot, const OperatingCondition& condition, double dt_s,
            double* occ);
  /// New dt on a filled slot; `occ`, when non-null, advanced in the same
  /// pass.
  void refill_decay(Slot& slot, double dt_s, double* occ);
  /// Store-free step for a one-shot condition.
  void transient_step(const OperatingCondition& condition, double dt_s,
                      double* occ);

  TdParameters params_;
  std::vector<double> tau_capture_s_;
  std::vector<double> tau_emission_s_;
  std::vector<double> capture_ea_ev_;
  std::vector<double> emission_ea_ev_;
  std::vector<std::uint8_t> permanent_;

  /// Capture and emission use different reference temperatures, hence
  /// separate factor memos.
  Factors capture_factors_;
  Factors emission_factors_;
  /// Round-robin condition slots, allocated on first use up to
  /// slot_count_.
  std::size_t slot_count_;
  std::vector<Slot> slots_;
  int next_slot_ = 0;

  /// Key of the most recent one-shot miss in advance(): a condition
  /// missing twice in a row is recurring and gets a slot.
  Volts last_miss_voltage_{0.0};
  Kelvin last_miss_temp_{0.0};
  double last_miss_duty_ = 0.0;
  bool last_miss_valid_ = false;
};

}  // namespace ash::bti
