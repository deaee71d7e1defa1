#include "ash/bti/rate_memo.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ash/bti/acceleration.h"
#include "ash/util/constants.h"

namespace ash::bti {
namespace {

/// exp(-lambda * dt).  lambda <= 0 (with p_inf = 0) makes decay = 1 the
/// identity update; exp underflows harmlessly for large x, so the call is
/// short-circuited there.
inline double decay_factor(double lambda, double dt_s) {
  const double x = lambda * dt_s;
  return lambda <= 0.0 ? 1.0 : (x > 700.0 ? 0.0 : std::exp(-x));
}

/// The exact occupancy update over one interval.
inline double stepped(double p, double p_inf, double decay) {
  return p_inf + (p - p_inf) * decay;
}

}  // namespace

RateMemo::RateMemo(const TdParameters& params,
                   std::vector<double> tau_capture_s,
                   std::vector<double> tau_emission_s,
                   std::vector<double> capture_ea_ev,
                   std::vector<double> emission_ea_ev,
                   std::vector<std::uint8_t> permanent, int slots)
    : params_(params),
      tau_capture_s_(std::move(tau_capture_s)),
      tau_emission_s_(std::move(tau_emission_s)),
      capture_ea_ev_(std::move(capture_ea_ev)),
      emission_ea_ev_(std::move(emission_ea_ev)),
      permanent_(std::move(permanent)),
      slot_count_(static_cast<std::size_t>(slots)) {}

RateMemo::RateMemo(const RateMemo& source, int slots)
    : RateMemo(source.params_, source.tau_capture_s_, source.tau_emission_s_,
               source.capture_ea_ev_, source.emission_ea_ev_,
               source.permanent_, slots) {}

bool RateMemo::same_kinetics(const RateMemo& other) const {
  // Every TdParameters field but delta_vth_mean_v feeds the kinetics draws
  // or the rate scalars.
  TdParameters params = other.params_;
  params.delta_vth_mean_v = params_.delta_vth_mean_v;
  return params == params_ && tau_capture_s_ == other.tau_capture_s_ &&
         tau_emission_s_ == other.tau_emission_s_ &&
         capture_ea_ev_ == other.capture_ea_ev_ &&
         emission_ea_ev_ == other.emission_ea_ev_ &&
         permanent_ == other.permanent_;
}

bool RateMemo::check(const OperatingCondition& c, Seconds dt) const {
  if (dt.value() < 0.0) {
    throw std::invalid_argument("TrapEnsemble::evolve: negative dt");
  }
  if (dt.value() == 0.0) return false;
  if (c.voltage_v < params_.min_safe_voltage_v) {
    throw std::invalid_argument(
        "TrapEnsemble::evolve: voltage below pn-junction breakdown limit");
  }
  if (c.temperature_k > params_.max_safe_temp_k) {
    throw std::invalid_argument(
        "TrapEnsemble::evolve: temperature above functional limit");
  }
  return true;
}

const double* RateMemo::arrhenius(Factors& memo,
                                  const std::vector<double>& ea_ev,
                                  double arr_x) {
  for (auto& e : memo.entries) {
    if (e.valid && e.arr_x == arr_x) return e.f.data();
  }
  Factors::Entry& e = memo.entries[static_cast<std::size_t>(memo.next)];
  memo.next = (memo.next + 1) % Factors::kEntries;
  const std::size_t n = ea_ev.size();
  e.f.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    e.f[i] = std::exp(-ea_ev[i] * arr_x);
  }
  e.arr_x = arr_x;
  e.valid = true;
  return e.f.data();
}

RateMemo::Scalars RateMemo::scalars_for(const OperatingCondition& c) {
  Scalars s;
  s.duty = std::clamp(c.gate_stress_duty, 0.0, 1.0);

  // Gate bias seen during the *unstressed* fraction of the interval: a
  // recovery interval applies its own (possibly negative) bias; the
  // off-phase of an AC stress interval is simply unbiased.
  const double emission_bias_v = s.duty == 0.0 ? c.voltage_v.value() : 0.0;

  s.phi = s.duty > 0.0
              ? occupancy_amplitude(params_, c.voltage_v, c.temperature_k)
              : 0.0;
  s.capture_field =
      c.voltage_v >= params_.capture_threshold_voltage_v
          ? std::exp(params_.capture_field_accel_per_v *
                     (c.voltage_v - params_.stress_ref_voltage_v).value())
          : 0.0;
  s.capture_arr_x = (1.0 / c.temperature_k.value() -
                     1.0 / params_.stress_ref_temp_k.value()) /
                    kBoltzmannEv;
  s.emission_bias_boost = std::exp(
      params_.emission_neg_bias_accel_per_v * std::max(0.0, -emission_bias_v));
  s.emission_arr_x = (1.0 / c.temperature_k.value() -
                      1.0 / params_.recovery_ref_temp_k.value()) /
                     kBoltzmannEv;

  // Exact-zero duty multipliers are resolved here rather than per trap:
  // `duty * af_c` (resp. `(1-duty) * af_e`) is exactly +0.0 for a finite
  // factor, so skipping the whole factor array in those cases is
  // bit-identical and saves one exp() per trap.
  s.exp_c = s.duty > 0.0
                ? arrhenius(capture_factors_, capture_ea_ev_, s.capture_arr_x)
                : nullptr;
  s.exp_e = s.duty < 1.0 ? arrhenius(emission_factors_, emission_ea_ev_,
                                     s.emission_arr_x)
                         : nullptr;
  return s;
}

inline double RateMemo::rate(const Scalars& s, std::size_t i,
                             double& p_inf) const {
  // The expression order of the historical per-trap loop, with the
  // memoized exp factors substituted operand-for-operand.
  const double rc =
      s.exp_c != nullptr
          ? s.duty * (s.capture_field * s.exp_c[i]) / tau_capture_s_[i]
          : 0.0;
  const double re = s.exp_e != nullptr && permanent_[i] == 0
                        ? (1.0 - s.duty) * (s.emission_bias_boost *
                                            s.exp_e[i]) /
                              tau_emission_s_[i]
                        : 0.0;
  const double lambda = rc + re;
  p_inf = lambda > 0.0 ? rc * s.phi / lambda : 0.0;
  return lambda;
}

RateMemo::Slot* RateMemo::find(const OperatingCondition& c, double duty) {
  for (auto& slot : slots_) {
    if (slot.valid && slot.voltage_v == c.voltage_v &&
        slot.temperature_k == c.temperature_k && slot.duty == duty) {
      return &slot;
    }
  }
  return nullptr;
}

RateMemo::Slot& RateMemo::claim() {
  // Slots are allocated on first use: a device whose conditions never
  // recur (a drifting chamber) never pays for them.
  if (slots_.size() < slot_count_) return slots_.emplace_back();
  Slot& slot = slots_[static_cast<std::size_t>(next_slot_)];
  next_slot_ = (next_slot_ + 1) % static_cast<int>(slot_count_);
  return slot;
}

void RateMemo::fill(Slot& slot, const OperatingCondition& c, double dt_s,
                    double* occ) {
  const Scalars s = scalars_for(c);
  const std::size_t n = tau_capture_s_.size();
  slot.lambda.resize(n);
  slot.p_inf.resize(n);
  slot.decay.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double p_inf;
    const double lambda = rate(s, i, p_inf);
    const double decay = decay_factor(lambda, dt_s);
    slot.lambda[i] = lambda;
    slot.p_inf[i] = p_inf;
    slot.decay[i] = decay;
    if (occ != nullptr) occ[i] = stepped(occ[i], p_inf, decay);
  }
  slot.voltage_v = c.voltage_v;
  slot.temperature_k = c.temperature_k;
  slot.duty = s.duty;
  slot.decay_dt_s = dt_s;
  slot.valid = true;
}

void RateMemo::refill_decay(Slot& slot, double dt_s, double* occ) {
  const std::size_t n = slot.lambda.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double decay = decay_factor(slot.lambda[i], dt_s);
    slot.decay[i] = decay;
    if (occ != nullptr) occ[i] = stepped(occ[i], slot.p_inf[i], decay);
  }
  slot.decay_dt_s = dt_s;
}

void RateMemo::transient_step(const OperatingCondition& c, double dt_s,
                              double* occ) {
  // Nothing is written but the occupancies: rates stay in a small
  // L1-resident block buffer.  Campaigns whose instruments drift (a unique
  // condition every interval) spend their whole evolve budget here, and
  // the avoided slot stores — and their later cache evictions across a
  // thousand-device chip — are the dominant cost.  The rate arithmetic
  // (division-bound) runs in its own exp-free loop so the compiler can
  // vectorize it; the exp() calls and the update follow in a second pass
  // over the same block.
  const Scalars s = scalars_for(c);
  const std::size_t n = tau_capture_s_.size();
  constexpr std::size_t kBlock = 128;
  double lam[kBlock];
  double pinf[kBlock];
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t len = std::min(kBlock, n - base);
    for (std::size_t j = 0; j < len; ++j) {
      lam[j] = rate(s, base + j, pinf[j]);
    }
    for (std::size_t j = 0; j < len; ++j) {
      double& p = occ[base + j];
      p = stepped(p, pinf[j], decay_factor(lam[j], dt_s));
    }
  }
}

void RateMemo::advance(const OperatingCondition& c, Seconds dt, double* occ) {
  const double dt_s = dt.value();
  const double duty = std::clamp(c.gate_stress_duty, 0.0, 1.0);
  Slot* slot = find(c, duty);
  if (slot == nullptr) {
    // A condition missing twice in a row is recurring (a fixed-step sweep,
    // a benchmark, a multicore mission): it gets a slot, so the third and
    // later steps take the exp-free sweep.  A one-shot condition (drifting
    // instruments) takes the store-free transient path.
    const bool recurring = last_miss_valid_ &&
                           last_miss_voltage_ == c.voltage_v &&
                           last_miss_temp_ == c.temperature_k &&
                           last_miss_duty_ == duty;
    last_miss_voltage_ = c.voltage_v;
    last_miss_temp_ = c.temperature_k;
    last_miss_duty_ = duty;
    last_miss_valid_ = !recurring;
    if (recurring) {
      fill(claim(), c, dt_s, occ);
    } else {
      transient_step(c, dt_s, occ);
    }
  } else if (slot->decay_dt_s != dt_s) {
    refill_decay(*slot, dt_s, occ);
  } else {
    apply({slot->p_inf.data(), slot->decay.data()}, occ, slot->p_inf.size());
  }
}

RateMemo::Step RateMemo::step_for(const OperatingCondition& c, Seconds dt) {
  const double dt_s = dt.value();
  Slot* slot = find(c, std::clamp(c.gate_stress_duty, 0.0, 1.0));
  if (slot == nullptr) {
    slot = &claim();
    fill(*slot, c, dt_s, nullptr);
  } else if (slot->decay_dt_s != dt_s) {
    refill_decay(*slot, dt_s, nullptr);
  }
  return {slot->p_inf.data(), slot->decay.data()};
}

void RateMemo::apply(Step step, double* occ, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    occ[i] = stepped(occ[i], step.p_inf[i], step.decay[i]);
  }
}

}  // namespace ash::bti
