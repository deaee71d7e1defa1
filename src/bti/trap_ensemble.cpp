#include "ash/bti/trap_ensemble.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ash/obs/profile.h"
#include "ash/util/random.h"

namespace ash::bti {

namespace {

/// Rate memo slots per device: campaigns cycle through a handful of
/// (stress, recovery, measurement) conditions.
constexpr int kRateSlots = 6;

/// Draw the trap population of (params, seed): the per-trap shifts into
/// `delta_vth_v`, the kinetics into the returned memo.
RateMemo draw(const TdParameters& params, std::uint64_t seed,
              std::vector<double>& delta_vth_v) {
  params.validate();
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(params.traps_per_device);
  std::vector<double> tau_capture_s, tau_emission_s, capture_ea_ev,
      emission_ea_ev;
  std::vector<std::uint8_t> permanent;
  delta_vth_v.reserve(n);
  tau_capture_s.reserve(n);
  tau_emission_s.reserve(n);
  capture_ea_ev.reserve(n);
  emission_ea_ev.reserve(n);
  permanent.reserve(n);
  // Draw order matches the historical AoS constructor so existing seeds
  // reproduce the same trap populations.
  for (int i = 0; i < params.traps_per_device; ++i) {
    delta_vth_v.push_back(rng.exponential(params.delta_vth_mean_v.value()));
    tau_capture_s.push_back(rng.loguniform(params.tau_capture_min_s.value(),
                                           params.tau_capture_max_s.value()));
    const double rho = std::pow(
        10.0, rng.normal(params.emission_ratio_log10_mu,
                         params.emission_ratio_log10_sigma));
    tau_emission_s.push_back(rho * tau_capture_s.back());
    capture_ea_ev.push_back(std::max(
        0.0, rng.normal(params.capture_ea_mean_ev, params.capture_ea_sigma_ev)));
    emission_ea_ev.push_back(std::max(
        0.0, rng.normal(params.emission_ea_mean_ev, params.emission_ea_sigma_ev)));
    permanent.push_back(rng.bernoulli(params.permanent_fraction) ? 1 : 0);
  }
  return RateMemo(params, std::move(tau_capture_s), std::move(tau_emission_s),
                  std::move(capture_ea_ev), std::move(emission_ea_ev),
                  std::move(permanent), kRateSlots);
}

}  // namespace

TrapEnsemble::TrapEnsemble(const TdParameters& params, std::uint64_t seed)
    : memo_(draw(params, seed, delta_vth_v_)),
      occupancy_(delta_vth_v_.size(), 0.0) {}

void TrapEnsemble::evolve(const OperatingCondition& c, Seconds dt) {
  const obs::ScopedKernelTimer timer(obs::Kernel::kTrapEnsembleEvolve);
  if (!memo_.check(c, dt)) return;
  memo_.advance(c, dt, occupancy_.data());
  ++version_;
}

double TrapEnsemble::delta_vth() const {
  if (cached_delta_version_ != version_) {
    double acc = 0.0;
    const std::size_t n = occupancy_.size();
    for (std::size_t i = 0; i < n; ++i) acc += occupancy_[i] * delta_vth_v_[i];
    cached_delta_vth_ = acc;
    cached_delta_version_ = version_;
  }
  return cached_delta_vth_;
}

double TrapEnsemble::permanent_delta_vth() const {
  double acc = 0.0;
  const std::size_t n = occupancy_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (memo_.permanent()[i] != 0) acc += occupancy_[i] * delta_vth_v_[i];
  }
  return acc;
}

double TrapEnsemble::max_delta_vth() const {
  double acc = 0.0;
  for (const double v : delta_vth_v_) acc += v;
  return acc;
}

void TrapEnsemble::reset() {
  std::fill(occupancy_.begin(), occupancy_.end(), 0.0);
  ++version_;
}

std::vector<double> TrapEnsemble::occupancies() const { return occupancy_; }

void TrapEnsemble::set_occupancies(const std::vector<double>& occ) {
  if (occ.size() != occupancy_.size()) {
    throw std::invalid_argument(
        "TrapEnsemble::set_occupancies: size mismatch");
  }
  for (const double v : occ) {
    if (v < 0.0 || v > 1.0) {
      throw std::invalid_argument(
          "TrapEnsemble::set_occupancies: occupancy outside [0, 1]");
    }
  }
  occupancy_ = occ;
  // A rewind is a state change like any other: bump the version so the
  // delta_vth dot product and every downstream delay cache refresh.
  ++version_;
}

}  // namespace ash::bti
