#include "ash/bti/batch_ensemble.h"

#include <algorithm>
#include <stdexcept>

#include "ash/obs/profile.h"
#include "ash/util/thread_pool.h"

namespace ash::bti {

BatchEnsemble::BatchEnsemble(const std::vector<BatchMemberSpec>& specs,
                             util::ThreadPool* pool)
    : pool_(pool) {
  if (specs.empty()) {
    throw std::invalid_argument("BatchEnsemble: empty population");
  }
  for (const auto& spec : specs) {
    // Draw the member's population through the solo constructor: the batch
    // *is* those ensembles, which is what makes it bit-identical.
    const TrapEnsemble source(spec.params, spec.seed);
    adopt_member(source);
  }
}

BatchEnsemble::BatchEnsemble(const std::vector<const TrapEnsemble*>& members,
                             util::ThreadPool* pool)
    : pool_(pool) {
  if (members.empty()) {
    throw std::invalid_argument("BatchEnsemble: empty population");
  }
  for (const TrapEnsemble* source : members) {
    if (source == nullptr) {
      throw std::invalid_argument("BatchEnsemble: null member");
    }
    adopt_member(*source);
  }
}

void BatchEnsemble::adopt_member(const TrapEnsemble& source) {
  // Class lookup: identical kinetics parameters *and* identical kinetics
  // draws.  Two members built from the same seed and kinetics constants
  // share every draw (the per-trap DeltaVth scale consumes exactly one
  // uniform regardless of its mean, so the streams stay aligned); distinct
  // seeds diverge at the first trap, so the compare fails fast.
  const RateMemo& kinetics = source.rate_memo();
  auto cls = std::find_if(classes_.begin(), classes_.end(),
                          [&](const TrapClass& c) {
                            return c.memo.same_kinetics(kinetics);
                          });
  if (cls == classes_.end()) {
    classes_.push_back({RateMemo(kinetics, kRateSlots), {}});
    cls = classes_.end() - 1;
  }

  const int m = member_count();
  cls->members.push_back(m);
  member_params_.push_back(source.parameters());
  const std::vector<double>& shifts = source.trap_delta_vth();
  delta_vth_v_.insert(delta_vth_v_.end(), shifts.begin(), shifts.end());
  const std::vector<double> occ = source.occupancies();
  occupancy_.insert(occupancy_.end(), occ.begin(), occ.end());
  offsets_.push_back(offsets_.back() + shifts.size());
  active_step_.emplace_back();
  cached_delta_.push_back(0.0);
  cached_delta_version_.push_back(~std::uint64_t{0});
}

std::size_t BatchEnsemble::index(int member) const {
  if (member < 0 || member >= member_count()) {
    throw std::out_of_range("BatchEnsemble: member index out of range");
  }
  return static_cast<std::size_t>(member);
}

int BatchEnsemble::trap_count(int member) const {
  const std::size_t m = index(member);
  return static_cast<int>(offsets_[m + 1] - offsets_[m]);
}

const TdParameters& BatchEnsemble::parameters(int member) const {
  return member_params_[index(member)];
}

void BatchEnsemble::apply_members(int lo, int hi) {
  for (int m = lo; m < hi; ++m) {
    const auto i = static_cast<std::size_t>(m);
    RateMemo::apply(active_step_[i], occupancy_.data() + offsets_[i],
                    offsets_[i + 1] - offsets_[i]);
  }
}

void BatchEnsemble::evolve(const OperatingCondition& c, Seconds dt) {
  const obs::ScopedKernelTimer timer(obs::Kernel::kBtiBatchEvolve);
  // Validate against every class before mutating anything: a throwing
  // evolve leaves the whole population untouched.
  bool moves = false;
  for (const auto& cls : classes_) moves = cls.memo.check(c, dt);
  if (!moves) return;

  // One rate/decay computation per (condition, trap class)...
  for (auto& cls : classes_) {
    const RateMemo::Step step = cls.memo.step_for(c, dt);
    for (const int m : cls.members) {
      active_step_[static_cast<std::size_t>(m)] = step;
    }
  }

  // ...then one fused multiply-add sweep over the whole population,
  // optionally sharded over disjoint member ranges.  The update is
  // elementwise-independent, so any shard split is bit-identical to the
  // serial loop.
  const int members = member_count();
  if (pool_ != nullptr && pool_->size() > 0 && members > 1) {
    const int shards = std::min(members, pool_->size() * 4);
    pool_->parallel_for(shards, [&](int shard) {
      const auto lo = static_cast<int>(
          static_cast<long long>(members) * shard / shards);
      const auto hi = static_cast<int>(
          static_cast<long long>(members) * (shard + 1) / shards);
      apply_members(lo, hi);
      return 0;
    });
  } else {
    apply_members(0, members);
  }
  ++version_;
}

double BatchEnsemble::delta_vth(int member) const {
  const std::size_t m = index(member);
  if (cached_delta_version_[m] != version_) {
    const double* occ = occupancy_.data() + offsets_[m];
    const double* dv = delta_vth_v_.data() + offsets_[m];
    const std::size_t n = offsets_[m + 1] - offsets_[m];
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += occ[i] * dv[i];
    cached_delta_[m] = acc;
    cached_delta_version_[m] = version_;
  }
  return cached_delta_[m];
}

std::vector<double> BatchEnsemble::delta_vth_all() const {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(member_count()));
  for (int m = 0; m < member_count(); ++m) out.push_back(delta_vth(m));
  return out;
}

std::vector<double> BatchEnsemble::occupancies(int member) const {
  const std::size_t m = index(member);
  return std::vector<double>(occupancy_.begin() + static_cast<std::ptrdiff_t>(
                                                      offsets_[m]),
                             occupancy_.begin() +
                                 static_cast<std::ptrdiff_t>(offsets_[m + 1]));
}

void BatchEnsemble::set_occupancies(int member,
                                    const std::vector<double>& occ) {
  const std::size_t m = index(member);
  if (occ.size() != offsets_[m + 1] - offsets_[m]) {
    throw std::invalid_argument(
        "BatchEnsemble::set_occupancies: size mismatch");
  }
  for (const double v : occ) {
    if (v < 0.0 || v > 1.0) {
      throw std::invalid_argument(
          "BatchEnsemble::set_occupancies: occupancy outside [0, 1]");
    }
  }
  std::copy(occ.begin(), occ.end(),
            occupancy_.begin() + static_cast<std::ptrdiff_t>(offsets_[m]));
  ++version_;
}

void BatchEnsemble::reset() {
  std::fill(occupancy_.begin(), occupancy_.end(), 0.0);
  ++version_;
}

}  // namespace ash::bti
