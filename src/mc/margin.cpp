#include "ash/mc/margin.h"

#include <cmath>
#include <stdexcept>

#include "ash/bti/condition.h"

namespace ash::mc {

namespace {

/// Bisection capped at a fixed iteration count keeps the answer
/// bit-deterministic across platforms and runs (the fleet protocol's
/// transcript invariant).
constexpr int kBisectIterations = 200;

/// Largest projection time we ever evaluate: ~3e11 years.  The log law is
/// still finite there, and any stress-equivalent age beyond it means the
/// queried condition ages the device too slowly to matter.
constexpr double kMaxProjectSeconds = 1e19;

void validate(const MarginQuery& q) {
  const bool finite = std::isfinite(q.delta_vth.value()) &&
                      std::isfinite(q.margin.value()) &&
                      std::isfinite(q.duty) && std::isfinite(q.vdd.value()) &&
                      std::isfinite(q.temp.value()) &&
                      std::isfinite(q.horizon.value());
  if (!finite) throw std::invalid_argument("margin query: non-finite field");
  if (q.margin.value() < 0.0) {
    throw std::invalid_argument("margin query: negative margin");
  }
  if (q.horizon.value() < 0.0) {
    throw std::invalid_argument("margin query: negative horizon");
  }
  if (q.duty < 0.0 || q.duty > 1.0) {
    throw std::invalid_argument("margin query: duty outside [0, 1]");
  }
  if (q.delta_vth.value() < 0.0) {
    throw std::invalid_argument("margin query: negative delta_vth");
  }
}

/// Smallest t in [0, hi] with delta(t) >= target, assuming delta is
/// monotone nondecreasing and delta(hi) >= target.
///
/// The loop stops early, exactly: once `mid` equals `lo` or `hi` the two
/// are adjacent doubles, and the invariant delta(lo) < target <= delta(hi)
/// makes every remaining iteration rewrite one of them with itself.  (An
/// unmoved lo = 0 may break the left half of the invariant when target is
/// 0, but mid == 0 needs hi at the smallest subnormal, which 200 halvings
/// cannot reach from any hi >= 1e19 * 2^-200 the callers pass.)
double bisect_first_reach(const bti::ClosedFormModel& model,
                          const bti::OperatingCondition& c, double target,
                          double hi) {
  double lo = 0.0;
  for (int i = 0; i < kBisectIterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    if (model.stress_delta_vth(Seconds{mid}, c) >= target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

/// The query-specific tail of the projection, with the condition and its
/// kMaxProjectSeconds ceiling supplied by the caller.  Shared by the single
/// and the batched entry points so a hoisted (condition, ceiling) pair
/// yields bit-identical answers by construction.
MarginOutlook project(const bti::ClosedFormModel& model,
                      const MarginQuery& query,
                      const bti::OperatingCondition& c, double ceiling) {
  MarginOutlook outlook;
  // If even kMaxProjectSeconds of this condition cannot reproduce the
  // current shift (or reach the margin), the condition ages the device too
  // slowly for any further growth to matter within a physical horizon.
  if (ceiling < query.margin.value() || ceiling < query.delta_vth.value()) {
    outlook.crosses = false;
    outlook.time_to_margin = query.horizon;
    return outlook;
  }
  // Invert the monotone stress law: find the stress-equivalent age t0 that
  // reproduces the device's current shift under the queried condition.
  const double t0 = bisect_first_reach(model, c, query.delta_vth.value(),
                                       kMaxProjectSeconds);

  // Does the projected shift reach the margin inside the horizon?
  const double at_horizon =
      model.stress_delta_vth(Seconds{t0 + query.horizon.value()}, c);
  if (at_horizon < query.margin.value()) {
    outlook.crosses = false;
    outlook.time_to_margin = query.horizon;
    return outlook;
  }
  const double t_cross = bisect_first_reach(model, c, query.margin.value(),
                                            t0 + query.horizon.value());
  outlook.crosses = true;
  outlook.time_to_margin = Seconds{std::max(0.0, t_cross - t0)};
  return outlook;
}

bti::OperatingCondition condition_of(const MarginQuery& query) {
  return query.duty > 0.0 ? bti::ac_stress(query.vdd, query.temp, query.duty)
                          : bti::recovery(query.vdd, query.temp);
}

}  // namespace

MarginOutlook margin_outlook(const bti::ClosedFormModel& model,
                             const MarginQuery& query) {
  validate(query);

  if (query.delta_vth.value() >= query.margin.value()) {
    // Already past budget: the crossing is now.
    MarginOutlook outlook;
    outlook.crosses = true;
    outlook.time_to_margin = Seconds{0.0};
    return outlook;
  }

  const bti::OperatingCondition c = condition_of(query);
  const double ceiling = model.stress_delta_vth(Seconds{kMaxProjectSeconds}, c);
  return project(model, query, c, ceiling);
}

std::vector<MarginOutlook> margin_outlook(
    const bti::ClosedFormModel& model,
    const std::vector<MarginQuery>& queries) {
  for (const MarginQuery& q : queries) validate(q);

  // One hoisted (condition, ceiling) per distinct mission schedule.  A
  // whole-shard query carries one schedule for every device, so the linear
  // scan stays O(1) per query in practice.
  struct Hoisted {
    double duty;
    double vdd;
    double temp;
    bti::OperatingCondition c;
    double ceiling;
  };
  std::vector<Hoisted> hoisted;

  std::vector<MarginOutlook> outlooks;
  outlooks.reserve(queries.size());
  for (const MarginQuery& q : queries) {
    if (q.delta_vth.value() >= q.margin.value()) {
      MarginOutlook outlook;
      outlook.crosses = true;
      outlook.time_to_margin = Seconds{0.0};
      outlooks.push_back(outlook);
      continue;
    }
    const Hoisted* entry = nullptr;
    for (const Hoisted& h : hoisted) {
      if (h.duty == q.duty && h.vdd == q.vdd.value() &&
          h.temp == q.temp.value()) {
        entry = &h;
        break;
      }
    }
    if (entry == nullptr) {
      Hoisted h;
      h.duty = q.duty;
      h.vdd = q.vdd.value();
      h.temp = q.temp.value();
      h.c = condition_of(q);
      h.ceiling = model.stress_delta_vth(Seconds{kMaxProjectSeconds}, h.c);
      hoisted.push_back(h);
      entry = &hoisted.back();
    }
    outlooks.push_back(project(model, q, entry->c, entry->ceiling));
  }
  return outlooks;
}

}  // namespace ash::mc
