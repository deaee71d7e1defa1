#include "ash/mc/margin.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ash/bti/closed_form.h"
#include "ash/bti/condition.h"
#include "ash/util/random.h"
#include "ash/util/units.h"

namespace ash::mc {
namespace {

bti::ClosedFormModel model() { return bti::ClosedFormModel({}); }

TEST(MarginOutlook, FreshDeviceUnderHarshStressEventuallyCrosses) {
  MarginQuery q;
  q.delta_vth = Volts{0.0};
  q.margin = Volts{5e-3};  // tight budget
  q.duty = 1.0;
  q.vdd = Volts{2.5};  // the paper's accelerated-stress overdrive regime
  q.temp = Celsius{110.0};
  q.horizon = Seconds{1e15};
  const MarginOutlook outlook = margin_outlook(model(), q);
  EXPECT_TRUE(outlook.crosses);
  EXPECT_GT(outlook.time_to_margin.value(), 0.0);
  EXPECT_LT(outlook.time_to_margin.value(), q.horizon.value());
}

TEST(MarginOutlook, AlreadyPastMarginCrossesImmediately) {
  MarginQuery q;
  q.delta_vth = Volts{13e-3};
  q.margin = Volts{12e-3};
  const MarginOutlook outlook = margin_outlook(model(), q);
  EXPECT_TRUE(outlook.crosses);
  EXPECT_EQ(outlook.time_to_margin.value(), 0.0);
}

TEST(MarginOutlook, GentleConditionIsRightCensoredAtHorizon) {
  MarginQuery q;
  q.delta_vth = Volts{1e-3};
  q.margin = Volts{12e-3};
  q.duty = 0.1;
  q.vdd = Volts{0.9};  // mild use condition
  q.temp = Celsius{25.0};
  q.horizon = units::hours(24.0);  // short horizon: no way it crosses
  const MarginOutlook outlook = margin_outlook(model(), q);
  EXPECT_FALSE(outlook.crosses);
  EXPECT_EQ(outlook.time_to_margin.value(), q.horizon.value());
}

TEST(MarginOutlook, MoreAgedDeviceCrossesSooner) {
  MarginQuery young;
  young.delta_vth = Volts{1e-3};
  young.margin = Volts{8e-3};
  young.duty = 1.0;
  young.vdd = Volts{2.5};
  young.temp = Celsius{110.0};
  young.horizon = Seconds{1e15};
  MarginQuery old = young;
  old.delta_vth = Volts{6e-3};
  const MarginOutlook young_outlook = margin_outlook(model(), young);
  const MarginOutlook old_outlook = margin_outlook(model(), old);
  ASSERT_TRUE(young_outlook.crosses);
  ASSERT_TRUE(old_outlook.crosses);
  EXPECT_LT(old_outlook.time_to_margin.value(),
            young_outlook.time_to_margin.value());
}

TEST(MarginOutlook, HigherDutyCrossesSooner) {
  MarginQuery busy;
  busy.delta_vth = Volts{2e-3};
  busy.margin = Volts{8e-3};
  busy.duty = 1.0;
  busy.vdd = Volts{2.5};
  busy.temp = Celsius{110.0};
  busy.horizon = Seconds{1e15};
  MarginQuery lazy = busy;
  lazy.duty = 0.25;
  const MarginOutlook busy_outlook = margin_outlook(model(), busy);
  const MarginOutlook lazy_outlook = margin_outlook(model(), lazy);
  ASSERT_TRUE(busy_outlook.crosses);
  if (lazy_outlook.crosses) {
    EXPECT_LT(busy_outlook.time_to_margin.value(),
              lazy_outlook.time_to_margin.value());
  }
}

TEST(MarginOutlook, AnswerIsBitDeterministic) {
  // Two fleet daemons (one chaos-ridden, one not) must answer a margin
  // query with identical bytes — which requires identical doubles here.
  MarginQuery q;
  q.delta_vth = Volts{3.3e-3};
  q.margin = Volts{12e-3};
  q.duty = 0.61803398874989484;
  q.vdd = Volts{2.1};
  q.temp = Celsius{97.5};
  q.horizon = Seconds{1e14};
  const MarginOutlook a = margin_outlook(model(), q);
  const MarginOutlook b = margin_outlook(model(), q);
  EXPECT_EQ(a.crosses, b.crosses);
  EXPECT_EQ(a.time_to_margin.value(), b.time_to_margin.value());
}

TEST(MarginOutlook, MalformedQueriesThrow) {
  MarginQuery q;
  q.duty = 1.5;
  EXPECT_THROW(margin_outlook(model(), q), std::invalid_argument);
  q = MarginQuery{};
  q.duty = -0.1;
  EXPECT_THROW(margin_outlook(model(), q), std::invalid_argument);
  q = MarginQuery{};
  q.margin = Volts{-1e-3};
  EXPECT_THROW(margin_outlook(model(), q), std::invalid_argument);
  q = MarginQuery{};
  q.horizon = Seconds{-1.0};
  EXPECT_THROW(margin_outlook(model(), q), std::invalid_argument);
  q = MarginQuery{};
  q.delta_vth = Volts{std::nan("")};
  EXPECT_THROW(margin_outlook(model(), q), std::invalid_argument);
}

TEST(MarginOutlook, ZeroDutyPureRecoveryNeverCrosses) {
  MarginQuery q;
  q.delta_vth = Volts{5e-3};
  q.margin = Volts{12e-3};
  q.duty = 0.0;  // pure recovery: no stress, no further growth
  q.horizon = Seconds{1e15};
  const MarginOutlook outlook = margin_outlook(model(), q);
  EXPECT_FALSE(outlook.crosses);
  EXPECT_EQ(outlook.time_to_margin.value(), q.horizon.value());
}

TEST(MarginOutlook, BatchedOverloadIsBitIdenticalToSingleCalls) {
  // A whole-shard query: many devices share a handful of schedules, which
  // is exactly the (condition, ceiling) hoisting case the overload exists
  // for.  The contract is bit-identity, not closeness.
  std::vector<MarginQuery> queries;
  const double duties[] = {0.0, 0.25, 0.25, 1.0};
  const double vdds[] = {1.2, 1.2, 2.5, 2.5};
  for (int i = 0; i < 64; ++i) {
    MarginQuery q;
    q.delta_vth = Volts{1e-4 * static_cast<double>(i)};
    q.margin = Volts{12e-3};
    q.duty = duties[i % 4];
    q.vdd = Volts{vdds[i % 4]};
    q.temp = Celsius{i % 2 == 0 ? 80.0 : 110.0};
    q.horizon = Seconds{1e15};
    queries.push_back(q);
  }
  const std::vector<MarginOutlook> batched = margin_outlook(model(), queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const MarginOutlook solo = margin_outlook(model(), queries[i]);
    EXPECT_EQ(batched[i].crosses, solo.crosses) << "query " << i;
    EXPECT_EQ(batched[i].time_to_margin.value(),
              solo.time_to_margin.value())
        << "query " << i;
  }
}

TEST(MarginOutlook, BatchedOverloadValidatesEveryQueryUpFront) {
  MarginQuery good;
  MarginQuery bad;
  bad.duty = 1.5;
  // All-or-nothing: one malformed query rejects the whole batch.
  EXPECT_THROW(margin_outlook(model(), std::vector<MarginQuery>{good, bad}),
               std::invalid_argument);
  EXPECT_TRUE(margin_outlook(model(), std::vector<MarginQuery>{}).empty());
}

/// The projection with the full 200-iteration bisection every time, as it
/// stood before the bisection learned to stop once lo and hi are adjacent
/// doubles: the reference the early exit must match bit for bit.
double reference_bisect(const bti::ClosedFormModel& m,
                        const bti::OperatingCondition& c, double target,
                        double hi) {
  double lo = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (m.stress_delta_vth(Seconds{mid}, c) >= target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

MarginOutlook reference_outlook(const bti::ClosedFormModel& m,
                                const MarginQuery& q) {
  MarginOutlook out;
  if (q.delta_vth.value() >= q.margin.value()) {
    out.crosses = true;
    return out;
  }
  const bti::OperatingCondition c =
      q.duty > 0.0 ? bti::ac_stress(q.vdd, q.temp, q.duty)
                   : bti::recovery(q.vdd, q.temp);
  const double ceiling = m.stress_delta_vth(Seconds{1e19}, c);
  out.time_to_margin = q.horizon;
  if (ceiling < q.margin.value() || ceiling < q.delta_vth.value()) {
    return out;
  }
  const double t0 = reference_bisect(m, c, q.delta_vth.value(), 1e19);
  if (m.stress_delta_vth(Seconds{t0 + q.horizon.value()}, c) <
      q.margin.value()) {
    return out;
  }
  const double t_cross =
      reference_bisect(m, c, q.margin.value(), t0 + q.horizon.value());
  out.crosses = true;
  out.time_to_margin = Seconds{std::max(0.0, t_cross - t0)};
  return out;
}

TEST(MarginOutlook, EarlyExitBisectionIsBitIdenticalToTheFullLoop) {
  // A seeded grid over every query field, with the edges the invariant
  // argument leans on: zero shift (target 0), zero and tiny horizons,
  // pure recovery and full duty.
  const bti::ClosedFormModel m = model();
  const double horizons[] = {0.0, 1e-9, 1.0, 3600.0, 3.15576e8, 1e15};
  std::uint64_t state = 0x5EED'B15EC7;
  const auto uniform = [&] {
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  };
  std::vector<MarginQuery> queries;
  for (int i = 0; i < 1500; ++i) {
    MarginQuery q;
    q.delta_vth = Volts{i % 5 == 0 ? 0.0 : 15e-3 * uniform()};
    q.margin = Volts{1e-3 + 19e-3 * uniform()};
    q.duty = i % 7 == 0 ? 0.0 : (i % 7 == 1 ? 1.0 : uniform());
    q.vdd = Volts{0.8 + 1.7 * uniform()};
    q.temp = Celsius{125.0 * uniform()};
    q.horizon = Seconds{i % 3 == 0 ? horizons[i % 6]
                                   : std::pow(10.0, 15.0 * uniform())};
    queries.push_back(q);
  }
  const std::vector<MarginOutlook> batched = margin_outlook(m, queries);
  int crossing = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const MarginOutlook want = reference_outlook(m, queries[i]);
    const MarginOutlook solo = margin_outlook(m, queries[i]);
    crossing += want.crosses ? 1 : 0;
    EXPECT_EQ(solo.crosses, want.crosses) << "query " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(solo.time_to_margin.value()),
              std::bit_cast<std::uint64_t>(want.time_to_margin.value()))
        << "query " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[i].time_to_margin.value()),
              std::bit_cast<std::uint64_t>(want.time_to_margin.value()))
        << "query " << i;
  }
  // The grid exercises both bisections, not only the censored exits.
  EXPECT_GT(crossing, 100);
  EXPECT_LT(crossing, 1400);
}

}  // namespace
}  // namespace ash::mc
