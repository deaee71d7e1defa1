#include "ash/bti/batch_ensemble.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ash/bti/trap_ensemble.h"
#include "ash/util/random.h"
#include "ash/util/thread_pool.h"

namespace ash::bti {
namespace {

// A schedule exercising every evolve path: recurring stress/recovery
// conditions (cache hits), a drifting-temperature stretch (every interval
// unique — the solo ensemble's transient path), measurement wakes with a
// different duty and dt, and a dt change on a cached condition.
struct Step {
  OperatingCondition condition;
  double dt_s;
};

std::vector<Step> mixed_schedule() {
  std::vector<Step> steps;
  const auto stress = dc_stress(Volts{1.2}, Celsius{110.0});
  const auto recover = recovery(Volts{-0.3}, Celsius{110.0});
  const auto wake = ac_stress(Volts{1.2}, Celsius{110.0}, 0.5);
  for (int i = 0; i < 6; ++i) steps.push_back({stress, 60.0});
  steps.push_back({wake, 2.7});
  for (int i = 0; i < 4; ++i) steps.push_back({stress, 60.0});
  steps.push_back({stress, 1200.0});  // dt change on a cached condition
  // Drifting chamber: every step is a one-shot condition.
  for (int i = 0; i < 12; ++i) {
    OperatingCondition c = stress;
    c.temperature_k = c.temperature_k + Kelvin{0.013 * (i + 1)};
    steps.push_back({c, 60.0});
  }
  steps.push_back({wake, 2.7});
  for (int i = 0; i < 6; ++i) steps.push_back({recover, 600.0});
  for (int i = 0; i < 3; ++i) steps.push_back({stress, 60.0});
  return steps;
}

// A schedule built to evict: 8 recurring conditions (more than the solo
// ensemble's 6 rate slots) over 3 temperatures (more than the 2 Arrhenius
// factor entries per memo).  Each visit repeats its condition so the solo
// ensemble promotes it (miss, miss, hits), and the cycle runs three times,
// so every revisit finds its slot and its factors evicted.  The third
// round changes each condition's dt, refreshing the decay of slots the
// batch engine (16 slots) still holds.
std::vector<Step> eviction_schedule() {
  const std::vector<OperatingCondition> conditions = {
      dc_stress(Volts{1.2}, Celsius{110.0}),
      recovery(Volts{-0.3}, Celsius{110.0}),
      dc_stress(Volts{1.2}, Celsius{90.0}),
      ac_stress(Volts{1.2}, Celsius{100.0}, 0.5),
      recovery(Volts{0.0}, Celsius{90.0}),
      dc_stress(Volts{1.0}, Celsius{100.0}),
      ac_stress(Volts{1.1}, Celsius{110.0}, 0.25),
      recovery(Volts{-0.2}, Celsius{100.0}),
  };
  std::vector<Step> steps;
  for (int round = 0; round < 3; ++round) {
    const double dt_s = round < 2 ? 300.0 : 900.0;
    for (const auto& c : conditions) {
      for (int i = 0; i < 4; ++i) steps.push_back({c, dt_s});
    }
  }
  return steps;
}

std::vector<BatchMemberSpec> distinct_seed_population(int n) {
  std::vector<BatchMemberSpec> specs;
  for (int m = 0; m < n; ++m) {
    specs.push_back({default_td_parameters(),
                     derive_seed(0xBA7C4, static_cast<std::uint64_t>(m))});
  }
  return specs;
}

// A homogeneous-kinetics population: one shared seed, per-member DeltaVth
// scale (the corner/mismatch axis) — the fleet-sweep shape that collapses
// to a single trap class.
std::vector<BatchMemberSpec> one_class_population(int n) {
  std::vector<BatchMemberSpec> specs;
  Rng scales(0x5CA1E5);
  for (int m = 0; m < n; ++m) {
    TdParameters p = default_td_parameters();
    p.delta_vth_mean_v = p.delta_vth_mean_v * std::exp(scales.normal(0.0, 0.05));
    specs.push_back({p, 0xF1EE7});
  }
  return specs;
}

void expect_bit_identical_trajectories(
    const std::vector<BatchMemberSpec>& specs, util::ThreadPool* pool,
    const std::vector<Step>& schedule = mixed_schedule()) {
  std::vector<TrapEnsemble> solo;
  solo.reserve(specs.size());
  for (const auto& s : specs) solo.emplace_back(s.params, s.seed);
  BatchEnsemble batch(specs, pool);

  int step_index = 0;
  for (const auto& step : schedule) {
    batch.evolve(step.condition, Seconds{step.dt_s});
    for (std::size_t m = 0; m < solo.size(); ++m) {
      solo[m].evolve(step.condition, Seconds{step.dt_s});
    }
    for (std::size_t m = 0; m < solo.size(); ++m) {
      ASSERT_EQ(batch.delta_vth(static_cast<int>(m)), solo[m].delta_vth())
          << "member " << m << " diverged at step " << step_index;
    }
    ++step_index;
  }
  for (std::size_t m = 0; m < solo.size(); ++m) {
    ASSERT_EQ(batch.occupancies(static_cast<int>(m)), solo[m].occupancies())
        << "member " << m;
  }
}

// The satellite-2 acceptance assertion: exact mode is bit-for-bit equal to
// N independent TrapEnsemble runs for a seeded 64-chip population.
TEST(BatchEnsemble, ExactModeBitIdenticalDistinctSeeds64) {
  const auto specs = distinct_seed_population(64);
  BatchEnsemble batch(specs, {});
  EXPECT_EQ(batch.member_count(), 64);
  EXPECT_EQ(batch.class_count(), 64);  // distinct seeds: one class each
  expect_bit_identical_trajectories(specs, {});
}

TEST(BatchEnsemble, ExactModeBitIdenticalOneClass64) {
  const auto specs = one_class_population(64);
  BatchEnsemble batch(specs, {});
  EXPECT_EQ(batch.member_count(), 64);
  // Shared seed + shared kinetics constants: rates are computed once per
  // condition for the whole population.
  EXPECT_EQ(batch.class_count(), 1);
  expect_bit_identical_trajectories(specs, {});
}

// Slot and Arrhenius-factor eviction, the part of the shared rate memo the
// mixed schedule never reaches: solo (6 slots, fills on a repeated miss)
// and batch (16 slots, fills on every miss) must still agree bit for bit.
TEST(BatchEnsemble, EvictionScheduleBitIdenticalDistinctSeeds) {
  expect_bit_identical_trajectories(distinct_seed_population(16), nullptr,
                                    eviction_schedule());
}

TEST(BatchEnsemble, EvictionScheduleBitIdenticalOneClass) {
  expect_bit_identical_trajectories(one_class_population(16), nullptr,
                                    eviction_schedule());
}

TEST(BatchEnsemble, AdoptedEnsemblesContinueBitIdentically) {
  const auto specs = distinct_seed_population(8);
  std::vector<TrapEnsemble> solo;
  for (const auto& s : specs) solo.emplace_back(s.params, s.seed);
  // Age the solos first; adoption must pick up mid-campaign state.
  const auto stress = dc_stress(Volts{1.2}, Celsius{110.0});
  for (auto& e : solo) {
    e.evolve(stress, Seconds{3600.0});
    e.evolve(stress, Seconds{3600.0});
  }
  std::vector<const TrapEnsemble*> ptrs;
  for (const auto& e : solo) ptrs.push_back(&e);
  BatchEnsemble batch(ptrs, {});
  for (std::size_t m = 0; m < solo.size(); ++m) {
    ASSERT_EQ(batch.delta_vth(static_cast<int>(m)), solo[m].delta_vth());
  }
  for (const auto& step : mixed_schedule()) {
    batch.evolve(step.condition, Seconds{step.dt_s});
    for (auto& e : solo) e.evolve(step.condition, Seconds{step.dt_s});
  }
  for (std::size_t m = 0; m < solo.size(); ++m) {
    ASSERT_EQ(batch.occupancies(static_cast<int>(m)), solo[m].occupancies());
  }
}

// The tsan-job target: the apply sweep sharded over a ThreadPool must be
// data-race-free and bit-identical to the serial sweep.
TEST(BatchEnsemble, ThreadPoolShardingBitIdentical) {
  const auto specs = one_class_population(48);
  util::ThreadPool pool(4);
  BatchEnsemble parallel_batch(specs, &pool);
  BatchEnsemble serial_batch(specs, {});
  for (const auto& step : mixed_schedule()) {
    parallel_batch.evolve(step.condition, Seconds{step.dt_s});
    serial_batch.evolve(step.condition, Seconds{step.dt_s});
  }
  for (int m = 0; m < serial_batch.member_count(); ++m) {
    ASSERT_EQ(parallel_batch.occupancies(m), serial_batch.occupancies(m));
  }
}

TEST(BatchEnsemble, ValidationMatchesSoloAndLeavesStateUntouched) {
  const auto specs = distinct_seed_population(4);
  BatchEnsemble batch(specs, {});
  const auto stress = dc_stress(Volts{1.2}, Celsius{110.0});
  batch.evolve(stress, Seconds{60.0});
  const auto before = batch.occupancies(2);
  const auto version = batch.state_version();

  EXPECT_THROW(batch.evolve(stress, Seconds{-1.0}), std::invalid_argument);
  OperatingCondition too_negative = stress;
  too_negative.voltage_v = Volts{-0.6};  // below min_safe_voltage_v
  EXPECT_THROW(batch.evolve(too_negative, Seconds{60.0}),
               std::invalid_argument);
  OperatingCondition too_hot = stress;
  too_hot.temperature_k = Kelvin{273.15 + 126.0};  // above max_safe_temp_k
  EXPECT_THROW(batch.evolve(too_hot, Seconds{60.0}), std::invalid_argument);

  // dt == 0 is a no-op, not an error — and not a state change.
  batch.evolve(stress, Seconds{0.0});
  EXPECT_EQ(batch.state_version(), version);
  EXPECT_EQ(batch.occupancies(2), before);
}

TEST(BatchEnsemble, SetOccupanciesRoundTripAndReset) {
  const auto specs = distinct_seed_population(3);
  BatchEnsemble batch(specs, {});
  batch.evolve(dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{3600.0});
  const auto snapshot = batch.occupancies(1);
  const double shift = batch.delta_vth(1);

  batch.reset();
  EXPECT_EQ(batch.delta_vth(1), 0.0);

  batch.set_occupancies(1, snapshot);
  EXPECT_EQ(batch.occupancies(1), snapshot);
  EXPECT_EQ(batch.delta_vth(1), shift);

  EXPECT_THROW(batch.set_occupancies(0, std::vector<double>{0.5}),
               std::invalid_argument);
  auto bad = snapshot;
  bad[0] = 1.5;
  EXPECT_THROW(batch.set_occupancies(1, bad), std::invalid_argument);
}

TEST(BatchEnsemble, MemberIndexOutOfRangeThrows) {
  const auto specs = distinct_seed_population(3);
  BatchEnsemble batch(specs, {});
  const std::vector<double> occ(static_cast<std::size_t>(batch.trap_count(0)),
                                0.0);
  for (const int m : {-1, batch.member_count()}) {
    EXPECT_THROW(batch.delta_vth(m), std::out_of_range) << m;
    EXPECT_THROW(batch.occupancies(m), std::out_of_range) << m;
    EXPECT_THROW(batch.set_occupancies(m, occ), std::out_of_range) << m;
    EXPECT_THROW(batch.trap_count(m), std::out_of_range) << m;
    EXPECT_THROW(batch.parameters(m), std::out_of_range) << m;
  }
}

TEST(BatchEnsemble, RejectsEmptyAndNullPopulations) {
  EXPECT_THROW(BatchEnsemble(std::vector<BatchMemberSpec>{}, {}),
               std::invalid_argument);
  EXPECT_THROW(BatchEnsemble(std::vector<const TrapEnsemble*>{}, {}),
               std::invalid_argument);
  std::vector<const TrapEnsemble*> with_null{nullptr};
  EXPECT_THROW(BatchEnsemble(with_null, {}), std::invalid_argument);
}

TEST(BatchEnsemble, ClassGroupingSplitsOnKineticsChanges) {
  // Same seed but a kinetics field differs -> separate classes.
  std::vector<BatchMemberSpec> specs;
  specs.push_back({default_td_parameters(), 7});
  specs.push_back({default_td_parameters(), 7});
  TdParameters hot = default_td_parameters();
  hot.emission_ea_mean_ev += 0.01;
  specs.push_back({hot, 7});
  BatchEnsemble batch(specs, {});
  EXPECT_EQ(batch.class_count(), 2);
  EXPECT_EQ(batch.member_count(), 3);
}

}  // namespace
}  // namespace ash::bti
