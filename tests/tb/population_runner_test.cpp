#include "ash/tb/population_runner.h"

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/fpga/chip.h"
#include "ash/tb/experiment_runner.h"
#include "ash/util/thread_pool.h"

namespace ash::tb {
namespace {

fpga::ChipConfig chip_config(int i) {
  fpga::ChipConfig cc;
  cc.chip_id = i + 1;
  cc.seed = 0x9B0 + static_cast<std::uint64_t>(i);
  cc.ro_stages = 7;  // small ring keeps the lockstep x solo matrix cheap
  return cc;
}

// A schedule touching every engine path: an AC burn-in, a DC stress phase
// (frozen ring, measurement wakes), and a sleep recovery phase.
TestCase mini_campaign() {
  TestCase tc;
  tc.name = "population";
  Phase burn_in;
  burn_in.label = "BURNIN";
  burn_in.mode = fpga::RoMode::kAcOscillating;
  burn_in.supply_v = Volts{1.2};
  burn_in.chamber_c = Celsius{30.0};
  burn_in.duration_s = Seconds{600.0};
  burn_in.sample_every_s = Seconds{300.0};
  tc.phases.push_back(burn_in);
  Phase stress;
  stress.label = "AS110DC";
  stress.mode = fpga::RoMode::kDcFrozen;
  stress.supply_v = Volts{1.2};
  stress.chamber_c = Celsius{110.0};
  stress.duration_s = Seconds{3600.0};
  stress.sample_every_s = Seconds{1200.0};
  tc.phases.push_back(stress);
  Phase recover;
  recover.label = "AR110N";
  recover.mode = fpga::RoMode::kSleep;
  recover.supply_v = Volts{-0.3};
  recover.chamber_c = Celsius{110.0};
  recover.duration_s = Seconds{1800.0};
  recover.sample_every_s = Seconds{900.0};
  tc.phases.push_back(recover);
  return tc;
}

std::string csv_of(const DataLog& log) {
  std::ostringstream os;
  log.write_csv(os);
  return os.str();
}

// The tentpole determinism contract: a population run is byte-identical to
// N independent solo campaigns with the same config and schedule.
TEST(PopulationRunner, ExactModeByteIdenticalToSoloRuns) {
  const int kChips = 4;
  const RunnerConfig config;
  const TestCase tc = mini_campaign();

  std::vector<std::string> solo_csv;
  for (int i = 0; i < kChips; ++i) {
    fpga::FpgaChip chip(chip_config(i));
    ExperimentRunner runner(config);
    solo_csv.push_back(csv_of(runner.run(chip, tc)));
  }

  std::vector<fpga::FpgaChip> chips;
  chips.reserve(kChips);
  for (int i = 0; i < kChips; ++i) chips.emplace_back(chip_config(i));
  std::vector<fpga::FpgaChip*> ptrs;
  for (auto& c : chips) ptrs.push_back(&c);

  PopulationRunner runner(config);
  const auto logs = runner.run(ptrs, tc);
  ASSERT_EQ(logs.size(), static_cast<std::size_t>(kChips));
  for (int i = 0; i < kChips; ++i) {
    EXPECT_EQ(csv_of(logs[static_cast<std::size_t>(i)]), solo_csv[
        static_cast<std::size_t>(i)])
        << "chip " << i + 1 << " diverged from its solo run";
  }
}

// The aging state left on the chips matches solo too: a post-campaign
// frequency read is the log's own final frequency path.
TEST(PopulationRunner, LeavesChipsInSoloAgingState) {
  const RunnerConfig config;
  const TestCase tc = mini_campaign();

  fpga::FpgaChip solo_chip(chip_config(0));
  ExperimentRunner solo(config);
  solo.run(solo_chip, tc);

  fpga::FpgaChip pop_chip(chip_config(0));
  std::vector<fpga::FpgaChip*> ptrs{&pop_chip};
  PopulationRunner runner(config);
  runner.run(ptrs, tc);

  EXPECT_EQ(pop_chip.ro_frequency_hz(Volts{1.2}, Kelvin{383.15}),
            solo_chip.ro_frequency_hz(Volts{1.2}, Kelvin{383.15}));
}

// Sharding the occupancy sweeps over a pool must not change a single byte.
TEST(PopulationRunner, ThreadPoolShardingByteIdentical) {
  const RunnerConfig config;
  const TestCase tc = mini_campaign();
  const int kChips = 3;

  const auto run_with = [&](PopulationRunnerConfig pop) {
    std::vector<fpga::FpgaChip> chips;
    chips.reserve(kChips);
    for (int i = 0; i < kChips; ++i) chips.emplace_back(chip_config(i));
    std::vector<fpga::FpgaChip*> ptrs;
    for (auto& c : chips) ptrs.push_back(&c);
    std::vector<std::string> csv;
    for (const auto& log : PopulationRunner(config, pop).run(ptrs, tc)) {
      csv.push_back(csv_of(log));
    }
    return csv;
  };

  util::ThreadPool pool(4);
  PopulationRunnerConfig threaded;
  threaded.pool = &pool;
  EXPECT_EQ(run_with(threaded), run_with({}));
}

TEST(PopulationRunner, RejectsUnsupportedConfigurations) {
  RunnerConfig killed;
  killed.abort_at_campaign_s = Seconds{3600.0};
  EXPECT_THROW(PopulationRunner{killed}, std::invalid_argument);

  PopulationRunner runner{RunnerConfig{}};
  const TestCase tc = mini_campaign();
  std::vector<fpga::FpgaChip*> empty;
  EXPECT_THROW(runner.run(empty, tc), std::invalid_argument);

  std::vector<fpga::FpgaChip*> with_null{nullptr};
  EXPECT_THROW(runner.run(with_null, tc), std::invalid_argument);

  fpga::FpgaChip seven(chip_config(0));
  fpga::ChipConfig other_cc = chip_config(1);
  other_cc.ro_stages = 9;
  fpga::FpgaChip nine(other_cc);
  std::vector<fpga::FpgaChip*> mixed{&seven, &nine};
  EXPECT_THROW(runner.run(mixed, tc), std::invalid_argument);
}

TEST(PopulationRunner, EmptyScheduleYieldsEmptyLogs) {
  fpga::FpgaChip chip(chip_config(0));
  std::vector<fpga::FpgaChip*> ptrs{&chip};
  TestCase tc;
  tc.name = "empty";
  const auto logs = PopulationRunner{RunnerConfig{}}.run(ptrs, tc);
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_EQ(logs.front().size(), 0u);
}

}  // namespace
}  // namespace ash::tb
