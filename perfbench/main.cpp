/// libash_bench — the repository's end-to-end + per-layer benchmark.
///
///   libash_bench --workload chip5_campaign|population_sweep|fleet_session
///                --seed N --seconds S --trace 0|1 [--work-dir DIR]
///
/// Prints a human-readable report, then as its last stdout line one JSON
/// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// slots when untraced, every per-layer metric when traced.  Exit 0 when
/// every output check passed, 1 when one failed, 2 on a usage error.
/// perfbench/README.md documents workloads, metrics and the layer map.

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "ash/util/flags.h"
#include "bench.h"

namespace {

using perfbench::Options;
using perfbench::Result;

int usage(const char* why) {
  std::fprintf(stderr,
               "libash_bench: %s\n"
               "usage: libash_bench --workload chip5_campaign|"
               "population_sweep|fleet_session --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_report(const Options& opt, const Result& r) {
  std::printf("libash_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  if (!opt.trace) {
    std::printf("  %-28s %16s %-8s %s\n", "metric", "value", "unit", "n");
    for (const auto& [name, m] : r.detail) {
      std::printf("  %-28s %16.6g %-8s %zu\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
    std::printf("  gated slots:\n");
    for (const auto& [name, m] : r.end_to_end) {
      std::printf("  %-28s %16.6g %-8s %zu\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  } else {
    std::printf("  %-40s %16s %s\n", "per-layer metric", "value", "unit");
    for (const auto& spec : perfbench::per_layer_specs()) {
      const auto it = r.per_layer.find(spec.name);
      std::printf("  %-40s %16.6g %s\n", spec.name.c_str(),
                  it == r.per_layer.end() ? 0.0 : it->second, spec.unit.c_str());
    }
  }
  std::printf("  attempted %lld failed %lld\n", r.attempted, r.failed);
  for (const auto& f : r.check_failures) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }
}

std::string result_json(const Options& opt, Result& r) {
  std::string metrics;
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit) {
    if (!std::isfinite(value)) {
      r.check_failures.push_back("metric " + name + " is not finite");
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + json_number(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (opt.trace) {
    for (const auto& spec : perfbench::per_layer_specs()) {
      const auto it = r.per_layer.find(spec.name);
      add(spec.name, it == r.per_layer.end() ? 0.0 : it->second, spec.unit.c_str());
    }
  } else {
    for (const auto& [name, m] : r.end_to_end) add(name, m.value, m.unit);
  }
  return std::string("{\"correct\": ") +
         (r.check_failures.empty() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {" +
         metrics + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    const ash::Flags flags(argc, argv);
    flags.check_known({"workload", "seed", "seconds", "trace", "work-dir"});
    opt.workload = flags.get("workload", std::string());
    opt.seed = std::stoull(flags.get("seed", std::string("1")));
    opt.seconds = flags.get("seconds", 10.0);
    const int trace = flags.get("trace", 0);
    if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
    opt.trace = trace == 1;
    opt.work_dir = flags.get("work-dir", opt.work_dir);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  Result result;
  try {
    perfbench::make_dirs(opt.work_dir);
    perfbench::pin_to_one_vcpu();
    if (opt.workload == "chip5_campaign") {
      result = perfbench::run_chip5_campaign(opt);
    } else if (opt.workload == "population_sweep") {
      result = perfbench::run_population_sweep(opt);
    } else if (opt.workload == "fleet_session") {
      result = perfbench::run_fleet_session(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "libash_bench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  const std::string json = result_json(opt, result);
  print_report(opt, result);
  std::printf("%s\n", json.c_str());
  return result.check_failures.empty() ? 0 : 1;
}
