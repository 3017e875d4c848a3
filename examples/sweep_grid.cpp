// Parallel sweep quickstart: evaluate a grid of decay configurations
// with replications and confidence intervals, on all available cores.
//
//   ./build/examples/sweep_grid [jobs] [--threads N]
//   AEQUUS_THREADS=4 ./build/examples/sweep_grid
//
// Arguments are strict: a non-numeric, zero or negative job count,
// --threads outside 1..256, an option without a value, a second job count
// or an unknown option prints one `error:` line and exits 2.
//
// Each (variant, replication) task runs its own Experiment on a worker
// thread with a seed derived from the root seed and the task index, so
// the numbers printed here are identical at any thread count.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/decay.hpp"
#include "scenario/compile.hpp"
#include "util/strings.hpp"

namespace {

/// Print a one-line usage error and exit 2, like the benches do.
[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

/// `text` as a whole decimal integer in [min, max], or a usage error.
std::uint64_t parse_count(const char* what, const char* text, std::uint64_t min,
                          std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || stop != end || stop == text || value < min || value > max) {
    usage_error(aequus::util::format("%s must be an integer in [%llu, %llu], got '%s'", what,
                                     static_cast<unsigned long long>(min),
                                     static_cast<unsigned long long>(max), text));
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aequus;

  std::size_t jobs = 2000;
  int threads = 0;  // 0 = AEQUUS_THREADS or all cores
  bool have_jobs = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    // A job count does not start with '-' unless it is a negative number.
    const bool positional = arg[0] != '-' || (arg[1] >= '0' && arg[1] <= '9');
    if (std::strcmp(arg, "--threads") == 0) {
      if (i + 1 >= argc || argv[i + 1][0] == '\0') usage_error("option '--threads' needs a value");
      threads = static_cast<int>(parse_count("--threads", argv[++i], 1, 256));
    } else if (positional && !have_jobs) {
      jobs = static_cast<std::size_t>(parse_count("job count", arg, 1, 100'000'000));
      have_jobs = true;
    } else if (positional) {
      usage_error(util::format("unexpected argument '%s'", arg));
    } else {
      usage_error(util::format("unknown option '%s'", arg));
    }
  }

  // The baseline workload on a 3 x 10 testbed: the scenario DSL rescales
  // durations so the trace keeps its load on the smaller capacity.
  const scenario::CompiledScenario base = scenario::compile(scenario::parse_spec_text(util::format(
      R"({"name": "grid", "workload": {"jobs": %zu, "clusters": 3, "hosts_per_cluster": 10}})",
      jobs)));
  const workload::Scenario& scenario = base.sweep.variants.front().scenario;

  // The grid: three half-lives of exponential usage decay.
  std::vector<std::pair<std::string, testbed::ExperimentConfig>> configs;
  for (const double half_life_hours : {1.0, 6.0, 48.0}) {
    testbed::ExperimentConfig config;
    config.fairshare.decay = core::DecayConfig{core::DecayKind::kExponentialHalfLife,
                                               half_life_hours * 3600.0, 0.0};
    configs.emplace_back(util::format("halflife_%.0fh", half_life_hours), config);
  }

  testbed::SweepSpec spec;
  spec.variants = testbed::cross_variants({{"", scenario}}, configs);
  spec.replications = 3;
  spec.root_seed = 42;
  spec.threads = threads;
  spec.keep_results = false;  // aggregates are all this example needs

  std::printf("sweeping %zu variants x %zu replications of %zu jobs on %d thread(s)\n\n",
              spec.variants.size(), spec.replications, scenario.trace.size(),
              testbed::resolve_thread_count(threads));
  const testbed::SweepResult result = testbed::run_sweep(spec);

  std::printf("%-14s %22s %22s %16s\n", "decay", "convergence [s]", "utilization",
              "max share err");
  for (std::size_t v = 0; v < spec.variants.size(); ++v) {
    const auto& aggregate = result.aggregates.at(spec.variants[v].name);
    const auto& convergence = aggregate.at("convergence_time_s");
    const auto& utilization = aggregate.at("mean_utilization");
    std::printf("%-14s %12.0f +- %-7.0f %14.1f%% +- %-4.1f %12.4f\n",
                spec.variants[v].name.c_str(), convergence.mean, convergence.ci95_half,
                100.0 * utilization.mean, 100.0 * utilization.ci95_half,
                aggregate.at("max_share_error").mean);
  }
  std::printf("\n%zu experiments in %.2f s wall on %d thread(s)\n", result.tasks.size(),
              result.wall_seconds, result.threads_used);
  return 0;
}
