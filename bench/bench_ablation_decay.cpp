// Ablation: usage decay functions.
//
// §II-A: the algorithm "can be configured with, e.g., different usage
// decay functions to control how the impact of previous usage is
// decreased over time". The paper's evaluation fixes one configuration;
// this ablation runs the baseline scenario under no decay, exponential
// half-lives of 1 h and 24 h, a 2 h sliding window, and a 2 h linear ramp,
// and compares convergence and priority fluctuation.
//
// Expected shape: long-memory configurations (no decay / 24 h half-life)
// converge smoothly, since they track cumulative shares; short-memory
// configurations react faster to recent imbalance but fluctuate more.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "util/table.hpp"

using namespace aequus;

namespace {

struct Outcome {
  double convergence = -1.0;
  double fluctuation = 0.0;  ///< mean |delta| between consecutive samples
  double end_deviation = 0.0;
};

Outcome run_with(const workload::Scenario& scenario, core::DecayConfig decay) {
  testbed::ExperimentConfig config;
  config.fairshare.decay = decay;
  const testbed::ExperimentResult result = testbed::Experiment(scenario, config).run();
  Outcome o;
  o.convergence = result.priority_convergence_time(0.05, scenario.duration_seconds);
  std::size_t n = 0;
  for (const auto& [user, s] : result.priorities.all()) {
    (void)user;
    for (std::size_t i = 1; i < s.size(); ++i) {
      if (s.times()[i] > scenario.duration_seconds) break;
      o.fluctuation += std::fabs(s.values()[i] - s.values()[i - 1]);
      ++n;
    }
    o.end_deviation = std::max(
        o.end_deviation, s.max_deviation_in(scenario.duration_seconds - 1800.0,
                                            scenario.duration_seconds, 0.5));
  }
  if (n > 0) o.fluctuation /= static_cast<double>(n);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner("Ablation: usage decay functions",
                      "Espling et al., IPPS'14, Section II-A (parameterized decay)");

  const std::size_t jobs = bench::jobs_from_argv(argc, argv, 12000);
  const workload::Scenario scenario = workload::baseline_scenario(2012, jobs);

  struct Case {
    const char* name;
    core::DecayConfig decay;
  };
  const Case cases[] = {
      {"none (cumulative)", {core::DecayKind::kNone, 1.0, 1.0}},
      {"half-life 1 h", {core::DecayKind::kExponentialHalfLife, 3600.0, 0.0}},
      {"half-life 24 h", {core::DecayKind::kExponentialHalfLife, 86400.0, 0.0}},
      {"sliding window 2 h", {core::DecayKind::kSlidingWindow, 0.0, 7200.0}},
      {"linear ramp 2 h", {core::DecayKind::kLinear, 0.0, 7200.0}},
  };

  util::Table table({"Decay", "Convergence (min)", "Fluct./sample", "End |dev|"});
  for (const auto& c : cases) {
    std::printf("running %s...\n", c.name);
    const Outcome o = run_with(scenario, c.decay);
    table.add_row({c.name,
                   o.convergence >= 0 ? util::format("%.0f", o.convergence / 60.0) : "n/a",
                   util::format("%.5f", o.fluctuation),
                   util::format("%.3f", o.end_deviation)});
  }
  std::printf("\n%s\n", table.render().c_str());
  std::printf("long-memory decay tracks cumulative shares (smooth, converges);\n"
              "short-memory reacts faster but fluctuates with recent completions.\n");
  return 0;
}
