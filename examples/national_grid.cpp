// National-grid simulation: the paper's full integrated stack (Figure 2)
// at a reduced scale — six clusters with their own Aequus installations
// and SLURM-like schedulers, a submission host replaying a synthetic
// trace sampled from the 2012 national workload model, and a shared
// name-resolution endpoint.
//
// Usage:  ./build/examples/national_grid [jobs]     (default 4000)
#include <cstdio>
#include <cstdlib>

#include "scenario/compile.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace aequus;

  std::size_t jobs = 4000;
  if (argc > 1 && std::atol(argv[1]) > 0) jobs = static_cast<std::size_t>(std::atol(argv[1]));

  // The baseline scenario: 6 clusters x 40 hosts, six simulated hours,
  // 95 % load, policy targets equal to the workload's usage shares, and
  // stochastic dispatch as in the paper's tests (DSL floor: 40 jobs).
  const scenario::CompiledScenario compiled = scenario::compile(scenario::parse_spec_text(
      util::format(R"({"name": "national_grid", "workload": {"jobs": %zu, "seed": 42}})", jobs)));
  const testbed::SweepVariant& baseline = compiled.sweep.variants.front();
  const workload::Scenario& scenario = baseline.scenario;
  std::printf("national grid simulation: %zu jobs, %d clusters x %d hosts, %.1f h\n\n",
              scenario.trace.size(), scenario.cluster_count, scenario.hosts_per_cluster,
              scenario.duration_seconds / 3600.0);

  testbed::Experiment experiment(scenario, baseline.config);
  const testbed::ExperimentResult result = experiment.run();

  std::printf("%s\n", result.priorities
                          .render_chart("global fairshare priorities (balance = 0.5)", 90,
                                        12, 0.3, 0.7)
                          .c_str());
  std::printf("%s\n",
              result.usage_shares.render_table("cumulative usage shares over time", 8)
                  .c_str());

  std::printf("completed %llu/%llu jobs, mean utilization %.1f%%, makespan %s\n",
              static_cast<unsigned long long>(result.jobs_completed),
              static_cast<unsigned long long>(result.jobs_submitted),
              100.0 * result.mean_utilization,
              util::format_duration(result.makespan).c_str());
  std::printf("bus traffic: %llu requests, %llu one-way, %.1f kB payload\n",
              static_cast<unsigned long long>(result.bus.requests),
              static_cast<unsigned long long>(result.bus.one_way),
              static_cast<double>(result.bus.payload_bytes) / 1024.0);
  return 0;
}
