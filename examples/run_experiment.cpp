// Spec-driven experiment runner: read a scenario DSL spec (the format of
// scenarios/*.json, see src/scenario/spec.hpp), run its first variant's
// first replication through the full testbed, print the measurement
// summary, and optionally export the workload as SWF/CSV.
//
// Usage (example specs in examples/specs/):
//   ./build/examples/run_experiment <spec.json> [trace-out.{swf,csv}]
//
// The run is task 0 of the spec's sweep, so its experiment seed is
// sweep_task_seed(sweep.root_seed, 0), as in scenario_run and the benches.
#include <cstdio>

#include "scenario/catalog.hpp"
#include "scenario/compile.hpp"
#include "util/strings.hpp"
#include "workload/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace aequus;

  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <spec.json> [trace-out.{swf,csv}]\n", argv[0]);
    return 2;
  }

  try {
    scenario::CompiledScenario compiled = scenario::compile(scenario::load_spec_file(argv[1]));
    testbed::SweepSpec& sweep = compiled.sweep;
    sweep.variants.resize(1);
    sweep.replications = 1;
    sweep.threads = 1;
    sweep.keep_results = true;
    sweep.fingerprinter = nullptr;
    const workload::Scenario& scenario = sweep.variants.front().scenario;

    std::printf("scenario '%s': %zu jobs, %d clusters x %d hosts, %.1f h window\n",
                scenario.name.c_str(), scenario.trace.size(), scenario.cluster_count,
                scenario.hosts_per_cluster, scenario.duration_seconds / 3600.0);

    if (argc > 2) {
      workload::save_trace(argv[2], scenario.trace);
      std::printf("workload exported to %s\n", argv[2]);
    }

    const testbed::SweepResult run = testbed::run_sweep(sweep);
    const testbed::ExperimentResult& result = run.tasks.front().result;

    std::printf("\n%s\n",
                result.priorities
                    .render_chart("global fairshare priorities (balance = 0.5)", 90, 12,
                                  0.3, 0.7)
                    .c_str());
    std::printf("completed %llu/%llu jobs | utilization %.1f%% | makespan %s\n",
                static_cast<unsigned long long>(result.jobs_completed),
                static_cast<unsigned long long>(result.jobs_submitted),
                100.0 * result.mean_utilization,
                util::format_duration(result.makespan).c_str());
    const double convergence =
        result.priority_convergence_time(0.05, scenario.duration_seconds);
    std::printf("priority convergence (+-0.05): %s\n",
                convergence >= 0 ? util::format("%.0f min", convergence / 60.0).c_str()
                                 : "not reached");
    std::printf("final usage shares:");
    for (const auto& [user, share] : result.final_usage_share) {
      std::printf("  %s %.3f", user.c_str(), share);
    }
    std::printf("\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "experiment failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
