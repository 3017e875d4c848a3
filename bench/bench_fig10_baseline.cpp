// Figure 10 (baseline convergence test, §IV-A): six clusters x 40 virtual
// hosts, 43,200 jobs over six hours at 95 % load, fairshare-only
// scheduling with the percental projection, policy targets equal to the
// workload's actual usage shares. The system should converge towards
// balance: cumulative usage shares approach the targets and all users'
// priorities approach the 0.5 balance point.
//
// The experiment is defined once, by scenarios/fig10_baseline.json. It
// runs as a parallel sweep (the spec's 4 replications, seeds derived from
// the root seed) so the convergence numbers carry confidence intervals;
// unless --no-serial-reference is given, a single-threaded reference
// sweep measures the parallel speedup. Emits BENCH_fig10_baseline.json.
#include <cmath>
#include <cstdio>

#include "common.hpp"

using namespace aequus;

int main(int argc, char** argv) {
  bench::print_banner("Figure 10: baseline six-cluster convergence",
                      "Espling et al., IPPS'14, Section IV-A test 1");

  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, bench::kTestbedJobs, 0);
  const testbed::SweepSpec spec = bench::catalog_sweep("fig10_baseline", args);
  const workload::Scenario& scenario = spec.variants.front().scenario;
  std::printf("scenario: %d clusters x %d hosts, %zu jobs, %.0f s, target load %.0f%%\n\n",
              scenario.cluster_count, scenario.hosts_per_cluster, scenario.trace.size(),
              scenario.duration_seconds, 100.0 * scenario.target_load);

  const bench::SweepRun sweep = bench::run_sweep_with_reference(spec, args);

  // The charts show replication 0; the tables aggregate all of them.
  const testbed::ExperimentResult& result = sweep.result.tasks.front().result;
  std::printf("%s\n",
              result.usage_shares
                  .render_chart("Fig 10a analogue: cumulative usage share per user "
                                "(replication 0)",
                                100, 14, 0.0, 1.0)
                  .c_str());
  std::printf("%s\n",
              result.priorities
                  .render_chart("Fig 10b analogue: global fairshare priority per user "
                                "(percental; balance = 0.5; replication 0)",
                                100, 14, 0.3, 0.7)
                  .c_str());

  const auto& aggregate = sweep.result.aggregates.at("baseline");
  std::printf("across %zu replications (mean +- 95%% CI):\n",
              aggregate.at("mean_utilization").count);
  std::printf("  mean utilization: %.1f%% +- %.1f%% (paper: 93-97%%)\n",
              100.0 * aggregate.at("mean_utilization").mean,
              100.0 * aggregate.at("mean_utilization").ci95_half);
  std::printf("  sustained submission rate: %.0f jobs/min (paper: ~120)\n",
              aggregate.at("sustained_rate_per_min").mean);
  const auto& convergence = aggregate.at("convergence_time_s");
  if (aggregate.at("converged").min >= 1.0) {
    std::printf("  priority convergence to balance +-0.05: %.0f s +- %.0f s (%.0f min)\n",
                convergence.mean, convergence.ci95_half, convergence.mean / 60.0);
  } else {
    std::printf("  priority convergence to balance +-0.05: not reached in every run\n");
  }
  std::printf("  worst final-share error vs targets: %.4f (max over reps %.4f)\n\n",
              aggregate.at("max_share_error").mean, aggregate.at("max_share_error").max);

  bench::print_aggregates(sweep.result);

  std::printf("final usage shares vs targets (replication 0):\n");
  for (const auto& [user, share] : result.final_usage_share) {
    std::printf("  %-5s measured %.4f  target %.4f  |delta| %.4f\n", user.c_str(), share,
                scenario.usage_shares.at(user),
                std::abs(share - scenario.usage_shares.at(user)));
  }

  bench::report_observability(args, sweep.result);
  bench::write_bench_json("fig10_baseline", args, spec, sweep.result, sweep.extra);
  return 0;
}
