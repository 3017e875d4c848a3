// Figure 12 (non-optimal policy test, §IV-A-3): the baseline workload with
// a policy that does not match it (70/20/8/2 % for U65/U30/U3/Uoth).
// Expected shape: the system approaches balance mid-run while U65 jobs
// are plentiful (the paper sees it "close to balance in the 120 to 180
// minute range"), loses balance when U65's queue runs dry, converges
// again when U65's next phase arrives (~240 min), and ends with mostly
// U30 jobs running below-balance priority to keep utilization up.
//
// The experiment is defined once, by scenarios/fig12_nonoptimal_policy.json
// (one replication unless --reps says otherwise); the charts and window
// checks read replication 0. Emits BENCH_fig12_nonoptimal_policy.json.
#include <algorithm>
#include <cstdio>

#include "common.hpp"

using namespace aequus;

int main(int argc, char** argv) {
  bench::print_banner("Figure 12: non-optimal policy (70/20/8/2)",
                      "Espling et al., IPPS'14, Section IV-A test 3");

  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, bench::kTestbedJobs, 0);
  const testbed::SweepSpec spec = bench::catalog_sweep("fig12_nonoptimal_policy", args);
  const workload::Scenario& scenario = spec.variants.front().scenario;
  std::printf("policy: U65 %.0f%%, U30 %.0f%%, U3 %.0f%%, Uoth %.0f%% — workload usage "
              "shares: %.1f/%.1f/%.1f/%.1f%%\n\n",
              100.0 * scenario.policy_shares.at("U65"),
              100.0 * scenario.policy_shares.at("U30"),
              100.0 * scenario.policy_shares.at("U3"),
              100.0 * scenario.policy_shares.at("Uoth"),
              100.0 * scenario.usage_shares.at("U65"),
              100.0 * scenario.usage_shares.at("U30"),
              100.0 * scenario.usage_shares.at("U3"),
              100.0 * scenario.usage_shares.at("Uoth"));

  const bench::SweepRun sweep = bench::run_sweep_with_reference(spec, args);
  const testbed::ExperimentResult& result = sweep.result.tasks.front().result;

  std::printf("%s\n",
              result.usage_shares
                  .render_chart("cumulative usage share per user (policy is unreachable)",
                                100, 14, 0.0, 1.0)
                  .c_str());
  std::printf("%s\n",
              result.priorities
                  .render_chart("global priority per user (balance = 0.5)", 100, 14, 0.2,
                                0.8)
                  .c_str());

  // Sliding 60-minute windows: where does the system get closest to
  // balance? (The paper sees it close to balance in the 120-180 min
  // range.)
  const auto deviation_in = [&](double t0, double t1) {
    double worst = 0.0;
    for (const auto& [user, series] : result.priorities.all()) {
      (void)user;
      worst = std::max(worst, series.max_deviation_in(t0, t1, 0.5));
    }
    return worst;
  };
  double best_deviation = 1.0;
  double best_window_start = 0.0;
  for (double t0 = 30.0 * 60.0; t0 + 60.0 * 60.0 <= scenario.duration_seconds;
       t0 += 10.0 * 60.0) {
    const double d = deviation_in(t0, t0 + 60.0 * 60.0);
    if (d < best_deviation) {
      best_deviation = d;
      best_window_start = t0;
    }
  }
  std::printf("closest-to-balance 60-min window: %.0f-%.0f min, max |priority-0.5| %.3f\n",
              best_window_start / 60.0, best_window_start / 60.0 + 60.0, best_deviation);

  // End of run: "mostly jobs by U30 are available, and to maximize
  // utilization these jobs are run despite receiving a lower priority."
  const auto& u30 = result.priorities.all().at("U30");
  const double u30_end_priority =
      u30.mean_in(scenario.duration_seconds - 40.0 * 60.0, scenario.duration_seconds, 0.5);
  const double end_utilization = result.utilization.all().at("total").mean_in(
      scenario.duration_seconds - 40.0 * 60.0, scenario.duration_seconds, 0.0);
  std::printf("last 40 min: U30 priority %.3f (below balance) with utilization %.1f%%: %s\n",
              u30_end_priority, 100.0 * end_utilization,
              (u30_end_priority < 0.5 && end_utilization > 0.85) ? "yes" : "NO");

  std::printf("\nfinal usage shares track the workload, not the skewed policy:\n");
  for (const auto& [user, share] : result.final_usage_share) {
    std::printf("  %-5s measured %.3f | workload %.3f | policy %.3f\n", user.c_str(), share,
                scenario.usage_shares.at(user), scenario.policy_shares.at(user));
  }
  std::printf("\nmean utilization stays high despite the policy mismatch: %.1f%%\n\n",
              100.0 * result.mean_utilization);

  bench::print_aggregates(sweep.result);
  bench::report_observability(args, sweep.result);
  bench::write_bench_json("fig12_nonoptimal_policy", args, spec, sweep.result, sweep.extra);
  return 0;
}
