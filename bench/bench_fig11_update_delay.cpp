// Figure 11 (impact of update delay, §IV-A-2): the baseline is scaled up
// ten times in arrival times and durations while every delay source stays
// constant — (I) reporting latency, (II) USS/UMS/FCS cache periods,
// (III) the libaequus cache TTL, (IV) the RM re-prioritization interval.
// Relative to the run length the delays are then 10x smaller; the paper
// measures a 10-15 % shorter convergence time (as a fraction of the run),
// ruling update delay out as a significant error source for the
// compressed tests.
//
// The experiment is defined once, by scenarios/fig11_update_delay.json
// (10-minute service cadences and client TTL, a week-long decay
// half-life in both runs). Both variants run as one parallel sweep (the
// spec's 3 replications each) so the convergence fractions carry
// confidence intervals. Emits BENCH_fig11_update_delay.json.
#include <cstdio>

#include "common.hpp"

using namespace aequus;

int main(int argc, char** argv) {
  bench::print_banner("Figure 11: impact of update/processing delay",
                      "Espling et al., IPPS'14, Section IV-A test 2");

  // A lighter default than 43,200 jobs: the x10 run simulates 60 hours of
  // service chatter, so this bench uses a 12k-job baseline by default.
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, 12000, 0);
  const testbed::SweepSpec spec = bench::catalog_sweep("fig11_update_delay", args);
  const workload::Scenario& base = spec.variants.at(0).scenario;
  const workload::Scenario& scaled = spec.variants.at(1).scenario;
  std::printf("baseline: %zu jobs over %.0f s; x10: %zu jobs over %.0f s, same delays\n",
              base.trace.size(), base.duration_seconds, scaled.trace.size(),
              scaled.duration_seconds);
  bench::SweepRun sweep = bench::run_sweep_with_reference(spec, args);

  // Headline numbers come from the merged metrics snapshots: every
  // Experiment records "experiment.convergence_time_s" into its registry,
  // run_sweep merges the per-task snapshots in task-index order, and the
  // gauge mean equals the aggregate-table mean bit for bit (same sums,
  // same order). The aggregates still supply the CIs.
  const obs::Snapshot& base_obs = sweep.result.obs.at("baseline");
  const obs::Snapshot& scaled_obs = sweep.result.obs.at("x10");
  const obs::GaugeValue base_convergence = base_obs.gauge("experiment.convergence_time_s");
  const obs::GaugeValue scaled_convergence = scaled_obs.gauge("experiment.convergence_time_s");
  const double base_fraction = base_convergence.mean() / base.duration_seconds;
  const double scaled_fraction = scaled_convergence.mean() / scaled.duration_seconds;

  std::printf("convergence to balance +-%.2f (priorities, mean +- 95%% CI over %llu reps):\n",
              spec.convergence_epsilon,
              static_cast<unsigned long long>(base_convergence.samples));
  std::printf("  baseline: %8.0f +- %5.0f s = %5.1f%% of the run\n", base_convergence.mean(),
              sweep.result.aggregates.at("baseline").at("convergence_time_s").ci95_half,
              100.0 * base_fraction);
  std::printf("  x10 run : %8.0f +- %5.0f s = %5.1f%% of the run\n", scaled_convergence.mean(),
              sweep.result.aggregates.at("x10").at("convergence_time_s").ci95_half,
              100.0 * scaled_fraction);
  if (base_convergence.mean() >= 0 && scaled_convergence.mean() >= 0 && base_fraction > 0) {
    std::printf("  relative convergence time shortened by %.1f%% (paper: 10-15%%)\n",
                100.0 * (1.0 - scaled_fraction / base_fraction));
  }

  std::printf("\nmean utilization: baseline %.1f%%, x10 %.1f%%\n",
              100.0 * base_obs.gauge("experiment.mean_utilization").mean(),
              100.0 * scaled_obs.gauge("experiment.mean_utilization").mean());
  std::printf("conclusion check: update delays are a modest, not dominant, error\n"
              "source for the time-compressed tests.\n\n");

  bench::print_aggregates(sweep.result);
  bench::report_observability(args, sweep.result);
  // With --trace: the analyzer's per-hop decomposition of the update
  // pipeline (jobcomp -> client -> UMS/USS -> FCS -> reprioritize), the
  // direct measurement behind this experiment's delay budget. Chain means
  // land in the JSON extras.
  sweep.extra.merge(bench::report_trace_analysis(args, spec, sweep.result));
  bench::write_bench_json("fig11_update_delay", args, spec, sweep.result, sweep.extra);
  return 0;
}
