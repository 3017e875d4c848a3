// Figure 13 (bursty usage test, §IV-A-5): U3's submission rate raised to
// 45.5 % of jobs (deducted from U65), the burst shifted to start after
// one third of the run. Checks reproduced:
//   - job mix 45.5 / 6.5 / 45.5 / 3 %, usage mix 47 / 38.5 / 12 / 2.5 %;
//   - U3's priority is bounded by 0.5 * (1 + 0.12) = 0.56 and climbs
//     towards it while U3 is absent;
//   - the system approaches balance in the 80-130 minute window, then
//     readjusts when the burst lands (~130 min);
//   - peak submission rate far above the sustained 120 jobs/min
//     (paper: 472 jobs/min).
//
// The experiment is defined once, by scenarios/fig13_bursty.json (one
// replication unless --reps says otherwise); the charts and checks read
// replication 0. Emits BENCH_fig13_bursty.json.
#include <algorithm>
#include <cstdio>

#include "common.hpp"
#include "stats/descriptive.hpp"

using namespace aequus;

int main(int argc, char** argv) {
  bench::print_banner("Figure 13: bursty usage test",
                      "Espling et al., IPPS'14, Section IV-A test 5");

  const bench::BenchArgs args = bench::parse_bench_args(argc, argv, bench::kTestbedJobs, 0);
  const testbed::SweepSpec spec = bench::catalog_sweep("fig13_bursty", args);
  const workload::Scenario& scenario = spec.variants.front().scenario;

  // Fig 13c analogue: job arrival model.
  {
    stats::Histogram arrivals(0.0, scenario.duration_seconds, 72);  // 5-min bins
    stats::Histogram u3(0.0, scenario.duration_seconds, 72);
    for (const auto& r : scenario.trace.records()) {
      arrivals.add(r.submit);
      if (r.user == "U3") u3.add(r.submit);
    }
    std::printf("%s\n", arrivals.render("Fig 13c analogue: total arrivals (5-min bins)", 10)
                            .c_str());
    std::printf("%s\n",
                u3.render("U3 arrivals (burst after one third of the run)", 10).c_str());
  }

  const auto stats_by_user = scenario.trace.user_stats();
  std::printf("job mix:   U65 %.1f%%  U30 %.1f%%  U3 %.1f%%  Uoth %.1f%%  "
              "(paper: 45.5/6.5/45.5/3)\n",
              100.0 * stats_by_user.at("U65").job_fraction,
              100.0 * stats_by_user.at("U30").job_fraction,
              100.0 * stats_by_user.at("U3").job_fraction,
              100.0 * stats_by_user.at("Uoth").job_fraction);
  std::printf("usage mix: U65 %.1f%%  U30 %.1f%%  U3 %.1f%%  Uoth %.1f%%  "
              "(paper: 47/38.5/12/2.5)\n\n",
              100.0 * stats_by_user.at("U65").usage_fraction,
              100.0 * stats_by_user.at("U30").usage_fraction,
              100.0 * stats_by_user.at("U3").usage_fraction,
              100.0 * stats_by_user.at("Uoth").usage_fraction);

  const bench::SweepRun sweep = bench::run_sweep_with_reference(spec, args);
  const testbed::ExperimentResult& result = sweep.result.tasks.front().result;

  std::printf("%s\n",
              result.usage_shares
                  .render_chart("Fig 13a analogue: cumulative usage share per user", 100,
                                14, 0.0, 1.0)
                  .c_str());
  std::printf("%s\n",
              result.priorities
                  .render_chart("Fig 13b analogue: priority per user (balance 0.5, "
                                "U3 bound 0.56)",
                                100, 14, 0.3, 0.7)
                  .c_str());

  // U3 priority bound.
  const auto& u3_priorities = result.priorities.all().at("U3");
  double u3_max = 0.0;
  double u3_max_at = 0.0;
  for (std::size_t i = 0; i < u3_priorities.size(); ++i) {
    if (u3_priorities.values()[i] > u3_max) {
      u3_max = u3_priorities.values()[i];
      u3_max_at = u3_priorities.times()[i];
    }
  }
  std::printf("U3 max priority %.4f at %.0f min (theory bound 0.5*(1+0.12) = 0.56): %s\n",
              u3_max, u3_max_at / 60.0, u3_max <= 0.56 + 1e-9 ? "within bound" : "EXCEEDED");

  // Readjustment when the burst lands: while U3 is absent its priority
  // sits near the 0.56 bound (unused allocation redistributed to the
  // others); once the burst arrives and U3 consumes, its priority falls
  // back towards (and below) balance and its usage share climbs.
  const double u3_priority_pre = u3_priorities.mean_in(60.0 * 60.0, 125.0 * 60.0, 0.5);
  const double u3_priority_post = u3_priorities.mean_in(140.0 * 60.0, 220.0 * 60.0, 0.5);
  const auto& u3_usage = result.usage_shares.all().at("U3");
  const double u3_usage_pre = u3_usage.mean_in(60.0 * 60.0, 125.0 * 60.0, 0.0);
  const double u3_usage_post = u3_usage.mean_in(140.0 * 60.0, 220.0 * 60.0, 0.0);
  std::printf("U3 mean priority: 60-125 min %.3f -> 140-220 min %.3f\n", u3_priority_pre,
              u3_priority_post);
  std::printf("U3 usage share:   60-125 min %.3f -> 140-220 min %.3f\n", u3_usage_pre,
              u3_usage_post);
  std::printf("system readjusts when the burst lands (~130 min): %s\n",
              (u3_priority_post < u3_priority_pre && u3_usage_post > u3_usage_pre) ? "yes"
                                                                                   : "NO");

  std::printf("\nsubmission rates: sustained %.0f /min, peak %.0f /min (paper: 120 / 472)\n",
              result.rates.sustained_per_minute, result.rates.peak_per_minute);
  std::printf("mean utilization %.1f%% (paper window: 93-97%%)\n\n",
              100.0 * result.mean_utilization);

  bench::print_aggregates(sweep.result);
  bench::report_observability(args, sweep.result);
  bench::write_bench_json("fig13_bursty", args, spec, sweep.result, sweep.extra);
  return 0;
}
