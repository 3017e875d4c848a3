// Workload churn under the invariant checker: users joining and leaving
// mid-run — inside a live decay window — must not break usage
// conservation or tree consistency, and an absent user's priority
// recovers (decays toward its allocation) rather than wedging.
#include <gtest/gtest.h>

#include "scenario/catalog.hpp"
#include "scenario/compile.hpp"
#include "scenario/spec.hpp"
#include "testbed/experiment.hpp"
#include "testing/invariants.hpp"

namespace aequus::scenario {
namespace {

/// Compile a churn spec at a small scale and hand back the only variant.
CompiledScenario compile_small(const std::string& text) {
  CompileOptions options;
  options.jobs_scale = 1.0;
  options.max_jobs = 300;
  options.time_scale = 0.2;  // ~72-minute window keeps the test fast
  apply_env_scale(options);  // sanitizer CI compresses further
  return compile(parse_spec_text(text), options);
}

TEST(ScenarioChurn, JoinLeaveMidDecayWindowKeepsConservationAndTree) {
  // U65 joins at 35%, U30 leaves at 60% — both users have jobs on either
  // side of their membership edge at this job count. The sliding-window
  // decay spans half the (compressed) run, so both edges land inside a
  // window that still carries usage from the other regime.
  const CompiledScenario compiled = compile_small(R"({
    "name": "churn_mid_decay",
    "workload": {"jobs": 300, "seed": 2012},
    "churn": [{"user": "U65", "join": 0.35, "leave": 1.0},
              {"user": "U30", "join": 0.0, "leave": 0.6}],
    "experiment": {"fairshare": {"decay": {"kind": "window", "window": 2160}}}
  })");
  ASSERT_EQ(compiled.sweep.variants.size(), 1u);
  const auto& variant = compiled.sweep.variants.front();

  // The lowered trace actually churned: no U65 job before 35% of the run,
  // no U30 job after 60%, and the dominant user survived the cut.
  const double duration = variant.scenario.duration_seconds;
  bool saw_u65 = false;
  for (const auto& record : variant.scenario.trace.records()) {
    if (record.user == "U65") {
      saw_u65 = true;
      EXPECT_GE(record.submit, 0.35 * duration);
    }
    if (record.user == "U30") {
      EXPECT_LT(record.submit, 0.6 * duration);
    }
  }
  EXPECT_TRUE(saw_u65);

  testbed::Experiment experiment(variant.scenario, variant.config);
  testing::InvariantChecker checker(experiment);
  const testbed::ExperimentResult result = experiment.run();

  EXPECT_EQ(result.jobs_submitted, variant.scenario.trace.size());
  EXPECT_EQ(result.jobs_completed, result.jobs_submitted);
  EXPECT_GT(checker.checks_run(), 10u);
  EXPECT_TRUE(checker.ok()) << checker.report();

  // Lossless run: reconvergence and exact conservation both hold across
  // the membership edges.
  checker.check_reconvergence();
  checker.check_conservation_final();
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(ScenarioChurn, AbsentUserStaysInPolicyTreeAndRunsNoJobs) {
  // A user churned out for the entire tail: its identity keeps a policy
  // share (provisioned-but-idle), but contributes no usage after leaving.
  const CompiledScenario compiled = compile_small(R"({
    "name": "churn_early_exit",
    "workload": {"jobs": 300, "seed": 2012},
    "churn": [{"user": "U30", "join": 0.0, "leave": 0.25}]
  })");
  const auto& variant = compiled.sweep.variants.front();

  testbed::Experiment experiment(variant.scenario, variant.config);
  testing::InvariantChecker checker(experiment);
  const testbed::ExperimentResult result = experiment.run();
  EXPECT_TRUE(checker.ok()) << checker.report();
  checker.check_conservation_final();
  EXPECT_TRUE(checker.ok()) << checker.report();

  // U30 ran early jobs, so it shows up in final usage — but with a far
  // smaller share than its un-churned workload would earn.
  const auto it = result.final_usage_share.find("U30");
  ASSERT_NE(it, result.final_usage_share.end());
  EXPECT_GT(it->second, 0.0);
  EXPECT_LT(it->second, variant.scenario.usage_shares.at("U30"));
}

TEST(ScenarioChurn, ChurnEverythingOutFailsLoudlyNotSilently) {
  // Churning every user out of the whole run would produce an empty
  // trace; the compiler lets it through (it is well-defined), but the
  // trace really is empty — callers can see it rather than a hang.
  const CompiledScenario compiled = compile_small(R"({
    "name": "churn_all_out",
    "workload": {"jobs": 300, "seed": 2012},
    "churn": [{"user": "U65", "join": 0.99, "leave": 1.0},
              {"user": "U30", "join": 0.99, "leave": 1.0},
              {"user": "U3", "join": 0.99, "leave": 1.0},
              {"user": "Uoth", "join": 0.99, "leave": 1.0}]
  })");
  const auto& variant = compiled.sweep.variants.front();
  EXPECT_LT(variant.scenario.trace.size(), 300u / 10u)
      << "only the last-percent submissions may survive";
}

}  // namespace
}  // namespace aequus::scenario
