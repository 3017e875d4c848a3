// Golden pinning: the catalog's fig10-13 specs, the one definition of the
// paper's testbed experiments, must keep producing the runs the original
// hand-coded benches produced. Each test compiles a shipped spec at 300
// jobs, runs its sweep, and requires each task's fnv1a64 of the
// determinism fingerprint (every sample of every series, %.17g) and of
// its scalar metrics map to equal the values captured from that bench
// construction. An intended change re-captures them from a run.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "scenario/catalog.hpp"
#include "scenario/compile.hpp"
#include "testbed/sweep.hpp"
#include "util/strings.hpp"

namespace aequus::scenario {
namespace {

constexpr std::size_t kJobs = 300;  ///< reduced from the paper's 43,200

/// Per-task pins: fnv1a64 of the fingerprint and of the metrics map.
struct TaskHashes {
  std::uint64_t fingerprint;
  std::uint64_t metrics;
};

/// fnv1a64 over "key=value\n" lines, values at %.17g, in map order.
std::uint64_t metrics_hash(const std::map<std::string, double>& metrics) {
  std::string rendered;
  for (const auto& [key, value] : metrics) {
    rendered += key + "=" + util::format("%.17g", value) + "\n";
  }
  return util::fnv1a64(rendered);
}

/// Compile the catalog spec at kJobs, run it, and compare every task's
/// hashes with `expected` (task-index order).
void expect_pinned(const std::string& name, const std::vector<TaskHashes>& expected) {
  CompileOptions options;
  options.max_jobs = kJobs;  // jobs_scale 1 then capped -> exactly kJobs
  const CompiledScenario compiled = compile(
      load_spec_file((std::filesystem::path(catalog_dir()) / (name + ".json")).string()),
      options);
  EXPECT_EQ(compiled.jobs, kJobs);
  ASSERT_EQ(compiled.sweep.task_count(), expected.size());
  const testbed::SweepResult result = testbed::run_sweep(compiled.sweep);
  ASSERT_EQ(result.tasks.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const testbed::SweepTaskResult& task = result.tasks[i];
    ASSERT_FALSE(task.fingerprint.empty());
    EXPECT_EQ(util::fnv1a64(task.fingerprint), expected[i].fingerprint)
        << name << " task " << i << " fingerprint diverged from the pinned bench run";
    EXPECT_EQ(metrics_hash(task.metrics), expected[i].metrics)
        << name << " task " << i << " scalar metrics diverged from the pinned bench run";
  }
}

TEST(ScenarioGolden, Fig10BaselineMatchesPinnedSweep) {
  expect_pinned("fig10_baseline", {{0x647f8f24e5352f15, 0x6ed7099939bd1d1a},
                                   {0x563fca52a479b09d, 0xacc9b16ef0d61a6f},
                                   {0x6e241b426e4e5751, 0x98fb9ba43247d025},
                                   {0xed2fd98cf2b54dfa, 0xbfd922a66c8fcf7c}});
}

TEST(ScenarioGolden, Fig11UpdateDelayMatchesPinnedSweep) {
  // Tasks are variant-major: three baseline replications, then three x10.
  expect_pinned("fig11_update_delay", {{0xc403a41700de692d, 0x22afd5c981a9ace8},
                                       {0xa6b1a3ba591192b2, 0xf3fa97de5b3bb90e},
                                       {0x88e3c403d670cc70, 0xc74f8a93b4e0e1fa},
                                       {0xdd3c4462e3a3f27d, 0xabc626eb55035af2},
                                       {0x8b59453af9e375f7, 0xdd8e0cb46366fd8f},
                                       {0x283e7b01d58b80fe, 0x28e8317863fce04e}});
}

TEST(ScenarioGolden, Fig12NonoptimalPolicyMatchesPinnedRun) {
  expect_pinned("fig12_nonoptimal_policy", {{0xf1c0effb5eb7ad9b, 0x4334956e06578fc4}});
}

TEST(ScenarioGolden, Fig13BurstyMatchesPinnedRun) {
  expect_pinned("fig13_bursty", {{0x24d58bb22b4601dc, 0x2b6f2aeca8311226}});
}

}  // namespace
}  // namespace aequus::scenario
