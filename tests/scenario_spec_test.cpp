// The declarative scenario DSL: strict decoding and the pure lowering
// transforms (arrival remap, churn filtering, job scaling, deep merge).
//
// The decode tests are the error-path contract: every malformed spec
// must fail with a one-line SpecError naming the JSON path of the
// offending value — a typo in a catalog file is a test failure with an
// address, never a silently-defaulted knob.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "scenario/compile.hpp"
#include "scenario/spec.hpp"
#include "util/strings.hpp"
#include "workload/scenarios.hpp"

namespace aequus::scenario {
namespace {

/// Parse and expect a SpecError whose message contains `needle`.
void expect_error(const std::string& text, const std::string& needle) {
  try {
    (void)parse_spec_text(text);
    FAIL() << "expected SpecError mentioning '" << needle << "' for: " << text;
  } catch (const SpecError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "error was: " << error.what();
  }
}

// --- decoding: defaults and full round trip -----------------------------

TEST(ScenarioSpecDecode, MinimalSpecGetsDefaults) {
  const ScenarioSpec spec = parse_spec_text(R"({"name": "minimal"})");
  EXPECT_EQ(spec.name, "minimal");
  EXPECT_EQ(spec.workload.base, "baseline");
  EXPECT_EQ(spec.workload.jobs, 43200u);
  EXPECT_EQ(spec.workload.seed, 2012u);
  EXPECT_TRUE(spec.phases.empty());
  EXPECT_TRUE(spec.churn.empty());
  EXPECT_TRUE(spec.offloads.empty());
  EXPECT_TRUE(spec.faults.lossless());
  EXPECT_TRUE(spec.variants.empty());
  EXPECT_EQ(spec.sweep.replications, 1u);
  EXPECT_EQ(spec.sweep.root_seed, 2014u);
  EXPECT_TRUE(spec.gates.invariants);
  EXPECT_TRUE(spec.gates.reconvergence);
  EXPECT_EQ(spec.gates.conservation, "auto");
  EXPECT_TRUE(spec.gates.determinism);
}

TEST(ScenarioSpecDecode, FullSpecRoundTrip) {
  const ScenarioSpec spec = parse_spec_text(R"({
    "name": "full",
    "description": "everything at once",
    "workload": {"base": "bursty", "jobs": 500, "seed": 7, "clusters": 4,
                 "hosts_per_cluster": 10},
    "policy_shares": {"U65": 0.7, "U30": 0.3},
    "phases": [{"start": 0.5, "end": 0.8, "rate": 3.0},
               {"start": 0.1, "end": 0.4, "rate": 0.5}],
    "churn": [{"user": "U3", "join": 0.2, "leave": 0.9}],
    "offloads": [{"from_site": 2, "to_site": 0, "fraction": 0.25,
                  "start": 0.1, "end": 0.6}],
    "faults": {"loss_rate": 0.1, "duplicate_rate": 0.05, "latency_jitter": 2.5,
               "seed": 99,
               "link_loss": [{"from": "site0", "to": "site1", "rate": 0.5}],
               "outages": [{"site": "site2", "start": 0.3, "end": 0.3}]},
    "experiment": {"sample_interval": 120},
    "variants": [{"name": "x2", "scale": 2.0,
                  "experiment": {"drain_seconds": 3600}}],
    "sweep": {"replications": 5, "root_seed": 42, "convergence_epsilon": 0.1},
    "gates": {"invariants": false, "conservation": "off", "determinism": false,
              "convergence_tolerance": 0.07}
  })");
  EXPECT_EQ(spec.workload.base, "bursty");
  EXPECT_EQ(spec.workload.clusters, 4);
  EXPECT_EQ(spec.policy_shares.at("U65"), 0.7);
  // Phases come back sorted by start.
  ASSERT_EQ(spec.phases.size(), 2u);
  EXPECT_EQ(spec.phases[0].start, 0.1);
  EXPECT_EQ(spec.phases[1].rate, 3.0);
  ASSERT_EQ(spec.churn.size(), 1u);
  EXPECT_EQ(spec.churn[0].user, "U3");
  ASSERT_EQ(spec.offloads.size(), 1u);
  EXPECT_EQ(spec.offloads[0].from_site, 2);
  EXPECT_FALSE(spec.faults.lossless());
  EXPECT_EQ(spec.faults.seed, 99u);
  ASSERT_EQ(spec.faults.outages.size(), 1u);
  EXPECT_EQ(spec.faults.outages[0].start, spec.faults.outages[0].end)
      << "zero-length outage must decode";
  ASSERT_EQ(spec.variants.size(), 1u);
  EXPECT_EQ(spec.variants[0].scale, 2.0);
  EXPECT_EQ(spec.sweep.replications, 5u);
  EXPECT_FALSE(spec.gates.invariants);
  EXPECT_EQ(spec.gates.conservation, "off");
  EXPECT_EQ(spec.gates.convergence_tolerance, 0.07);
}

// --- decoding: every error names its JSON path --------------------------

TEST(ScenarioSpecDecode, InvalidJsonIsWrapped) {
  expect_error("{not json", "$: invalid JSON");
}

TEST(ScenarioSpecDecode, RootMustBeObject) { expect_error("[1, 2]", "$: expected an object"); }

TEST(ScenarioSpecDecode, NameIsRequired) { expect_error(R"({})", "$.name"); }

TEST(ScenarioSpecDecode, UnknownTopLevelKeyRejected) {
  expect_error(R"({"name": "x", "phasez": []})", "$.phasez: unknown key");
}

TEST(ScenarioSpecDecode, UnknownWorkloadKeyRejected) {
  expect_error(R"({"name": "x", "workload": {"job": 10}})", "$.workload.job: unknown key");
}

TEST(ScenarioSpecDecode, UnknownWorkloadBaseRejected) {
  expect_error(R"({"name": "x", "workload": {"base": "trace-replay"}})",
               "$.workload.base: unknown base workload");
}

TEST(ScenarioSpecDecode, WrongTypeNamesPathAndTypes) {
  expect_error(R"({"name": "x", "phases": {}})", "$.phases: expected an array, got an object");
  expect_error(R"({"name": "x", "phases": [{"start": "soon", "end": 0.5}]})",
               "$.phases[0].start: expected a number, got a string");
  expect_error(R"({"name": "x", "gates": {"invariants": 1}})",
               "$.gates.invariants: expected a boolean");
  expect_error(R"({"name": 17})", "$.name: expected a string");
}

TEST(ScenarioSpecDecode, OutOfRangePhaseTimesRejected) {
  expect_error(R"({"name": "x", "phases": [{"start": 0.2, "end": 1.5}]})",
               "$.phases[0].end: time fraction 1.5 out of range [0, 1]");
  expect_error(R"({"name": "x", "phases": [{"start": -0.1, "end": 0.5}]})",
               "$.phases[0].start");
  expect_error(R"({"name": "x", "phases": [{"start": 0.5, "end": 0.5}]})",
               "end 0.5 must be > start 0.5");
  expect_error(R"({"name": "x", "phases": [{"start": 0.2, "end": 0.3, "rate": -1}]})",
               "$.phases[0].rate");
}

TEST(ScenarioSpecDecode, OverlappingPhasesRejected) {
  expect_error(R"({"name": "x", "phases": [{"start": 0.0, "end": 0.5},
                                           {"start": 0.4, "end": 0.8}]})",
               "overlaps previous phase");
}

TEST(ScenarioSpecDecode, ChurnValidation) {
  expect_error(R"({"name": "x", "churn": [{"join": 0.1}]})", "$.churn[0].user");
  expect_error(R"({"name": "x", "churn": [{"user": "U3", "join": 0.9, "leave": 0.2}]})",
               "leave 0.2 must be > join 0.9");
}

TEST(ScenarioSpecDecode, OffloadValidation) {
  expect_error(R"({"name": "x", "offloads": [{"fraction": 0.5}]})",
               "$.offloads[0].to_site");
  expect_error(R"({"name": "x", "offloads": [{"to_site": 1, "fraction": 1.5}]})",
               "$.offloads[0].fraction: probability 1.5 out of range");
}

TEST(ScenarioSpecDecode, FaultValidation) {
  expect_error(R"({"name": "x", "faults": {"loss_rate": 2.0}})", "$.faults.loss_rate");
  expect_error(R"({"name": "x", "faults": {"outages": [{"site": "site0", "start": 0.5,
                                                        "end": 0.2}]}})",
               "end 0.2 must be >= start 0.5");
  expect_error(R"({"name": "x", "faults": {"link_loss": [{"to": "site1", "rate": 0.5}]}})",
               "$.faults.link_loss[0].from");
}

TEST(ScenarioSpecDecode, ExperimentTypoRejectedAtTopLevel) {
  expect_error(R"({"name": "x", "experiment": {"sample_intervall": 60}})",
               "$.experiment.sample_intervall: unknown key");
}

TEST(ScenarioSpecDecode, VariantValidation) {
  expect_error(R"({"name": "x", "variants": [{"scale": 2}]})", "$.variants[0].name");
  expect_error(R"({"name": "x", "variants": [{"name": "y", "scale": 0}]})",
               "$.variants[0].scale");
  expect_error(R"({"name": "x", "variants": [{"name": "y",
                                              "experiment": {"wrong": 1}}]})",
               "$.variants[0].experiment.wrong: unknown key");
}

TEST(ScenarioSpecDecode, GateValidation) {
  expect_error(R"({"name": "x", "gates": {"conservation": "sometimes"}})",
               "$.gates.conservation");
  expect_error(R"({"name": "x", "gates": {"conversation": true}})",
               "$.gates.conversation: unknown key");
}

TEST(ScenarioSpecDecode, RecordDefaultsOffAndPresenceImpliesEnabled) {
  // No record key: recording is off.
  EXPECT_FALSE(parse_spec_text(R"({"name": "x"})").record.enabled);
  // Writing a record object at all means "record this scenario"...
  const ScenarioSpec bare = parse_spec_text(R"({"name": "x", "record": {}})");
  EXPECT_TRUE(bare.record.enabled);
  EXPECT_TRUE(bare.record.path.empty());  // derived from the name later
  EXPECT_EQ(bare.record.cap, 0u);
  EXPECT_EQ(bare.record.format, "binary");
  // ...unless explicitly switched off.
  EXPECT_FALSE(
      parse_spec_text(R"({"name": "x", "record": {"enabled": false}})").record.enabled);

  const ScenarioSpec full = parse_spec_text(
      R"({"name": "x", "record": {"path": "x.jsonl", "cap": 5000, "format": "jsonl"}})");
  EXPECT_TRUE(full.record.enabled);
  EXPECT_EQ(full.record.path, "x.jsonl");
  EXPECT_EQ(full.record.cap, 5000u);
  EXPECT_EQ(full.record.format, "jsonl");
}

TEST(ScenarioSpecDecode, RecordValidation) {
  expect_error(R"({"name": "x", "record": {"format": "protobuf"}})",
               "$.record.format: unknown value 'protobuf'");
  expect_error(R"({"name": "x", "record": {"capp": 10}})", "$.record.capp: unknown key");
  expect_error(R"({"name": "x", "record": {"cap": -1}})", "$.record.cap");
  expect_error(R"({"name": "x", "record": true})", "$.record: expected an object");
}

// --- deep_merge ---------------------------------------------------------

TEST(DeepMerge, OverlayWinsAndObjectsMergeRecursively) {
  const json::Value base = json::parse(
      R"({"timings": {"client_cache_ttl": 600, "uss_bin_width": 30}, "sample_interval": 60})");
  const json::Value overlay =
      json::parse(R"({"timings": {"client_cache_ttl": 120}, "drain_seconds": 900})");
  const json::Value merged = deep_merge(base, overlay);
  EXPECT_EQ(merged.at("timings").at("client_cache_ttl").as_number(), 120.0);
  EXPECT_EQ(merged.at("timings").at("uss_bin_width").as_number(), 30.0);
  EXPECT_EQ(merged.at("sample_interval").as_number(), 60.0);
  EXPECT_EQ(merged.at("drain_seconds").as_number(), 900.0);
}

TEST(DeepMerge, NullOverlayKeepsBase) {
  const json::Value base = json::parse(R"({"a": 1})");
  EXPECT_EQ(deep_merge(base, json::Value()), base);
}

TEST(DeepMerge, ScalarOverlayReplacesObject) {
  const json::Value base = json::parse(R"({"a": {"b": 1}})");
  const json::Value overlay = json::parse(R"({"a": 5})");
  EXPECT_EQ(deep_merge(base, overlay).at("a").as_number(), 5.0);
}

// --- effective_jobs -----------------------------------------------------

TEST(EffectiveJobs, ScaleCapAndFloor) {
  WorkloadSpec workload;
  workload.jobs = 43200;
  CompileOptions options;
  EXPECT_EQ(effective_jobs(workload, options), 43200u);
  options.jobs_scale = 0.01;
  EXPECT_EQ(effective_jobs(workload, options), 432u);
  options.max_jobs = 300;
  EXPECT_EQ(effective_jobs(workload, options), 300u);
  options.jobs_scale = 1e-9;
  EXPECT_EQ(effective_jobs(workload, options), 40u) << "min_jobs floor";
  options.min_jobs = 10;
  EXPECT_EQ(effective_jobs(workload, options), 10u);
}

// --- remap_arrivals -----------------------------------------------------

workload::Trace small_trace(std::size_t jobs, double duration) {
  workload::Trace trace;
  for (std::size_t i = 0; i < jobs; ++i) {
    workload::TraceRecord record;
    record.user = i % 2 == 0 ? "U65" : "U30";
    record.submit = duration * static_cast<double>(i) / static_cast<double>(jobs);
    record.duration = 100.0 + static_cast<double>(i);
    trace.add(record);
  }
  return trace;
}

TEST(RemapArrivals, PreservesCountUsersAndDurations) {
  const workload::Trace trace = small_trace(200, 1000.0);
  const std::vector<PhaseSpec> phases = {{0.2, 0.4, 5.0}};
  const workload::Trace remapped = remap_arrivals(trace, phases, 1000.0);
  ASSERT_EQ(remapped.size(), trace.size());
  EXPECT_EQ(remapped.total_usage(), trace.total_usage());
  // Same user mix.
  EXPECT_EQ(remapped.user_stats().at("U65").jobs, trace.user_stats().at("U65").jobs);
  // All arrivals stay inside the run.
  for (const auto& record : remapped.records()) {
    EXPECT_GE(record.submit, 0.0);
    EXPECT_LE(record.submit, 1000.0);
  }
}

TEST(RemapArrivals, ConcentratesArrivalsIntoHighRateWindow) {
  const workload::Trace trace = small_trace(1000, 1000.0);
  // One 5x window over a fifth of the run; gaps keep rate 1. The window
  // carries 5*0.2 = 1.0 of the total 1.8 mass -> ~55% of arrivals.
  const std::vector<PhaseSpec> phases = {{0.4, 0.6, 5.0}};
  const workload::Trace remapped = remap_arrivals(trace, phases, 1000.0);
  std::size_t inside = 0;
  for (const auto& record : remapped.records()) {
    if (record.submit >= 400.0 && record.submit < 600.0) ++inside;
  }
  const double fraction = static_cast<double>(inside) / 1000.0;
  EXPECT_NEAR(fraction, 5.0 * 0.2 / 1.8, 0.02);
}

TEST(RemapArrivals, SilentWindowEmptiesOut) {
  const workload::Trace trace = small_trace(1000, 1000.0);
  const std::vector<PhaseSpec> phases = {{0.4, 0.6, 0.0}};
  const workload::Trace remapped = remap_arrivals(trace, phases, 1000.0);
  for (const auto& record : remapped.records()) {
    EXPECT_FALSE(record.submit > 400.0 && record.submit < 600.0)
        << "arrival at " << record.submit << " inside the rate-0 window";
  }
}

TEST(RemapArrivals, AllZeroRatesThrow) {
  const workload::Trace trace = small_trace(10, 1000.0);
  const std::vector<PhaseSpec> phases = {{0.0, 1.0, 0.0}};
  EXPECT_THROW((void)remap_arrivals(trace, phases, 1000.0), SpecError);
}

TEST(RemapArrivals, EmptyPhasesIsIdentity) {
  const workload::Trace trace = small_trace(50, 1000.0);
  const workload::Trace remapped = remap_arrivals(trace, {}, 1000.0);
  ASSERT_EQ(remapped.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(remapped.records()[i].submit, trace.records()[i].submit);
  }
}

// --- apply_churn --------------------------------------------------------

TEST(ApplyChurn, DropsSubmissionsOutsideMembershipWindow) {
  const workload::Trace trace = small_trace(100, 1000.0);
  const std::vector<ChurnSpec> churn = {{"U65", 0.5, 1.0}};
  const workload::Trace churned = apply_churn(trace, churn, 1000.0);
  for (const auto& record : churned.records()) {
    if (record.user == "U65") {
      EXPECT_GE(record.submit, 500.0);
    }
  }
  // U30 is untouched.
  EXPECT_EQ(churned.user_stats().at("U30").jobs, trace.user_stats().at("U30").jobs);
  EXPECT_LT(churned.user_stats().at("U65").jobs, trace.user_stats().at("U65").jobs);
}

TEST(ApplyChurn, MultipleWindowsUnion) {
  const workload::Trace trace = small_trace(100, 1000.0);
  const std::vector<ChurnSpec> churn = {{"U65", 0.0, 0.3}, {"U65", 0.7, 1.0}};
  const workload::Trace churned = apply_churn(trace, churn, 1000.0);
  for (const auto& record : churned.records()) {
    if (record.user != "U65") continue;
    EXPECT_TRUE(record.submit < 300.0 || record.submit >= 700.0)
        << "U65 job at " << record.submit << " inside the absence gap";
  }
}

// --- base workloads -------------------------------------------------------

/// The single variant's scenario of a one-line spec over `base`.
workload::Scenario compile_base(const std::string& base, std::size_t jobs) {
  const CompiledScenario compiled = compile(parse_spec_text(util::format(
      R"({"name": "x", "workload": {"base": "%s", "jobs": %zu}})", base.c_str(), jobs)));
  return compiled.sweep.variants.at(0).scenario;
}

TEST(CompileBase, EveryBaseResolvesWithItsJobCountAndPolicy) {
  const workload::Scenario baseline = compile_base("baseline", 100);
  const workload::Scenario skewed = compile_base("nonoptimal-policy", 120);
  const workload::Scenario bursty = compile_base("bursty", 100);
  EXPECT_EQ(baseline.trace.size(), 100u);
  EXPECT_EQ(skewed.trace.size(), 120u);
  // The generator rounds each user's share of the job count on its own
  // (45.5 % of 100 jobs is 46, twice in the bursty mix, where U3 rises
  // to 45.5 % of the jobs).
  EXPECT_NEAR(static_cast<double>(bursty.trace.size()), 100.0, 5.0);
  EXPECT_GT(bursty.trace.user_stats().at("U3").job_fraction,
            baseline.trace.user_stats().at("U3").job_fraction + 0.2);
  // The non-optimal base skews the policy to 70/20/8/2.
  EXPECT_DOUBLE_EQ(skewed.policy_shares.at("U65"), 0.70);
  EXPECT_DOUBLE_EQ(skewed.policy_shares.at("U30"), 0.20);
  EXPECT_DOUBLE_EQ(skewed.policy_shares.at("U3"), 0.08);
  EXPECT_DOUBLE_EQ(skewed.policy_shares.at("Uoth"), 0.02);
}

// --- compile-time validation --------------------------------------------

TEST(Compile, OffloadSiteOutOfRangeThrows) {
  const ScenarioSpec spec = parse_spec_text(
      R"({"name": "x", "workload": {"jobs": 50},
          "offloads": [{"to_site": 12, "fraction": 0.5}]})");
  EXPECT_THROW((void)compile(spec), SpecError);
}

TEST(Compile, UnknownOutageSiteNameThrows) {
  const ScenarioSpec spec = parse_spec_text(
      R"({"name": "x", "workload": {"jobs": 50},
          "faults": {"outages": [{"site": "cluster-one", "start": 0.1, "end": 0.2}]}})");
  EXPECT_THROW((void)compile(spec), SpecError);
}

}  // namespace
}  // namespace aequus::scenario
