#include <gtest/gtest.h>

#include "services/config.hpp"
#include "testbed/config.hpp"

namespace aequus {
namespace {

TEST(CoreConfigJson, FairshareConfigRoundTrip) {
  core::FairshareConfig original{0.7, 5000};
  const core::FairshareConfig restored =
      json::decode<core::FairshareConfig>(core::to_json(original));
  EXPECT_DOUBLE_EQ(restored.distance_weight_k, 0.7);
  EXPECT_EQ(restored.resolution, 5000);
}

TEST(CoreConfigJson, FairshareConfigDefaults) {
  const auto config = json::decode<core::FairshareConfig>(json::parse("{}"));
  EXPECT_DOUBLE_EQ(config.distance_weight_k, 0.5);
  EXPECT_EQ(config.resolution, core::kDefaultResolution);
}

TEST(CoreConfigJson, ProjectionConfigRoundTrip) {
  core::ProjectionConfig original{core::ProjectionKind::kBitwiseVector, 12};
  const core::ProjectionConfig restored =
      json::decode<core::ProjectionConfig>(core::to_json(original));
  EXPECT_EQ(restored.kind, core::ProjectionKind::kBitwiseVector);
  EXPECT_EQ(restored.bits_per_level, 12);
}

TEST(CoreConfigJson, ProjectionKindNames) {
  EXPECT_EQ(core::projection_kind_from_string("percental"),
            core::ProjectionKind::kPercental);
  EXPECT_EQ(core::projection_kind_from_string("dictionary"),
            core::ProjectionKind::kDictionaryOrdering);
  EXPECT_EQ(core::projection_kind_from_string("bitwise"),
            core::ProjectionKind::kBitwiseVector);
  EXPECT_THROW((void)core::projection_kind_from_string("nope"), std::invalid_argument);
}

TEST(InstallationConfigJson, ParsesAllSections) {
  const auto value = json::parse(R"({
    "uss": {"bin_width": 120, "retention": 7200},
    "ums": {"update_interval": 45, "read_remote": false,
            "decay": {"kind": "window", "window": 3600}},
    "fcs": {"update_interval": 90,
            "algorithm": {"k": 0.25},
            "projection": {"kind": "dictionary"}}
  })");
  const auto config = json::decode<services::InstallationConfig>(value);
  EXPECT_DOUBLE_EQ(config.uss.bin_width, 120.0);
  EXPECT_DOUBLE_EQ(config.uss.retention, 7200.0);
  EXPECT_DOUBLE_EQ(config.ums.update_interval, 45.0);
  EXPECT_FALSE(config.ums.read_remote);
  EXPECT_EQ(config.ums.decay.kind, core::DecayKind::kSlidingWindow);
  EXPECT_DOUBLE_EQ(config.fcs.update_interval, 90.0);
  EXPECT_DOUBLE_EQ(config.fcs.algorithm.distance_weight_k, 0.25);
  EXPECT_EQ(config.fcs.projection.kind, core::ProjectionKind::kDictionaryOrdering);
}

TEST(InstallationConfigJson, EmptyDocumentKeepsDefaults) {
  const auto config = json::decode<services::InstallationConfig>(json::parse("{}"));
  const services::InstallationConfig defaults;
  EXPECT_DOUBLE_EQ(config.uss.bin_width, defaults.uss.bin_width);
  EXPECT_DOUBLE_EQ(config.ums.update_interval, defaults.ums.update_interval);
  EXPECT_EQ(config.fcs.projection.kind, defaults.fcs.projection.kind);
}

TEST(InstallationConfigJson, RoundTripsThroughToJson) {
  services::InstallationConfig original;
  original.uss.bin_width = 17.0;
  original.ums.read_remote = false;
  original.fcs.algorithm.distance_weight_k = 0.9;
  const auto restored = json::decode<services::InstallationConfig>(services::to_json(original));
  EXPECT_DOUBLE_EQ(restored.uss.bin_width, 17.0);
  EXPECT_FALSE(restored.ums.read_remote);
  EXPECT_DOUBLE_EQ(restored.fcs.algorithm.distance_weight_k, 0.9);
}

TEST(ExperimentConfigJson, FullSpecParses) {
  const auto spec = json::parse(R"({
    "dispatch": "round-robin",
    "timings": {"service_update_interval": 15, "client_cache_ttl": 20,
                "reprioritize_interval": 25, "uss_bin_width": 30, "uss_retention": 40},
    "fairshare": {"decay": {"kind": "none"},
                  "algorithm": {"k": 0.8},
                  "projection": {"kind": "bitwise", "bits_per_level": 4}},
    "bus_remote_latency": 0.5,
    "sample_interval": 45,
    "seed_rng": 99,
    "record_per_site": true,
    "sites": {"2": {"contributes": false, "rm": "maui", "hosts": 13}}
  })");
  const auto config = json::decode<testbed::ExperimentConfig>(spec);
  EXPECT_EQ(config.dispatch, testbed::DispatchPolicy::kRoundRobin);
  EXPECT_DOUBLE_EQ(config.timings.service_update_interval, 15.0);
  EXPECT_DOUBLE_EQ(config.timings.client_cache_ttl, 20.0);
  EXPECT_DOUBLE_EQ(config.timings.reprioritize_interval, 25.0);
  EXPECT_DOUBLE_EQ(config.timings.uss_bin_width, 30.0);
  EXPECT_DOUBLE_EQ(config.timings.uss_retention, 40.0);
  EXPECT_EQ(config.fairshare.decay.kind, core::DecayKind::kNone);
  EXPECT_DOUBLE_EQ(config.fairshare.algorithm.distance_weight_k, 0.8);
  EXPECT_EQ(config.fairshare.projection.kind, core::ProjectionKind::kBitwiseVector);
  EXPECT_DOUBLE_EQ(config.bus_remote_latency, 0.5);
  EXPECT_DOUBLE_EQ(config.sample_interval, 45.0);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_TRUE(config.record_per_site);
  ASSERT_EQ(config.site_overrides.count(2), 1u);
  EXPECT_FALSE(config.site_overrides.at(2).participation.contributes);
  EXPECT_EQ(config.site_overrides.at(2).rm, testbed::RmKind::kMaui);
  EXPECT_EQ(config.site_overrides.at(2).hosts, 13);
}

TEST(ExperimentConfigJson, RejectsUnknownEnums) {
  EXPECT_THROW(
      json::decode<testbed::ExperimentConfig>(json::parse(R"({"dispatch":"magic"})")),
      std::invalid_argument);
  EXPECT_THROW(json::decode<testbed::ExperimentConfig>(
                   json::parse(R"({"sites":{"0":{"rm":"pbs"}}})")),
               std::invalid_argument);
}

TEST(FcsRuntimeReconfiguration, ProjectionSwitchTakesEffectImmediately) {
  sim::Simulator simulator;
  net::ServiceBus bus(simulator);
  services::Installation site(simulator, bus, "site0");
  core::PolicyTree policy;
  policy.set_share("/a", 0.5);
  policy.set_share("/b", 0.5);
  site.set_policy(std::move(policy));
  site.uss().report("a", 300.0);
  site.uss().report("b", 100.0);
  simulator.run_until(100.0);

  const double percental_a = site.fcs().factor_for("a");
  EXPECT_NE(percental_a, 0.0);

  // Switch to dictionary ordering over the bus (the paper's run-time
  // configurability), without waiting for the next update period.
  const json::Value reply = bus.call(
      "site0.fcs", json::parse(R"({"op":"configure","projection":{"kind":"dictionary"}})"));
  EXPECT_TRUE(reply.get_bool("ok"));
  // Dictionary values for two users are rank-spaced: 2/3 and 1/3.
  EXPECT_NEAR(site.fcs().factor_for("b"), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(site.fcs().factor_for("a"), 1.0 / 3.0, 1e-9);

  // And algorithm reconfiguration (k = 1: purely relative distances).
  const json::Value reply2 = bus.call(
      "site0.fcs", json::parse(R"({"op":"configure","algorithm":{"k":1.0}})"));
  EXPECT_TRUE(reply2.get_bool("ok"));
  EXPECT_DOUBLE_EQ(site.fcs().config().algorithm.distance_weight_k, 1.0);

  const json::Value bad = bus.call(
      "site0.fcs", json::parse(R"({"op":"configure","projection":{"kind":"zzz"}})"));
  EXPECT_FALSE(bad.get_string("error").empty());
}

}  // namespace
}  // namespace aequus
