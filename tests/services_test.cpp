#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/decay.hpp"
#include "ingest/delta.hpp"
#include "obs/metrics.hpp"
#include "services/installation.hpp"
#include "services/telemetry.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace aequus::services {
namespace {

class ServicesTest : public ::testing::Test {
 protected:
  sim::Simulator simulator;
  net::ServiceBus bus{simulator};
};

core::PolicyTree flat_policy(const std::map<std::string, double>& shares) {
  core::PolicyTree policy;
  for (const auto& [user, share] : shares) policy.set_share("/" + user, share);
  return policy;
}

TEST_F(ServicesTest, UssAggregatesReportsIntoBins) {
  Uss uss(simulator, bus, "site0", UssConfig{60.0});
  simulator.schedule_at(10.0, [&] { uss.report("alice", 100.0); });
  simulator.schedule_at(20.0, [&] { uss.report("alice", 50.0); });
  simulator.schedule_at(70.0, [&] { uss.report("alice", 25.0); });
  simulator.run_all();
  const auto& bins = uss.histograms().at("alice");
  ASSERT_EQ(bins.size(), 2u);  // two 60 s intervals
  EXPECT_DOUBLE_EQ(bins[0].first, 0.0);
  EXPECT_DOUBLE_EQ(bins[0].second, 150.0);
  EXPECT_DOUBLE_EQ(bins[1].first, 60.0);
  EXPECT_DOUBLE_EQ(bins[1].second, 25.0);
  EXPECT_DOUBLE_EQ(uss.total_for("alice"), 175.0);
  EXPECT_DOUBLE_EQ(uss.total_for("nobody"), 0.0);
  EXPECT_EQ(uss.reports_received(), 3u);
}

TEST_F(ServicesTest, UssIgnoresNonPositiveUsage) {
  Uss uss(simulator, bus, "site0");
  uss.report("alice", 0.0);
  uss.report("alice", -5.0);
  EXPECT_EQ(uss.reports_received(), 0u);
}

TEST_F(ServicesTest, UssServesBusProtocol) {
  Uss uss(simulator, bus, "site0");
  const json::Value ok = bus.call(
      "site0.uss", json::parse(R"({"op":"report","user":"bob","usage":42})"));
  EXPECT_TRUE(ok.get_bool("ok"));
  const json::Value histograms =
      bus.call("site0.uss", json::parse(R"({"op":"histograms"})"));
  EXPECT_DOUBLE_EQ(histograms.at("users").at("bob").at(0).at(1).as_number(), 42.0);
  const json::Value bad = bus.call("site0.uss", json::parse(R"({"op":"nope"})"));
  EXPECT_FALSE(bad.get_string("error").empty());
}

TEST_F(ServicesTest, PdsServesAndMountsPolicies) {
  Pds local(simulator, bus, "site0");
  Pds remote(simulator, bus, "global");
  local.set_policy(flat_policy({{"local_user", 0.7}}));
  core::PolicyTree grid;
  grid.set_share("/projA", 1.0);
  grid.set_share("/projB", 1.0);
  remote.set_policy(grid);

  local.mount_remote("/grid", "global.pds", 0.3, 500.0);
  simulator.run_until(5.0);  // let the first fetch round-trip

  EXPECT_EQ(local.mounts_applied(), 1);
  EXPECT_TRUE(local.policy().contains("/grid/projA"));
  EXPECT_DOUBLE_EQ(*local.policy().normalized_share("/grid"), 0.3);

  // Changing the remote policy propagates at the next refresh.
  core::PolicyTree grid2;
  grid2.set_share("/projC", 1.0);
  remote.set_policy(grid2);
  simulator.run_until(600.0);
  EXPECT_TRUE(local.policy().contains("/grid/projC"));
  EXPECT_FALSE(local.policy().contains("/grid/projA"));
}

TEST_F(ServicesTest, UmsBuildsDecayedUsageTree) {
  Pds pds(simulator, bus, "site0");
  pds.set_policy(flat_policy({{"alice", 0.5}, {"bob", 0.5}}));
  Uss uss(simulator, bus, "site0");
  UmsConfig config;
  config.update_interval = 30.0;
  config.decay.kind = core::DecayKind::kNone;
  Ums ums(simulator, bus, "site0", config);

  simulator.schedule_at(5.0, [&] { uss.report("alice", 120.0); });
  simulator.run_until(40.0);
  EXPECT_GE(ums.polls_completed(), 1u);
  EXPECT_DOUBLE_EQ(ums.usage_tree().usage("/alice"), 120.0);
}

TEST_F(ServicesTest, UmsAppliesDecay) {
  Pds pds(simulator, bus, "site0");
  pds.set_policy(flat_policy({{"alice", 1.0}}));
  Uss uss(simulator, bus, "site0");
  UmsConfig config;
  config.update_interval = 10.0;
  config.decay = core::DecayConfig{core::DecayKind::kExponentialHalfLife, 100.0, 0.0};
  Ums ums(simulator, bus, "site0", config);

  simulator.schedule_at(0.5, [&] { uss.report("alice", 100.0); });
  simulator.run_until(210.0);
  // Usage was binned at t=0; ~200 s later its weight is ~2^-2 = 0.25.
  EXPECT_NEAR(ums.usage_tree().usage("/alice"), 25.0, 2.0);
}

TEST_F(ServicesTest, UmsMergesRemoteSites) {
  Pds pds0(simulator, bus, "site0");
  pds0.set_policy(flat_policy({{"alice", 1.0}}));
  Uss uss0(simulator, bus, "site0");
  Uss uss1(simulator, bus, "site1");
  UmsConfig config;
  config.decay.kind = core::DecayKind::kNone;
  Ums ums(simulator, bus, "site0", config);
  ums.set_peers({"site1.uss"});

  simulator.schedule_at(1.0, [&] {
    uss0.report("alice", 10.0);
    uss1.report("alice", 32.0);
  });
  simulator.run_until(65.0);
  EXPECT_DOUBLE_EQ(ums.usage_tree().usage("/alice"), 42.0);
}

TEST_F(ServicesTest, UmsLocalOnlyModeIgnoresPeers) {
  Pds pds(simulator, bus, "site0");
  pds.set_policy(flat_policy({{"alice", 1.0}}));
  Uss uss0(simulator, bus, "site0");
  Uss uss1(simulator, bus, "site1");
  UmsConfig config;
  config.decay.kind = core::DecayKind::kNone;
  config.read_remote = false;  // §IV-A-4 local-only site
  Ums ums(simulator, bus, "site0", config);
  ums.set_peers({"site1.uss"});

  simulator.schedule_at(1.0, [&] {
    uss0.report("alice", 10.0);
    uss1.report("alice", 32.0);
  });
  simulator.run_until(65.0);
  EXPECT_DOUBLE_EQ(ums.usage_tree().usage("/alice"), 10.0);
}

TEST_F(ServicesTest, UmsUnmappedUsersLandUnderRoot) {
  Pds pds(simulator, bus, "site0");
  pds.set_policy(flat_policy({{"known", 1.0}}));
  Uss uss(simulator, bus, "site0");
  UmsConfig config;
  config.decay.kind = core::DecayKind::kNone;
  Ums ums(simulator, bus, "site0", config);
  simulator.schedule_at(1.0, [&] { uss.report("stranger", 50.0); });
  simulator.run_until(65.0);
  EXPECT_DOUBLE_EQ(ums.usage_tree().usage("/stranger"), 50.0);
}

TEST_F(ServicesTest, FcsPrecalculatesFairshareTable) {
  Installation site(simulator, bus, "site0");
  site.set_policy(flat_policy({{"alice", 0.5}, {"bob", 0.5}}));
  site.uss().report("alice", 400.0);
  simulator.run_until(100.0);

  EXPECT_GE(site.fcs().calculations(), 1u);
  // alice over-used, bob idle: bob's factor above balance, alice below.
  EXPECT_GT(site.fcs().factor_for("bob"), 0.5);
  EXPECT_LT(site.fcs().factor_for("alice"), 0.5);
  EXPECT_DOUBLE_EQ(site.fcs().factor_for("nobody"), 0.5);
}

TEST_F(ServicesTest, FcsServesBusProtocol) {
  Installation site(simulator, bus, "site0");
  site.set_policy(flat_policy({{"alice", 1.0}, {"bob", 1.0}}));
  site.uss().report("alice", 100.0);
  simulator.run_until(100.0);

  const json::Value one =
      bus.call("site0.fcs", json::parse(R"({"op":"fairshare","user":"bob"})"));
  EXPECT_GT(one.get_number("value"), 0.5);
  EXPECT_FALSE(one.get_string("vector").empty());

  const json::Value table = bus.call("site0.fcs", json::parse(R"({"op":"table"})"));
  EXPECT_EQ(table.at("users").size(), 2u);

  const json::Value tree = bus.call("site0.fcs", json::parse(R"({"op":"tree"})"));
  EXPECT_TRUE(tree.find("tree").has_value());
}

TEST_F(ServicesTest, FcsTableGenerationShortCircuit) {
  Installation site(simulator, bus, "site0");
  site.set_policy(flat_policy({{"alice", 1.0}, {"bob", 1.0}}));
  site.uss().report("alice", 100.0);
  simulator.run_until(100.0);

  // The plain reply is byte-identical to the pre-engine protocol: no
  // generation stamp unless the caller opts in.
  const json::Value plain = bus.call("site0.fcs", json::parse(R"({"op":"table"})"));
  EXPECT_FALSE(plain.find("generation").has_value());

  // A stale generation gets the full table plus the current stamp.
  const json::Value full =
      bus.call("site0.fcs", json::parse(R"({"op":"table","if_generation":0})"));
  const double generation = full.get_number("generation");
  EXPECT_GT(generation, 0.0);
  EXPECT_FALSE(full.find("unchanged").has_value());
  EXPECT_EQ(full.at("users").size(), 2u);

  // Replaying the current generation short-circuits: no user table at all.
  json::Object repeat;
  repeat["op"] = std::string("table");
  repeat["if_generation"] = generation;
  const json::Value unchanged = bus.call("site0.fcs", json::Value(std::move(repeat)));
  EXPECT_TRUE(unchanged.get_bool("unchanged"));
  EXPECT_DOUBLE_EQ(unchanged.get_number("generation"), generation);
  EXPECT_FALSE(unchanged.find("users").has_value());
}

TEST_F(ServicesTest, FcsSnapshotOp) {
  Installation site(simulator, bus, "site0");
  site.set_policy(flat_policy({{"alice", 1.0}, {"bob", 1.0}}));

  // Before the first calculation the FCS serves an empty snapshot.
  const json::Value empty = bus.call("site0.fcs", json::parse(R"({"op":"snapshot"})"));
  EXPECT_DOUBLE_EQ(empty.get_number("generation"), 0.0);
  EXPECT_EQ(empty.at("users").size(), 0u);

  site.uss().report("alice", 100.0);
  simulator.run_until(100.0);

  const json::Value flat = bus.call("site0.fcs", json::parse(R"({"op":"snapshot"})"));
  EXPECT_GT(flat.get_number("generation"), 0.0);
  EXPECT_EQ(flat.at("users").size(), 2u);
  EXPECT_FALSE(flat.find("tree").has_value());  // tree only on request

  const json::Value with_tree =
      bus.call("site0.fcs", json::parse(R"({"op":"snapshot","tree":true})"));
  EXPECT_TRUE(with_tree.find("tree").has_value());
  EXPECT_DOUBLE_EQ(with_tree.get_number("generation"), flat.get_number("generation"));
}

TEST_F(ServicesTest, PdsPolicyVersionShortCircuit) {
  Pds pds(simulator, bus, "site0");
  pds.set_policy(flat_policy({{"alice", 1.0}}));

  // Plain replies carry no version stamp (wire-identical to before).
  const json::Value plain = bus.call("site0.pds", json::parse(R"({"op":"policy"})"));
  EXPECT_FALSE(plain.find("version").has_value());

  const json::Value full =
      bus.call("site0.pds", json::parse(R"({"op":"policy","if_version":0})"));
  const double version = full.get_number("version");
  EXPECT_GT(version, 0.0);
  EXPECT_TRUE(full.find("children").has_value());

  json::Object repeat;
  repeat["op"] = std::string("policy");
  repeat["if_version"] = version;
  const json::Value unchanged = bus.call("site0.pds", json::Value(std::move(repeat)));
  EXPECT_TRUE(unchanged.get_bool("unchanged"));
  EXPECT_FALSE(unchanged.find("children").has_value());

  // A policy edit bumps the version and the short-circuit stops firing.
  pds.set_policy(flat_policy({{"alice", 1.0}, {"bob", 1.0}}));
  json::Object again;
  again["op"] = std::string("policy");
  again["if_version"] = version;
  const json::Value refreshed = bus.call("site0.pds", json::Value(std::move(again)));
  EXPECT_GT(refreshed.get_number("version"), version);
  EXPECT_FALSE(refreshed.find("unchanged").has_value());
  EXPECT_TRUE(refreshed.find("children").has_value());
}

TEST_F(ServicesTest, IrsLookupTableAndStoreOp) {
  Irs irs(simulator, bus, "site0");
  irs.add_mapping("clusterA", "acct_1", "GridUserOne");
  EXPECT_EQ(irs.resolve("clusterA", "acct_1"), "GridUserOne");
  EXPECT_FALSE(irs.resolve("clusterA", "acct_2").has_value());
  EXPECT_FALSE(irs.resolve("clusterB", "acct_1").has_value());  // per-cluster

  const json::Value stored = bus.call(
      "site0.irs",
      json::parse(R"({"op":"store","cluster":"c","system_user":"s","grid_user":"G"})"));
  EXPECT_TRUE(stored.get_bool("ok"));
  const json::Value resolved = bus.call(
      "site0.irs", json::parse(R"({"op":"resolve","cluster":"c","system_user":"s"})"));
  EXPECT_EQ(resolved.get_string("grid_user"), "G");
}

TEST_F(ServicesTest, IrsCustomEndpointQueriedOnMiss) {
  Irs irs(simulator, bus, "site0");
  int endpoint_calls = 0;
  bus.bind("subhost.resolver", [&](const json::Value& query) -> json::Value {
    ++endpoint_calls;
    if (query.get_string("system_user") == "acct_x") {
      return json::Value(json::Object{{"grid_user", json::Value("X")}});
    }
    return json::Value(json::Object{{"unknown", json::Value(true)}});
  });
  irs.set_endpoint("subhost.resolver");

  EXPECT_EQ(irs.resolve("c", "acct_x"), "X");
  EXPECT_EQ(endpoint_calls, 1);
  // Second lookup is served from the cached table.
  EXPECT_EQ(irs.resolve("c", "acct_x"), "X");
  EXPECT_EQ(endpoint_calls, 1);
  // Unknown users stay unknown and are re-queried.
  EXPECT_FALSE(irs.resolve("c", "acct_y").has_value());
  EXPECT_FALSE(irs.resolve("c", "acct_y").has_value());
  EXPECT_EQ(endpoint_calls, 3);
}

TEST_F(ServicesTest, EndToEndUsageFlowAcrossTwoSites) {
  Installation a(simulator, bus, "siteA");
  Installation b(simulator, bus, "siteB");
  const auto policy = flat_policy({{"alice", 0.5}, {"bob", 0.5}});
  a.set_policy(policy);
  b.set_policy(policy);
  a.set_peer_sites({"siteA", "siteB"});
  b.set_peer_sites({"siteA", "siteB"});

  // alice burns cycles on site A only; site B must still see it.
  a.uss().report("alice", 500.0);
  simulator.run_until(120.0);
  EXPECT_LT(b.fcs().factor_for("alice"), 0.5);
  EXPECT_GT(b.fcs().factor_for("bob"), 0.5);
}

TEST_F(ServicesTest, HierarchicalPolicyWithRemoteMountEndToEnd) {
  // A site delegates 40% to a grid whose subdivision lives on a remote
  // PDS; usage reported for a user inside the mounted subtree must be
  // mapped to its full path and reflected in the FCS values.
  Pds grid_office(simulator, bus, "office");
  core::PolicyTree grid_policy;
  grid_policy.set_share("/projA/ana", 1.0);
  grid_policy.set_share("/projA/ben", 1.0);
  grid_policy.set_share("/projB/cho", 2.0);
  grid_office.set_policy(grid_policy);

  InstallationConfig no_decay;
  no_decay.ums.decay.kind = core::DecayKind::kNone;
  Installation site(simulator, bus, "siteA", no_decay);
  core::PolicyTree local;
  local.set_share("/staff", 0.6);
  site.set_policy(local);
  site.pds().mount_remote("/grid", "office.pds", 0.4, 600.0);
  simulator.run_until(5.0);
  ASSERT_TRUE(site.pds().policy().contains("/grid/projA/ana"));

  // ana burns heavily inside projA; ben is idle.
  site.uss().report("ana", 900.0);
  site.uss().report("cho", 100.0);
  simulator.run_until(100.0);

  // UMS mapped users into the mounted hierarchy.
  EXPECT_DOUBLE_EQ(site.ums().usage_tree().usage("/grid/projA/ana"), 900.0);
  EXPECT_DOUBLE_EQ(site.ums().usage_tree().usage("/grid"), 1000.0);

  // Within projA, ben (idle) outranks ana; staff (idle) outranks both.
  EXPECT_GT(site.fcs().factor_for("ben"), site.fcs().factor_for("ana"));
  EXPECT_GT(site.fcs().factor_for("staff"), site.fcs().factor_for("ana"));
  // Vectors reach full tree depth (3 levels), padded for /staff.
  const json::Value reply =
      bus.call("siteA.fcs", json::parse(R"({"op":"fairshare","user":"ana"})"));
  EXPECT_EQ(util::split(reply.get_string("vector"), '.').size(), 3u);
}

TEST_F(ServicesTest, NonContributingSiteIsInvisibleRemotely) {
  Installation a(simulator, bus, "siteA");
  Installation b(simulator, bus, "siteB");
  const auto policy = flat_policy({{"alice", 0.5}, {"bob", 0.5}});
  a.set_policy(policy);
  b.set_policy(policy);
  a.set_peer_sites({"siteA", "siteB"});
  b.set_peer_sites({"siteA", "siteB"});
  bus.set_site_contributes("siteA", false);

  a.uss().report("alice", 500.0);
  simulator.run_until(120.0);
  // Site B never learns about alice's usage: both users look equally idle.
  EXPECT_DOUBLE_EQ(b.fcs().factor_for("alice"), b.fcs().factor_for("bob"));
  // ...but site A itself still accounts for it (reads stay local).
  EXPECT_LT(a.fcs().factor_for("alice"), 0.5);
  EXPECT_LT(a.fcs().factor_for("alice"), a.fcs().factor_for("bob"));
}

const json::Value kHistogramsOp = json::parse(R"({"op":"histograms"})");
const json::Value kPolicyOp = json::parse(R"({"op":"policy"})");

/// The served histograms reply must be exactly a fresh serialization of
/// the current histograms.
void expect_reply_current(net::ServiceBus& bus, const Uss& uss) {
  const json::Value reply = bus.call(uss.address(), kHistogramsOp);
  EXPECT_TRUE(reply.is_frozen());
  EXPECT_EQ(reply.dump(), uss.histograms_json().dump());
  EXPECT_EQ(reply.wire_size(), reply.dump().size());
}

TEST_F(ServicesTest, UssHistogramsReplyFollowsEveryChange) {
  UssConfig config;
  config.bin_width = 60.0;
  config.retention = 600.0;
  Uss uss(simulator, bus, "site0", config);
  expect_reply_current(bus, uss);  // empty

  uss.report("alice", 10.0);
  const json::Value first = bus.call("site0.uss", kHistogramsOp);
  expect_reply_current(bus, uss);
  EXPECT_EQ(bus.call("site0.uss", kHistogramsOp), first);  // served again, unchanged

  simulator.run_until(200.0);
  uss.report("alice", 5.0);                // new bin at 180
  uss.report_at("alice", 2.5, 70.0);       // out of order: lands in bin 60
  uss.report_at("bob", 1.0, 130.0);
  expect_reply_current(bus, uss);
  EXPECT_EQ(uss.histograms().at("alice").size(), 3u);

  ingest::DeltaBatch batch;
  batch.source = "siteX";
  batch.seq = 1;
  batch.deltas = {{"carol", 150.0, 4.0}, {"alice", 190.0, 1.0}};
  ASSERT_TRUE(uss.apply_batch(batch));
  const json::Value after_batch = bus.call("site0.uss", kHistogramsOp);
  expect_reply_current(bus, uss);
  EXPECT_DOUBLE_EQ(after_batch.at("users").at("carol").at(0).at(1).as_number(), 4.0);

  // A duplicate batch is not admitted, so the reply stays the same.
  ASSERT_FALSE(uss.apply_batch(batch));
  EXPECT_EQ(bus.call("site0.uss", kHistogramsOp).dump(), after_batch.dump());
  expect_reply_current(bus, uss);

  // Past the retention horizon the next report prunes the old bins.
  simulator.run_until(800.0);
  uss.report("alice", 1.0);
  expect_reply_current(bus, uss);
  const json::Value pruned = bus.call("site0.uss", kHistogramsOp);
  ASSERT_EQ(pruned.at("users").at("alice").size(), 1u);
  EXPECT_DOUBLE_EQ(pruned.at("users").at("alice").at(0).at(0).as_number(), 780.0);
}

TEST_F(ServicesTest, PdsPolicyReplyFollowsSetPolicyAndMounts) {
  Pds local(simulator, bus, "site0");
  Pds remote(simulator, bus, "global");
  local.set_policy(flat_policy({{"alice", 1.0}}));
  remote.set_policy(flat_policy({{"projA", 1.0}}));

  const json::Value first = bus.call("site0.pds", kPolicyOp);
  EXPECT_TRUE(first.is_frozen());
  EXPECT_EQ(first.dump(), local.policy().to_json().dump());
  EXPECT_EQ(bus.call("site0.pds", kPolicyOp), first);

  local.set_policy(flat_policy({{"alice", 1.0}, {"bob", 2.0}}));
  const json::Value edited = bus.call("site0.pds", kPolicyOp);
  EXPECT_EQ(edited.dump(), local.policy().to_json().dump());
  EXPECT_NE(edited, first);

  local.mount_remote("/grid", "global.pds", 0.5, 100.0);
  simulator.run_until(5.0);
  ASSERT_EQ(local.mounts_applied(), 1);
  const json::Value mounted = bus.call("site0.pds", kPolicyOp);
  EXPECT_EQ(mounted.dump(), local.policy().to_json().dump());
  EXPECT_TRUE(local.policy().contains("/grid/projA"));

  // A changed remote policy lands at the next refresh.
  remote.set_policy(flat_policy({{"projB", 1.0}}));
  simulator.run_until(150.0);
  ASSERT_EQ(local.mounts_applied(), 2);
  const json::Value refreshed = bus.call("site0.pds", kPolicyOp);
  EXPECT_EQ(refreshed.dump(), local.policy().to_json().dump());
  EXPECT_NE(refreshed.dump(), mounted.dump());
}

TEST_F(ServicesTest, UmsMaterializesOnReadAtTheLastReplyTime) {
  // Binary-exact latencies, so the last reply time is exact too.
  bus.set_local_latency(0.25);
  bus.set_remote_latency(0.5);
  obs::Registry registry;
  Pds pds(simulator, bus, "site0");
  pds.set_policy(flat_policy({{"alice", 1.0}, {"bob", 1.0}}));
  Uss uss0(simulator, bus, "site0");
  Uss uss1(simulator, bus, "site1");
  UmsConfig config;
  config.update_interval = 30.0;
  config.decay = core::DecayConfig{core::DecayKind::kExponentialHalfLife, 100.0, 0.0};
  Ums ums(simulator, bus, "site0", config, {&registry, nullptr});
  ums.set_peers({"site0.uss", "site1.uss"});

  simulator.schedule_at(3.0, [&] { uss0.report("alice", 120.0); });
  simulator.schedule_at(50.0, [&] { uss1.report("bob", 40.0); });
  simulator.schedule_at(70.0, [&] { uss1.report("carol", 7.0); });
  simulator.run_until(95.0);  // polls at 30, 60, 90; the last reply lands at 91

  // Nothing was read, so nothing was materialized.
  EXPECT_EQ(ums.polls_completed(), 3u);
  EXPECT_EQ(registry.snapshot().counter("site0.ums.rebuilds"), 0u);

  const core::Decay decay(config.decay);
  core::UsageTree expected;
  for (const Uss* uss : {&uss0, &uss1}) {
    for (const auto& [user, bins] : uss->histograms()) {
      expected.add("/" + user, decay.decayed_total(bins, 91.0));
    }
  }
  EXPECT_EQ(ums.usage_tree().leaves(), expected.leaves());
  EXPECT_EQ(ums.usage_tree().total(), expected.total());
  EXPECT_EQ(registry.snapshot().counter("site0.ums.rebuilds"), 1u);

  // Clean reads, the usage op included, reuse the tree.
  EXPECT_EQ(bus.call("site0.ums", json::parse(R"({"op":"usage"})")).dump(),
            expected.to_json().dump());
  EXPECT_EQ(registry.snapshot().counter("site0.ums.rebuilds"), 1u);

  // The next poll's replies make it dirty again; the read at 200 decays
  // at the last reply time (181), not at the read time.
  simulator.run_until(200.0);
  core::UsageTree later;
  for (const Uss* uss : {&uss0, &uss1}) {
    for (const auto& [user, bins] : uss->histograms()) {
      later.add("/" + user, decay.decayed_total(bins, 181.0));
    }
  }
  EXPECT_EQ(bus.call("site0.ums", json::parse(R"({"op":"usage"})")).dump(),
            later.to_json().dump());
  EXPECT_EQ(ums.usage_tree().leaves(), later.leaves());
  EXPECT_EQ(registry.snapshot().counter("site0.ums.rebuilds"), 2u);
}

TEST_F(ServicesTest, PolicyChangeMidRunIsRemappedByUmsAndFcs) {
  Pds office(simulator, bus, "office");
  core::PolicyTree before;
  before.set_share("/projA/ana", 1.0);
  before.set_share("/projB/ben", 1.0);
  office.set_policy(before);

  InstallationConfig no_decay;
  no_decay.ums.decay.kind = core::DecayKind::kNone;
  Installation site(simulator, bus, "siteA", no_decay);
  core::PolicyTree local;
  local.set_share("/staff", 1.0);
  site.set_policy(local);
  site.pds().mount_remote("/grid", "office.pds", 1.0, 200.0);
  site.uss().report("ana", 300.0);
  simulator.run_until(100.0);
  EXPECT_DOUBLE_EQ(site.ums().usage_tree().usage("/grid/projA/ana"), 300.0);
  EXPECT_EQ(site.fcs().table().count("/grid/projA/ana"), 1u);

  // ana moves to projB on the remote PDS; the mount refresh at 200 and
  // the next poll cycles move her usage and factor to the new leaf.
  core::PolicyTree after;
  after.set_share("/projB/ana", 1.0);
  after.set_share("/projB/ben", 1.0);
  office.set_policy(after);
  simulator.run_until(300.0);
  ASSERT_TRUE(site.pds().policy().contains("/grid/projB/ana"));
  EXPECT_DOUBLE_EQ(site.ums().usage_tree().usage("/grid/projB/ana"), 300.0);
  EXPECT_DOUBLE_EQ(site.ums().usage_tree().usage("/grid/projA"), 0.0);
  EXPECT_EQ(site.fcs().table().count("/grid/projA/ana"), 0u);
  EXPECT_EQ(site.fcs().table().count("/grid/projB/ana"), 1u);
  EXPECT_LT(site.fcs().factor_for("ana"), site.fcs().factor_for("ben"));
}

TEST_F(ServicesTest, UmsKeepsASourceWhenAReplyIsMalformedPartway) {
  Pds pds(simulator, bus, "site0");
  pds.set_policy(flat_policy({{"alice", 1.0}, {"bob", 1.0}}));
  // A stand-in USS whose reply the test controls.
  json::Value reply = json::parse(R"({"users":{"alice":[[0,10]],"bob":[[0,5],[60,1]]}})");
  bus.bind("site0.uss", [&](const json::Value&) { return reply; });
  UmsConfig config;
  config.decay.kind = core::DecayKind::kNone;
  Ums ums(simulator, bus, "site0", config);
  simulator.run_until(35.0);
  const core::UsageTree good = ums.usage_tree();
  ASSERT_DOUBLE_EQ(good.usage("/bob"), 6.0);

  // alice decodes, then bob's second bin is a string: nothing commits.
  std::vector<std::string> warnings;
  util::Logger::instance().set_sink(
      [&](util::LogLevel, std::string_view component, std::string_view message) {
        warnings.push_back(std::string(component) + ": " + std::string(message));
      });
  reply = json::parse(R"({"users":{"alice":[[0,99]],"bob":[[0,5],[60,"x"]]}})");
  simulator.run_until(65.0);
  util::Logger::instance().set_sink(nullptr);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("bad histogram reply from site0.uss"), std::string::npos)
      << warnings[0];
  EXPECT_EQ(ums.usage_tree().leaves(), good.leaves());
  EXPECT_EQ(ums.usage_tree().total(), good.total());

  // The next well-formed reply commits as usual.
  reply = json::parse(R"({"users":{"alice":[[0,99]]}})");
  simulator.run_until(95.0);
  EXPECT_DOUBLE_EQ(ums.usage_tree().usage("/alice"), 99.0);
  EXPECT_DOUBLE_EQ(ums.usage_tree().usage("/bob"), 0.0);
}

TEST_F(ServicesTest, UmsSkipsAnUnchangedFrozenReplyAndPicksUpTheNextChange) {
  Pds pds(simulator, bus, "site0");
  pds.set_policy(flat_policy({{"alice", 1.0}, {"bob", 1.0}}));
  Uss uss(simulator, bus, "site0");
  UmsConfig config;
  config.decay.kind = core::DecayKind::kNone;
  Ums ums(simulator, bus, "site0", config);
  uss.report("alice", 10.0);
  simulator.run_until(35.0);
  EXPECT_DOUBLE_EQ(ums.usage_tree().usage("/alice"), 10.0);

  // No change at the USS: the next polls get the same frozen reply.
  json::Value served = bus.call("site0.uss", kHistogramsOp);
  const std::weak_ptr<const json::Frozen> first = served.frozen_identity();
  simulator.run_until(95.0);
  EXPECT_TRUE(bus.call("site0.uss", kHistogramsOp).same_frozen(first));
  EXPECT_DOUBLE_EQ(ums.usage_tree().usage("/alice"), 10.0);

  // The USS changes: its new reply is a new object, and the UMS takes it.
  uss.report("bob", 4.0);
  simulator.run_until(125.0);
  EXPECT_FALSE(bus.call("site0.uss", kHistogramsOp).same_frozen(first));
  EXPECT_DOUBLE_EQ(ums.usage_tree().usage("/alice"), 10.0);
  EXPECT_DOUBLE_EQ(ums.usage_tree().usage("/bob"), 4.0);

  // The UMS holds only a weak identity: nothing keeps the superseded
  // reply alive once the test lets go of its own copy.
  EXPECT_FALSE(first.expired());
  served = json::Value();
  EXPECT_TRUE(first.expired());
}

TEST_F(ServicesTest, UmsKeepsItsBinsWhenAMalformedReplyFollowsASkip) {
  Pds pds(simulator, bus, "site0");
  pds.set_policy(flat_policy({{"alice", 1.0}, {"bob", 1.0}}));
  const json::Value good =
      json::Value::frozen(json::parse(R"({"users":{"alice":[[0,10]],"bob":[[0,5]]}})"));
  json::Value reply = good;
  bus.bind("site0.uss", [&](const json::Value&) { return reply; });
  UmsConfig config;
  config.decay.kind = core::DecayKind::kNone;
  Ums ums(simulator, bus, "site0", config);
  simulator.run_until(65.0);  // two polls: the second reply is skipped
  ASSERT_DOUBLE_EQ(ums.usage_tree().usage("/alice"), 10.0);
  const core::UsageTree kept = ums.usage_tree();

  std::vector<std::string> warnings;
  util::Logger::instance().set_sink(
      [&](util::LogLevel, std::string_view component, std::string_view message) {
        warnings.push_back(std::string(component) + ": " + std::string(message));
      });
  reply = json::Value::frozen(json::parse(R"({"users":{"alice":[[0,"x"]]}})"));
  simulator.run_until(95.0);
  // The good reply served once more is still skipped: a failed decode
  // does not replace the committed reply's identity.
  reply = good;
  simulator.run_until(125.0);
  util::Logger::instance().set_sink(nullptr);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("bad histogram reply from site0.uss"), std::string::npos)
      << warnings[0];
  EXPECT_EQ(ums.usage_tree().leaves(), kept.leaves());
  EXPECT_EQ(ums.usage_tree().total(), kept.total());
}

TEST_F(ServicesTest, FcsTableReplyFollowsEveryRepublish) {
  Installation site(simulator, bus, "site0");
  site.set_policy(flat_policy({{"alice", 1.0}, {"bob", 1.0}}));
  const json::Value table_op = json::parse(R"({"op":"table"})");
  // Expected plain reply, built fresh from the published factors.
  const auto fresh = [&] {
    json::Object users;
    for (const auto& [path, factor] : site.fcs().table()) {
      users[core::split_path(path).back()] = factor;
    }
    return json::Value(json::Object{{"users", json::Value(std::move(users))}}).dump();
  };
  const json::Value before = bus.call("site0.fcs", table_op);
  EXPECT_TRUE(before.is_frozen());
  EXPECT_EQ(before.dump(), R"({"users":{}})");

  std::weak_ptr<const json::Frozen> last;
  std::string last_dump;
  for (int step = 1; step <= 4; ++step) {
    site.uss().report(step % 2 == 0 ? "alice" : "bob", 50.0 * step);
    simulator.run_until(100.0 * step);
    const json::Value reply = bus.call("site0.fcs", table_op);
    EXPECT_TRUE(reply.is_frozen());
    EXPECT_EQ(reply.dump(), fresh()) << "step " << step;
    EXPECT_EQ(reply.wire_size(), reply.dump().size());
    EXPECT_NE(reply.dump(), last_dump);
    EXPECT_FALSE(reply.same_frozen(last));
    // Served again without a republish in between: the same object.
    EXPECT_TRUE(bus.call("site0.fcs", table_op).same_frozen(reply.frozen_identity()));
    last = reply.frozen_identity();
    last_dump = reply.dump();
  }

  // A projection change republishes at the same generation; the reply
  // follows it too.
  core::ProjectionConfig projection = site.fcs().config().projection;
  projection.kind = core::ProjectionKind::kDictionaryOrdering;
  site.fcs().set_projection(projection);
  EXPECT_EQ(bus.call("site0.fcs", table_op).dump(), fresh());
}

TEST_F(ServicesTest, TelemetryCountsKnownAndUnknownOps) {
  obs::Registry registry;
  ServiceTelemetry telemetry({&registry, nullptr}, simulator, "siteA", "uss",
                             {"report", "usage", "snapshot"});
  telemetry.hit("report");
  telemetry.hit("report");
  telemetry.hit("usage");
  telemetry.hit("bogus");  // undeclared: lands in ops.other
  telemetry.hit("");       // so does the empty op

  const obs::Snapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter("siteA.uss.requests"), 5u);
  EXPECT_EQ(snapshot.counter("siteA.uss.ops.report"), 2u);
  EXPECT_EQ(snapshot.counter("siteA.uss.ops.usage"), 1u);
  EXPECT_EQ(snapshot.counter("siteA.uss.ops.snapshot"), 0u);  // declared, unused
  EXPECT_EQ(snapshot.counter("siteA.uss.ops.other"), 2u);
}

TEST_F(ServicesTest, DetachedTelemetryIsANoOp) {
  ServiceTelemetry detached;
  detached.hit("report");  // must not crash; nothing to count
  EXPECT_EQ(detached.counter("anything"), nullptr);
  EXPECT_FALSE(detached.tracing());
}

}  // namespace
}  // namespace aequus::services
