#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "ingest/apply.hpp"
#include "ingest/delta.hpp"
#include "net/service_bus.hpp"
#include "replay/recorder.hpp"

namespace aequus::net {
namespace {

json::Value echo_handler(const json::Value& request) {
  json::Object reply;
  reply["echo"] = request.get_string("msg");
  return json::Value(std::move(reply));
}

class ServiceBusTest : public ::testing::Test {
 protected:
  sim::Simulator simulator;
  ServiceBus bus{simulator};
};

TEST_F(ServiceBusTest, SiteOfExtractsPrefix) {
  EXPECT_EQ(ServiceBus::site_of("siteA.uss"), "siteA");
  EXPECT_EQ(ServiceBus::site_of("bare"), "bare");
}

TEST_F(ServiceBusTest, RequestDeliversAfterRoundTripLatency) {
  bus.set_remote_latency(1.0);
  bus.bind("b.svc", echo_handler);
  double replied_at = -1.0;
  std::string echoed;
  bus.request("a", "b.svc", json::Value(json::Object{{"msg", json::Value("hi")}}),
              [&](const json::Value& reply) {
                replied_at = simulator.now();
                echoed = reply.get_string("echo");
              });
  simulator.run_all();
  EXPECT_DOUBLE_EQ(replied_at, 2.0);  // forward + return hop
  EXPECT_EQ(echoed, "hi");
}

TEST_F(ServiceBusTest, LocalRequestsUseLocalLatency) {
  bus.set_local_latency(0.25);
  bus.bind("a.svc", echo_handler);
  double replied_at = -1.0;
  bus.request("a", "a.svc", json::Value(json::Object{}),
              [&](const json::Value&) { replied_at = simulator.now(); });
  simulator.run_all();
  EXPECT_DOUBLE_EQ(replied_at, 0.5);
}

TEST_F(ServiceBusTest, SendIsOneWay) {
  int received = 0;
  bus.bind("b.svc", [&](const json::Value&) {
    ++received;
    return json::Value();
  });
  bus.send("a", "b.svc", json::Value(json::Object{}));
  simulator.run_all();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(bus.stats().one_way, 1u);
}

TEST_F(ServiceBusTest, UnboundAddressCountsDrop) {
  bool replied = false;
  bus.request("a", "nowhere.svc", json::Value(json::Object{}),
              [&](const json::Value&) { replied = true; });
  simulator.run_all();
  EXPECT_FALSE(replied);
  EXPECT_EQ(bus.stats().dropped_unbound, 1u);
}

TEST_F(ServiceBusTest, NonContributingSiteDataSendsDropped) {
  bus.bind("b.svc", echo_handler);
  bus.set_site_contributes("a", false);
  bus.send("a", "b.svc", json::Value(json::Object{}));
  simulator.run_all();
  EXPECT_EQ(bus.stats().dropped_participation, 1u);
}

TEST_F(ServiceBusTest, NonContributingSiteCanStillReadRemoteData) {
  // §IV-A-4: the read-only site reads global usage data without
  // contributing — its outgoing queries and the inbound replies flow.
  bus.bind("b.svc", echo_handler);
  bus.set_site_contributes("a", false);
  bool delivered = false;
  bus.request("a", "b.svc", json::Value(json::Object{}),
              [&](const json::Value&) { delivered = true; });
  simulator.run_all();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(bus.stats().dropped_participation, 0u);
}

TEST_F(ServiceBusTest, NonContributingSiteReplyDropped) {
  // A non-contributing site receives requests but its data never leaves:
  // the reply leg is dropped (§IV-A-4 read-only site seen from outside).
  bus.bind("b.svc", echo_handler);
  bus.set_site_contributes("b", false);
  bool replied = false;
  bus.request("a", "b.svc", json::Value(json::Object{}),
              [&](const json::Value&) { replied = true; });
  simulator.run_all();
  EXPECT_FALSE(replied);
  EXPECT_EQ(bus.stats().dropped_participation, 1u);
}

TEST_F(ServiceBusTest, NonContributingSiteLocalTrafficFlows) {
  bus.bind("a.svc", echo_handler);
  bus.set_site_contributes("a", false);
  bool replied = false;
  bus.request("a", "a.svc", json::Value(json::Object{}),
              [&](const json::Value&) { replied = true; });
  simulator.run_all();
  EXPECT_TRUE(replied);
}

TEST_F(ServiceBusTest, NonReceivingSiteInboundDataDropped) {
  bus.bind("b.svc", echo_handler);
  bus.set_site_receives("b", false);
  // One-way data messages to b are dropped...
  int received = 0;
  bus.bind("b.sink", [&](const json::Value&) {
    ++received;
    return json::Value();
  });
  bus.send("a", "b.sink", json::Value(json::Object{}));
  simulator.run_all();
  EXPECT_EQ(received, 0);
  // ...and replies *to* a non-receiving requester are dropped too.
  bus.bind("c.svc", echo_handler);
  bool replied = false;
  bus.request("b", "c.svc", json::Value(json::Object{}),
              [&](const json::Value&) { replied = true; });
  simulator.run_all();
  EXPECT_FALSE(replied);
}

TEST_F(ServiceBusTest, ParticipationFlagsCanBeRestored) {
  bus.bind("b.svc", echo_handler);
  bus.set_site_contributes("a", false);
  bus.set_site_contributes("a", true);
  bool replied = false;
  bus.request("a", "b.svc", json::Value(json::Object{}),
              [&](const json::Value&) { replied = true; });
  simulator.run_all();
  EXPECT_TRUE(replied);
}

TEST_F(ServiceBusTest, CallIsSynchronous) {
  bus.bind("a.svc", echo_handler);
  const json::Value reply =
      bus.call("a.svc", json::Value(json::Object{{"msg", json::Value("now")}}));
  EXPECT_EQ(reply.get_string("echo"), "now");
  EXPECT_THROW((void)bus.call("missing.svc", json::Value()), std::runtime_error);
}

TEST_F(ServiceBusTest, UnbindRemovesEndpoint) {
  bus.bind("a.svc", echo_handler);
  EXPECT_TRUE(bus.bound("a.svc"));
  bus.unbind("a.svc");
  EXPECT_FALSE(bus.bound("a.svc"));
}

TEST_F(ServiceBusTest, PayloadBytesAccumulate) {
  bus.bind("b.svc", echo_handler);
  bus.request("a", "b.svc", json::Value(json::Object{{"msg", json::Value("12345")}}),
              nullptr);
  simulator.run_all();
  EXPECT_GT(bus.stats().payload_bytes, 10u);
}

TEST_F(ServiceBusTest, LossInjectionDropsSomeInterSiteTraffic) {
  bus.bind("b.svc", echo_handler);
  bus.set_loss_rate(0.5, 42);
  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    bus.request("a", "b.svc", json::Value(json::Object{}),
                [&](const json::Value&) { ++delivered; });
  }
  simulator.run_all();
  // Each request needs both legs to survive: expected ~25% delivery.
  EXPECT_GT(delivered, 20);
  EXPECT_LT(delivered, 90);
  EXPECT_GT(bus.stats().dropped_loss, 100u);
}

TEST_F(ServiceBusTest, LossInjectionSparesIntraSiteTraffic) {
  bus.bind("a.svc", echo_handler);
  bus.set_loss_rate(1.0);
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    bus.request("a", "a.svc", json::Value(json::Object{}),
                [&](const json::Value&) { ++delivered; });
  }
  simulator.run_all();
  EXPECT_EQ(delivered, 20);
  EXPECT_EQ(bus.stats().dropped_loss, 0u);
}

TEST_F(ServiceBusTest, LossRateZeroDisablesInjection) {
  bus.bind("b.svc", echo_handler);
  bus.set_loss_rate(0.9, 1);
  bus.set_loss_rate(0.0);
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    bus.request("a", "b.svc", json::Value(json::Object{}),
                [&](const json::Value&) { ++delivered; });
  }
  simulator.run_all();
  EXPECT_EQ(delivered, 20);
}

TEST_F(ServiceBusTest, LossInjectionIsDeterministicPerSeed) {
  const auto run_with_seed = [&](std::uint64_t seed) {
    sim::Simulator local_sim;
    ServiceBus local_bus(local_sim);
    local_bus.bind("b.svc", echo_handler);
    local_bus.set_loss_rate(0.5, seed);
    int delivered = 0;
    for (int i = 0; i < 100; ++i) {
      local_bus.request("a", "b.svc", json::Value(json::Object{}),
                        [&](const json::Value&) { ++delivered; });
    }
    local_sim.run_all();
    return delivered;
  };
  EXPECT_EQ(run_with_seed(7), run_with_seed(7));
}

TEST_F(ServiceBusTest, UnboundRequestDeliversErrorEnvelope) {
  bus.set_remote_latency(1.0);
  bool replied = false;
  double bounced_at = -1.0;
  json::Value envelope;
  bus.request(
      "a", "nowhere.svc", json::Value(json::Object{}),
      [&](const json::Value&) { replied = true; },
      [&](const json::Value& error) {
        bounced_at = simulator.now();
        envelope = error;
      });
  simulator.run_all();
  EXPECT_FALSE(replied);  // the reply path stays silent
  EXPECT_DOUBLE_EQ(bounced_at, 1.0);  // one hop, like an ICMP unreachable
  EXPECT_EQ(envelope.get_string("error"), "unbound");
  EXPECT_EQ(envelope.get_string("address"), "nowhere.svc");
  EXPECT_EQ(bus.stats().dropped_unbound, 1u);
  EXPECT_EQ(bus.stats().unbound_bounces, 1u);
}

TEST_F(ServiceBusTest, OutageWindowDropsAllTrafficWhileActive) {
  bus.set_remote_latency(0.1);
  bus.bind("b.svc", echo_handler);
  FaultPlan plan;
  plan.outages.push_back({"b", 10.0, 20.0});
  bus.set_fault_plan(plan);

  int delivered = 0;
  const auto probe = [&] {
    bus.request("a", "b.svc", json::Value(json::Object{}),
                [&](const json::Value&) { ++delivered; });
  };
  simulator.schedule_at(5.0, probe);    // before the window: flows
  simulator.schedule_at(15.0, probe);   // inside: dropped
  simulator.schedule_at(19.99, probe);  // still inside: dropped
  simulator.schedule_at(20.0, probe);   // window is [start, end): flows
  simulator.run_all();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(bus.stats().dropped_outage, 2u);
}

TEST_F(ServiceBusTest, OutageTakesDownIntraSiteTraffic) {
  // An outage means the site is down, not merely partitioned: even local
  // messages die, unlike loss injection which spares them.
  bus.bind("b.svc", echo_handler);
  FaultPlan plan;
  plan.outages.push_back({"b", 0.0, 100.0});
  bus.set_fault_plan(plan);
  bool replied = false;
  bus.request("b", "b.svc", json::Value(json::Object{}),
              [&](const json::Value&) { replied = true; });
  simulator.run_all();
  EXPECT_FALSE(replied);
  EXPECT_GE(bus.stats().dropped_outage, 1u);
}

TEST_F(ServiceBusTest, DuplicationDeliversSomeMessagesTwice) {
  int received = 0;
  bus.bind("b.sink", [&](const json::Value&) {
    ++received;
    return json::Value();
  });
  FaultPlan plan;
  plan.duplicate_rate = 0.5;
  plan.seed = 11;
  bus.set_fault_plan(plan);
  for (int i = 0; i < 100; ++i) bus.send("a", "b.sink", json::Value(json::Object{}));
  simulator.run_all();
  EXPECT_GT(received, 100);
  EXPECT_EQ(static_cast<std::uint64_t>(received),
            100u + bus.stats().duplicated);
}

TEST_F(ServiceBusTest, LatencyJitterDelaysDelivery) {
  bus.set_remote_latency(1.0);
  bus.bind("b.svc", echo_handler);
  FaultPlan plan;
  plan.latency_jitter = 0.5;
  plan.seed = 3;
  bus.set_fault_plan(plan);
  std::vector<double> reply_times;
  for (int i = 0; i < 50; ++i) {
    bus.request("a", "b.svc", json::Value(json::Object{}),
                [&](const json::Value&) { reply_times.push_back(simulator.now()); });
  }
  simulator.run_all();
  ASSERT_EQ(reply_times.size(), 50u);
  bool any_jittered = false;
  for (const double t : reply_times) {
    EXPECT_GE(t, 2.0);        // never earlier than the nominal round trip
    EXPECT_LE(t, 3.0 + 1e-9); // at most two legs of max jitter
    if (t > 2.0 + 1e-9) any_jittered = true;
  }
  EXPECT_TRUE(any_jittered);
}

TEST_F(ServiceBusTest, PerLinkLossOverridesDefaultRate) {
  bus.bind("b.svc", echo_handler);
  bus.bind("c.svc", echo_handler);
  FaultPlan plan;
  plan.loss_rate = 0.0;
  plan.link_loss[{"a", "b"}] = 1.0;  // a->b always lost; b->a (reply) unaffected
  plan.seed = 5;
  bus.set_fault_plan(plan);
  int to_b = 0;
  int to_c = 0;
  for (int i = 0; i < 20; ++i) {
    bus.request("a", "b.svc", json::Value(json::Object{}),
                [&](const json::Value&) { ++to_b; });
    bus.request("a", "c.svc", json::Value(json::Object{}),
                [&](const json::Value&) { ++to_c; });
  }
  simulator.run_all();
  EXPECT_EQ(to_b, 0);
  EXPECT_EQ(to_c, 20);
}

TEST_F(ServiceBusTest, FaultPlanIsDeterministicPerSeed) {
  const auto run_with_seed = [&](std::uint64_t seed) {
    sim::Simulator local_sim;
    ServiceBus local_bus(local_sim);
    local_bus.bind("b.svc", echo_handler);
    FaultPlan plan;
    plan.loss_rate = 0.3;
    plan.duplicate_rate = 0.2;
    plan.latency_jitter = 0.05;
    plan.seed = seed;
    local_bus.set_fault_plan(plan);
    int delivered = 0;
    double last_reply = 0.0;
    for (int i = 0; i < 100; ++i) {
      local_bus.request("a", "b.svc", json::Value(json::Object{}),
                        [&](const json::Value& reply) {
                          ++delivered;
                          last_reply = local_sim.now();
                          (void)reply;
                        });
    }
    local_sim.run_all();
    return std::make_tuple(delivered, last_reply, local_bus.stats().dropped_loss,
                           local_bus.stats().duplicated);
  };
  EXPECT_EQ(run_with_seed(9), run_with_seed(9));
  EXPECT_NE(run_with_seed(9), run_with_seed(10));
}

TEST_F(ServiceBusTest, UnbindBetweenSendAndDeliveryDropsMessage) {
  // Regression: the bus used to copy the handler into the delivery event,
  // so a message in flight when its endpoint unbound still invoked the
  // stale handler (a use-after-free once the service object died). The
  // handler is now resolved on arrival.
  bus.set_remote_latency(1.0);
  int received = 0;
  bus.bind("b.sink", [&](const json::Value&) {
    ++received;
    return json::Value();
  });
  bus.send("a", "b.sink", json::Value(json::Object{}));
  bus.unbind("b.sink");  // the message is already in flight
  simulator.run_all();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.stats().dropped_unbound, 1u);
}

TEST_F(ServiceBusTest, UnbindBetweenRequestAndDeliveryBouncesAfterRoundTrip) {
  bus.set_remote_latency(1.0);
  bus.bind("b.svc", echo_handler);
  bool replied = false;
  double bounced_at = -1.0;
  json::Value envelope;
  bus.request(
      "a", "b.svc", json::Value(json::Object{}),
      [&](const json::Value&) { replied = true; },
      [&](const json::Value& error) {
        bounced_at = simulator.now();
        envelope = error;
      });
  bus.unbind("b.svc");  // the query is already in flight
  simulator.run_all();
  EXPECT_FALSE(replied);
  // Unlike unbound-at-send (one hop), the far end discovers the missing
  // endpoint on arrival: the bounce costs a full round trip.
  EXPECT_DOUBLE_EQ(bounced_at, 2.0);
  EXPECT_EQ(envelope.get_string("error"), "unbound");
  EXPECT_EQ(bus.stats().dropped_unbound, 1u);
  EXPECT_EQ(bus.stats().unbound_bounces, 1u);
}

TEST_F(ServiceBusTest, RebindWhileRequestInFlightRoutesToNewHandler) {
  bus.set_remote_latency(1.0);
  bus.bind("b.svc", echo_handler);
  std::string echoed;
  bus.request("a", "b.svc", json::Value(json::Object{{"msg", json::Value("x")}}),
              [&](const json::Value& reply) { echoed = reply.get_string("echo"); });
  bus.bind("b.svc", [](const json::Value&) {
    return json::Value(json::Object{{"echo", json::Value("successor")}});
  });
  simulator.run_all();
  EXPECT_EQ(echoed, "successor");
}

TEST_F(ServiceBusTest, StatsAreAFacadeOverTheMetricsRegistry) {
  bus.bind("b.svc", echo_handler);
  bus.request("a", "b.svc", json::Value(json::Object{}), nullptr);
  bus.send("a", "b.svc", json::Value(json::Object{}));
  simulator.run_all();
  EXPECT_EQ(bus.stats().requests, bus.registry().counter("bus.requests").value());
  EXPECT_EQ(bus.stats().one_way, bus.registry().counter("bus.one_way").value());
  EXPECT_EQ(bus.registry().counter("rpc.b.svc.requests").value(), 1u);
  EXPECT_EQ(bus.registry().histogram("rpc.b.svc.latency_s").count(), 1u);
}

TEST_F(ServiceBusTest, SendBatchCountsEnvelopesAndRecords) {
  bus.bind("b.uss", [](const json::Value&) { return json::Value(); });
  bus.send_batch("a", "b.uss", json::Value(json::Object{}), 7);
  bus.send_batch("a", "b.uss", json::Value(json::Object{}), 3);
  simulator.run_all();
  EXPECT_EQ(bus.stats().batches, 2u);
  EXPECT_EQ(bus.stats().batch_records, 10u);
  // Batch envelopes are one-way sends: batches is a sub-count of one_way,
  // and both flow through the same registry facade.
  EXPECT_EQ(bus.stats().one_way, 2u);
  EXPECT_EQ(bus.registry().counter("bus.batches").value(), 2u);
  EXPECT_EQ(bus.registry().counter("bus.batch_records").value(), 10u);
}

TEST_F(ServiceBusTest, DuplicatedBatchEnvelopeIsAdmittedExactlyOnce) {
  // Regression (ingest PR): a duplication plan redelivers the same batch
  // envelope on an inter-site leg; the sequence-numbered admit path must
  // apply it exactly once. This failed before batches carried (source,
  // seq) — a duplicated leg double-counted every record in the envelope.
  FaultPlan plan;
  plan.duplicate_rate = 1.0;  // every delivered inter-site leg duplicates
  plan.seed = 99;
  bus.set_fault_plan(plan);

  ingest::BatchApplier applier;
  int deliveries = 0;
  double applied_usage = 0.0;
  bus.bind("b.uss", [&](const json::Value& request) {
    ++deliveries;
    const ingest::DeltaBatch batch = ingest::DeltaBatch::from_json(request);
    if (applier.admit(batch.source, batch.seq)) applied_usage += batch.total();
    return json::Value(json::Object{{"ok", json::Value(true)}});
  });

  ingest::DeltaBatch batch;
  batch.source = "a";
  batch.seq = 1;
  batch.deltas = {{"U1", 10.0, 4.0}, {"U2", 20.0, 8.0}};
  bus.send_batch("a", "b.uss", batch.to_json(), batch.deltas.size());
  simulator.run_all();

  EXPECT_EQ(deliveries, 2);  // the wire really delivered it twice
  EXPECT_DOUBLE_EQ(applied_usage, 12.0);  // but it was applied once
  EXPECT_EQ(applier.duplicates(), 1u);
  EXPECT_EQ(bus.stats().duplicated, 1u);
}

TEST_F(ServiceBusTest, ReorderedBatchSequencesAreNotTreatedAsDuplicates) {
  // Jitter can deliver seq 3 before seq 2; the admit path must accept the
  // late arrival (rejecting it would convert reordering into loss) while
  // still rejecting true redeliveries of either.
  ingest::BatchApplier applier;
  double applied_usage = 0.0;
  bus.bind("b.uss", [&](const json::Value& request) {
    const ingest::DeltaBatch batch = ingest::DeltaBatch::from_json(request);
    if (applier.admit(batch.source, batch.seq)) applied_usage += batch.total();
    return json::Value(json::Object{{"ok", json::Value(true)}});
  });
  const auto envelope = [](std::uint64_t seq, double amount) {
    ingest::DeltaBatch batch;
    batch.source = "a";
    batch.seq = seq;
    batch.deltas = {{"U1", 0.0, amount}};
    return batch;
  };
  // Out-of-order arrival: 1, 3, then the late 2, then replays of all.
  for (const std::uint64_t seq : {1u, 3u, 2u, 1u, 2u, 3u}) {
    const auto batch = envelope(seq, static_cast<double>(seq));
    bus.send_batch("a", "b.uss", batch.to_json(), 1);
  }
  simulator.run_all();
  EXPECT_DOUBLE_EQ(applied_usage, 6.0);  // 1 + 3 + 2, replays rejected
  EXPECT_EQ(applier.contiguous_floor("a"), 3u);
  EXPECT_EQ(applier.duplicates(), 3u);
}

TEST_F(ServiceBusTest, RebindReplacesHandlerForNewTraffic) {
  bus.bind("b.svc", echo_handler);
  bus.bind("b.svc", [](const json::Value&) {
    return json::Value(json::Object{{"echo", json::Value("replaced")}});
  });
  std::string echoed;
  bus.request("a", "b.svc", json::Value(json::Object{{"msg", json::Value("x")}}),
              [&](const json::Value& reply) { echoed = reply.get_string("echo"); });
  simulator.run_all();
  EXPECT_EQ(echoed, "replaced");
}

/// A payload big and nested enough that a shallow or moved-from copy
/// would show.
json::Value bulky_payload(const std::string& tag) {
  json::Array bins;
  for (int i = 0; i < 50; ++i) {
    bins.push_back(json::Value(json::Array{json::Value(i * 60.0), json::Value(i * 0.25)}));
  }
  return json::Value(json::Object{{"msg", json::Value(tag)},
                                  {"users", json::Value(json::Object{
                                                {"U1", json::Value(bins)},
                                                {"U2 \"quoted\"", json::Value(bins)}})}});
}

TEST_F(ServiceBusTest, DuplicatedLegsDeliverTheFullPayloadToEveryArrival) {
  FaultPlan plan;
  plan.duplicate_rate = 1.0;  // every delivered inter-site leg arrives twice
  plan.seed = 5;
  bus.set_fault_plan(plan);
  const json::Value query = bulky_payload("query");
  const json::Value data = bulky_payload("data");
  int handled = 0;
  bus.bind("b.svc", [&](const json::Value& request) {
    ++handled;
    EXPECT_EQ(request, query);
    return request;  // echo: the reply is as bulky as the query
  });
  int received = 0;
  bus.bind("b.sink", [&](const json::Value& payload) {
    ++received;
    EXPECT_EQ(payload, data);
    return json::Value();
  });
  int replies = 0;
  bus.request("a", "b.svc", query, [&](const json::Value& reply) {
    ++replies;
    EXPECT_EQ(reply, query);
  });
  bus.send("a", "b.sink", data);
  simulator.run_all();
  EXPECT_EQ(handled, 2);  // the query leg arrived twice
  EXPECT_EQ(replies, 4);  // and each handler run's reply leg twice
  EXPECT_EQ(received, 2);
  EXPECT_EQ(bus.stats().duplicated, 4u);  // query, two replies, one send
}

TEST_F(ServiceBusTest, PayloadBytesAreTheSameWithAndWithoutATap) {
  // The bus renders dump() only for an attached tap; payload_bytes counts
  // wire_size() either way, so attaching a recorder must not change it.
  const auto drive = [](bool tapped) {
    sim::Simulator sim;
    ServiceBus local_bus(sim);
    replay::FlightRecorder recorder;
    if (tapped) recorder.attach(local_bus);
    local_bus.bind("b.svc", [](const json::Value& request) { return request; });
    local_bus.bind("b.sink", [](const json::Value&) { return json::Value(); });
    std::uint64_t one_way_bytes = 0;
    for (int i = 0; i < 5; ++i) {
      const json::Value payload = bulky_payload("n" + std::to_string(i));
      local_bus.request("a", "b.svc", payload, nullptr);
      local_bus.send("a", "b.sink", payload);
      local_bus.send_batch("a", "b.sink", payload, 3);
      one_way_bytes += 2 * payload.dump().size();
    }
    sim.run_all();
    if (tapped) {
      std::uint64_t recorded = 0;
      for (const auto& envelope : recorder.envelopes()) recorded += envelope.payload.size();
      EXPECT_EQ(recorder.size(), 10u);
      EXPECT_EQ(recorded, one_way_bytes);  // the tap saw the exact dump() text
    }
    return local_bus.stats().payload_bytes;
  };
  const std::uint64_t plain = drive(false);
  EXPECT_GT(plain, 0u);
  EXPECT_EQ(drive(true), plain);
  // Five requests, five echoed replies, ten one-way envelopes.
  EXPECT_EQ(plain, 20u * bulky_payload("n0").dump().size());
}

TEST_F(ServiceBusTest, DuplicatedQueryAndReplyLegsRunEveryContinuation) {
  // duplicate_rate = 1 on both legs: the query arrives twice, each
  // handler run answers, and each answer arrives twice. The two reply
  // legs of one run share that run's reply; all four continuations fire.
  FaultPlan plan;
  plan.duplicate_rate = 1.0;
  plan.latency_jitter = 0.5;
  plan.seed = 11;
  bus.set_fault_plan(plan);
  int runs = 0;
  bus.bind("b.svc", [&](const json::Value& request) {
    ++runs;
    return json::Value(json::Object{{"run", json::Value(runs)},
                                    {"msg", json::Value(request.get_string("msg"))}});
  });
  std::vector<std::pair<double, int>> replies;
  bus.request("a", "b.svc", json::Value(json::Object{{"msg", json::Value("q")}}),
              [&](const json::Value& reply) {
                EXPECT_EQ(reply.get_string("msg"), "q");
                replies.emplace_back(simulator.now(),
                                     static_cast<int>(reply.get_number("run")));
              });
  EXPECT_EQ(bus.in_flight(), 1u);  // both query arrivals share one slot
  simulator.run_all();
  EXPECT_EQ(runs, 2);
  ASSERT_EQ(replies.size(), 4u);
  int from_first = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (replies[i].second == 1) ++from_first;
    if (i > 0) {
      EXPECT_LE(replies[i - 1].first, replies[i].first);
    }
  }
  EXPECT_EQ(from_first, 2);
  EXPECT_EQ(bus.stats().duplicated, 3u);  // one query leg, two reply legs
  EXPECT_EQ(bus.in_flight(), 0u);
}

TEST_F(ServiceBusTest, UnbindThenRebindWhileQueryInFlightRoutesToTheNewHandler) {
  bus.set_remote_latency(1.0);
  bus.bind("b.svc", echo_handler);
  std::string echoed;
  int errors = 0;
  bus.request(
      "a", "b.svc", json::Value(json::Object{{"msg", json::Value("x")}}),
      [&](const json::Value& reply) { echoed = reply.get_string("echo"); },
      [&](const json::Value&) { ++errors; });
  bus.unbind("b.svc");
  EXPECT_FALSE(bus.bound("b.svc"));
  bus.bind("b.svc", [](const json::Value&) {
    return json::Value(json::Object{{"echo", json::Value("rebound")}});
  });
  EXPECT_TRUE(bus.bound("b.svc"));
  simulator.run_all();
  EXPECT_EQ(echoed, "rebound");
  EXPECT_EQ(errors, 0);
  EXPECT_EQ(bus.stats().dropped_unbound, 0u);
  EXPECT_EQ(bus.in_flight(), 0u);
}

TEST_F(ServiceBusTest, ReentrantRequestsWhileTheSlotPoolsGrow) {
  // A handler and a reply callback each issue a burst of requests while
  // their own request's slots are held; the pools grow under them, and
  // every continuation still sees its own payload and reply.
  bus.bind("c.echo", echo_handler);
  std::vector<std::string> inner;
  bus.bind("b.fanout", [&](const json::Value& request) {
    for (int i = 0; i < 40; ++i) {
      const std::string tag = "h" + std::to_string(i);
      bus.request("b", "c.echo", json::Value(json::Object{{"msg", json::Value(tag)}}),
                  [&inner, tag](const json::Value& reply) {
                    EXPECT_EQ(reply.get_string("echo"), tag);
                    inner.push_back(tag);
                  });
    }
    return json::Value(json::Object{{"echo", json::Value(request.get_string("msg"))}});
  });
  std::vector<std::string> outer;
  for (int k = 0; k < 3; ++k) {
    const std::string tag = "r" + std::to_string(k);
    bus.request("a", "b.fanout", json::Value(json::Object{{"msg", json::Value(tag)}}),
                [&, tag](const json::Value& reply) {
                  EXPECT_EQ(reply.get_string("echo"), tag);
                  outer.push_back(tag);
                  for (int i = 0; i < 40; ++i) {
                    const std::string again = tag + "." + std::to_string(i);
                    bus.request("a", "c.echo",
                                json::Value(json::Object{{"msg", json::Value(again)}}),
                                [&inner, again](const json::Value& echo) {
                                  EXPECT_EQ(echo.get_string("echo"), again);
                                  inner.push_back(again);
                                });
                  }
                });
  }
  simulator.run_all();
  EXPECT_EQ(outer, (std::vector<std::string>{"r0", "r1", "r2"}));
  EXPECT_EQ(inner.size(), 3u * 40u + 3u * 40u);
  EXPECT_EQ(bus.stats().requests, 3u + 3u * 40u + 3u * 40u);
  EXPECT_EQ(bus.in_flight(), 0u);
}

TEST_F(ServiceBusTest, DroppedLegsReleaseTheirSlots) {
  bus.bind("b.svc", echo_handler);
  bus.bind("b.sink", [](const json::Value&) { return json::Value(); });
  int replies = 0;
  const auto on_reply = [&](const json::Value&) { ++replies; };

  // Participation: the reply leg is dropped at the responder.
  bus.set_site_contributes("b", false);
  bus.request("a", "b.svc", json::Value(json::Object{}), on_reply);
  EXPECT_EQ(bus.in_flight(), 1u);
  simulator.run_all();
  EXPECT_EQ(bus.stats().dropped_participation, 1u);
  EXPECT_EQ(bus.in_flight(), 0u);
  bus.send("b", "a.sink", json::Value(json::Object{}));  // dropped at send
  EXPECT_EQ(bus.in_flight(), 0u);
  bus.set_site_contributes("b", true);

  // Loss: the query leg is dropped at send time.
  bus.set_loss_rate(1.0);
  bus.request("a", "b.svc", json::Value(json::Object{}), on_reply);
  bus.send("a", "b.sink", json::Value(json::Object{}));
  EXPECT_EQ(bus.in_flight(), 0u);
  EXPECT_EQ(bus.stats().dropped_loss, 2u);

  // Unbound at send without an error callback: nothing stays behind.
  bus.set_loss_rate(0.0);
  bus.request("a", "b.nobody", json::Value(json::Object{}), on_reply);
  EXPECT_EQ(bus.in_flight(), 0u);
  simulator.run_all();
  EXPECT_EQ(replies, 0);

  // The freed slots are reused: a working round trip after the drops.
  bus.request("a", "b.svc", json::Value(json::Object{{"msg", json::Value("ok")}}), on_reply);
  simulator.run_all();
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(bus.in_flight(), 0u);
}

}  // namespace
}  // namespace aequus::net
