#include "net/service_bus.hpp"

#include <algorithm>

#include <stdexcept>

#include "util/logging.hpp"

namespace aequus::net {

const char* to_string(SendVerdict verdict) noexcept {
  switch (verdict) {
    case SendVerdict::kDelivered: return "delivered";
    case SendVerdict::kDroppedParticipation: return "dropped_participation";
    case SendVerdict::kDroppedUnbound: return "dropped_unbound";
    case SendVerdict::kDroppedOutage: return "dropped_outage";
    case SendVerdict::kDroppedLoss: return "dropped_loss";
  }
  return "unknown";
}

bool send_verdict_from_string(std::string_view name, SendVerdict& out) noexcept {
  for (const SendVerdict verdict :
       {SendVerdict::kDelivered, SendVerdict::kDroppedParticipation,
        SendVerdict::kDroppedUnbound, SendVerdict::kDroppedOutage, SendVerdict::kDroppedLoss}) {
    if (name == to_string(verdict)) {
      out = verdict;
      return true;
    }
  }
  return false;
}

bool FaultPlan::active() const noexcept {
  return loss_rate > 0.0 || duplicate_rate > 0.0 || latency_jitter > 0.0 ||
         !link_loss.empty() || !outages.empty();
}

bool FaultPlan::site_down(const std::string& site, double now) const noexcept {
  for (const auto& window : outages) {
    if (window.site == site && now >= window.start && now < window.end) return true;
  }
  return false;
}

double FaultPlan::last_outage_end() const noexcept {
  double latest = 0.0;
  for (const auto& window : outages) latest = std::max(latest, window.end);
  return latest;
}

double FaultPlan::loss_for(const std::string& from_site,
                           const std::string& to_site) const noexcept {
  const auto it = link_loss.find({from_site, to_site});
  return it != link_loss.end() ? it->second : loss_rate;
}

ServiceBus::ServiceBus(sim::Simulator& simulator) : simulator_(simulator) {
  register_metrics();
}

void ServiceBus::register_metrics() {
  metrics_.requests = &registry_->counter("bus.requests");
  metrics_.one_way = &registry_->counter("bus.one_way");
  metrics_.dropped_participation = &registry_->counter("bus.dropped_participation");
  metrics_.dropped_unbound = &registry_->counter("bus.dropped_unbound");
  metrics_.dropped_loss = &registry_->counter("bus.dropped_loss");
  metrics_.dropped_outage = &registry_->counter("bus.dropped_outage");
  metrics_.duplicated = &registry_->counter("bus.duplicated");
  metrics_.unbound_bounces = &registry_->counter("bus.unbound_bounces");
  metrics_.payload_bytes = &registry_->counter("bus.payload_bytes");
  metrics_.batches = &registry_->counter("bus.batches");
  metrics_.batch_records = &registry_->counter("bus.batch_records");
}

void ServiceBus::register_endpoint_metrics(Endpoint& endpoint) {
  endpoint.requests = &registry_->counter("rpc." + endpoint.address + ".requests");
  endpoint.latency = &registry_->histogram("rpc." + endpoint.address + ".latency_s");
}

void ServiceBus::attach_observability(obs::Observability obs) {
  if (obs.registry != nullptr && obs.registry != registry_) {
    registry_ = obs.registry;
    register_metrics();
    for (Endpoint& endpoint : endpoints_) {
      if (endpoint.requests != nullptr) register_endpoint_metrics(endpoint);
    }
  }
  tracer_ = obs.tracer;
}

std::uint32_t ServiceBus::endpoint_id(std::string_view address) {
  const std::uint32_t id = endpoint_ids_.intern(address);
  if (id == endpoints_.size()) {
    Endpoint& endpoint = endpoints_.emplace_back();
    endpoint.address = std::string(address);
    endpoint.service = service_of(address);
    endpoint.site = site_id(address.substr(0, address.find('.')));
  }
  return id;
}

std::uint32_t ServiceBus::site_id(std::string_view site) {
  const std::uint32_t id = site_ids_.intern(site);
  if (id == sites_.size()) sites_.emplace_back().name = std::string(site);
  return id;
}

const ServiceBus::Endpoint* ServiceBus::find_endpoint(const std::string& address) const {
  const std::uint32_t id = endpoint_ids_.find(address);
  return id == core::IdTable::kNoId ? nullptr : &endpoints_[id];
}

const ServiceBus::Site* ServiceBus::find_site(const std::string& site) const {
  const std::uint32_t id = site_ids_.find(site);
  return id == core::IdTable::kNoId ? nullptr : &sites_[id];
}

void ServiceBus::trace(obs::EventKind kind, const std::string& site,
                       const std::string& component, std::string detail, double value,
                       std::uint64_t id) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  tracer_->record(simulator_.now(), kind, site, component, std::move(detail), value, id);
}

BusStats ServiceBus::stats() const noexcept {
  BusStats stats;
  stats.requests = metrics_.requests->value();
  stats.one_way = metrics_.one_way->value();
  stats.dropped_participation = metrics_.dropped_participation->value();
  stats.dropped_unbound = metrics_.dropped_unbound->value();
  stats.dropped_loss = metrics_.dropped_loss->value();
  stats.dropped_outage = metrics_.dropped_outage->value();
  stats.duplicated = metrics_.duplicated->value();
  stats.unbound_bounces = metrics_.unbound_bounces->value();
  stats.payload_bytes = metrics_.payload_bytes->value();
  stats.batches = metrics_.batches->value();
  stats.batch_records = metrics_.batch_records->value();
  return stats;
}

void ServiceBus::bind(const std::string& address, Handler handler) {
  Endpoint& endpoint = endpoints_[endpoint_id(address)];
  endpoint.handler = std::move(handler);
  // Register rpc.<address>.* up front.
  if (endpoint.requests == nullptr) register_endpoint_metrics(endpoint);
}

void ServiceBus::unbind(const std::string& address) {
  const std::uint32_t id = endpoint_ids_.find(address);
  if (id != core::IdTable::kNoId) endpoints_[id].handler = nullptr;
}

bool ServiceBus::bound(const std::string& address) const {
  const Endpoint* endpoint = find_endpoint(address);
  return endpoint != nullptr && endpoint->handler != nullptr;
}

std::string ServiceBus::site_of(std::string_view address) {
  const std::size_t dot = address.find('.');
  if (dot == std::string_view::npos) return std::string(address);
  return std::string(address.substr(0, dot));
}

std::string ServiceBus::service_of(std::string_view address) {
  const std::size_t dot = address.find('.');
  if (dot == std::string_view::npos) return std::string(address);
  return std::string(address.substr(dot + 1));
}

void ServiceBus::set_site_contributes(const std::string& site, bool contributes) {
  sites_[site_id(site)].contributes = contributes;
}

void ServiceBus::set_site_receives(const std::string& site, bool receives) {
  sites_[site_id(site)].receives = receives;
}

bool ServiceBus::site_contributes(const std::string& site) const {
  const Site* record = find_site(site);
  return record == nullptr || record->contributes;
}

bool ServiceBus::site_receives(const std::string& site) const {
  const Site* record = find_site(site);
  return record == nullptr || record->receives;
}

bool ServiceBus::allowed(std::uint32_t from, std::uint32_t to) const noexcept {
  if (from == to) return true;  // intra-site traffic always flows
  return sites_[from].contributes && sites_[to].receives;
}

void ServiceBus::set_fault_plan(FaultPlan plan) {
  plan.loss_rate = std::clamp(plan.loss_rate, 0.0, 1.0);
  plan.duplicate_rate = std::clamp(plan.duplicate_rate, 0.0, 1.0);
  plan.latency_jitter = std::max(plan.latency_jitter, 0.0);
  for (auto& [link, rate] : plan.link_loss) {
    (void)link;
    rate = std::clamp(rate, 0.0, 1.0);
  }
  plan_ = std::move(plan);
  fault_rng_ = util::Rng(plan_.seed);
}

void ServiceBus::set_loss_rate(double rate, std::uint64_t seed) {
  FaultPlan plan;
  plan.loss_rate = rate;
  plan.seed = seed;
  set_fault_plan(std::move(plan));
}

double ServiceBus::leg_latency(std::uint32_t from, std::uint32_t to) {
  double hop = latency(from, to);
  if (from != to && plan_.latency_jitter > 0.0) {
    hop += fault_rng_.uniform(0.0, plan_.latency_jitter);
  }
  return hop;
}

void ServiceBus::trace_drop(const obs::SpanContext& leg, const std::string& site,
                            std::string reason) {
  obs::SpanScope scope(tracer_, leg);
  trace(obs::EventKind::kMessageDrop, site, "bus", std::move(reason));
  if (leg.valid()) tracer_->end_span(simulator_.now(), leg, site, "bus", "dropped");
}

ServiceBus::Delivery ServiceBus::route(std::uint32_t from, std::uint32_t to,
                                       const Endpoint& endpoint, bool reply,
                                       const obs::SpanContext& leg) {
  Delivery outcome;
  const auto label = [&](const char* cause) {
    std::string text = cause + endpoint.address;
    if (reply) text += ":reply";
    return text;
  };
  if (!plan_.outages.empty()) {
    const double now = simulator_.now();
    if (plan_.site_down(site_name(from), now) || plan_.site_down(site_name(to), now)) {
      metrics_.dropped_outage->inc();
      if (tracing()) trace_drop(leg, site_name(from), label("outage:"));
      outcome.verdict = SendVerdict::kDroppedOutage;
      return outcome;
    }
  }
  // Loss, duplication and jitter apply to inter-site legs only, and draw
  // from the fault stream in this order.
  bool twice = false;
  if (from != to) {
    const double loss = plan_.link_loss.empty()
                            ? plan_.loss_rate
                            : plan_.loss_for(site_name(from), site_name(to));
    if (loss > 0.0 && fault_rng_.bernoulli(loss)) {
      metrics_.dropped_loss->inc();
      if (tracing()) trace_drop(leg, site_name(from), label("loss:"));
      outcome.verdict = SendVerdict::kDroppedLoss;
      return outcome;
    }
    twice = plan_.duplicate_rate > 0.0 && fault_rng_.bernoulli(plan_.duplicate_rate);
  }
  outcome.latency = leg_latency(from, to);
  if (twice) {
    metrics_.duplicated->inc();
    outcome.duplicated = true;
    outcome.dup_latency = leg_latency(from, to);
  }
  return outcome;
}

template <typename Land>
void ServiceBus::post_arrivals(const Delivery& outcome, Land land) {
  if (!outcome.delivered()) return;
  simulator_.post_after(outcome.latency, land);
  if (outcome.duplicated) simulator_.post_after(outcome.dup_latency, land);
}

std::uint32_t ServiceBus::acquire_rpc() {
  if (free_rpcs_.empty()) {
    rpcs_.emplace_back();
    return static_cast<std::uint32_t>(rpcs_.size() - 1);
  }
  const std::uint32_t rpc = free_rpcs_.back();
  free_rpcs_.pop_back();
  return rpc;
}

std::uint32_t ServiceBus::acquire_parcel() {
  if (free_parcels_.empty()) {
    parcels_.emplace_back();
    return static_cast<std::uint32_t>(parcels_.size() - 1);
  }
  const std::uint32_t parcel = free_parcels_.back();
  free_parcels_.pop_back();
  return parcel;
}

void ServiceBus::release_rpc_if_idle(std::uint32_t rpc) {
  Rpc& slot = rpcs_[rpc];
  if (slot.refs != 0) return;
  slot.payload = json::Value();
  slot.on_reply = nullptr;
  slot.on_error = nullptr;
  free_rpcs_.push_back(rpc);
}

void ServiceBus::release_parcel_if_idle(std::uint32_t parcel) {
  Parcel& slot = parcels_[parcel];
  if (slot.refs != 0) return;
  slot.body = json::Value();
  const std::uint32_t rpc = slot.rpc;
  slot.rpc = kNoRpc;
  free_parcels_.push_back(parcel);
  if (rpc != kNoRpc) unref_rpc(rpc);
}

void ServiceBus::unref_rpc(std::uint32_t rpc) {
  --rpcs_[rpc].refs;
  release_rpc_if_idle(rpc);
}

void ServiceBus::unref_parcel(std::uint32_t parcel) {
  --parcels_[parcel].refs;
  release_parcel_if_idle(parcel);
}

void ServiceBus::bounce_unbound(std::uint32_t rpc) {
  Rpc& slot = rpcs_[rpc];
  const Endpoint& endpoint = endpoints_[slot.endpoint];
  metrics_.dropped_unbound->inc();
  AEQ_DEBUG("bus") << "request to unbound address " << endpoint.address;
  if (tracing()) {
    obs::SpanScope scope(tracer_, slot.span);
    trace(obs::EventKind::kMessageDrop, site_name(endpoint.site), "bus",
          "unbound:" + endpoint.address);
  }
  // Structural failures bounce reliably (the transport knows nobody
  // listens); injected loss and outages stay silent so callers can only
  // detect them by timeout.
  if (!slot.on_error) return;
  metrics_.unbound_bounces->inc();
  ++slot.refs;
  simulator_.post_after(latency(endpoint.site, slot.from), [this, rpc] { land_bounce(rpc); });
}

void ServiceBus::land_bounce(std::uint32_t rpc) {
  Rpc& slot = rpcs_[rpc];
  if (tracing() && slot.span.valid()) {
    tracer_->end_span(simulator_.now(), slot.span, site_name(slot.from), "bus", "unbound");
  }
  json::Object envelope;
  envelope["error"] = "unbound";
  envelope["address"] = endpoints_[slot.endpoint].address;
  {
    obs::SpanScope scope(tracer_, slot.caller);
    slot.on_error(json::Value(std::move(envelope)));
  }
  unref_rpc(rpc);
}

void ServiceBus::request(const std::string& from_site, const std::string& address,
                         json::Value payload, ReplyCallback on_reply, ErrorCallback on_error) {
  metrics_.requests->inc();
  metrics_.payload_bytes->inc(payload.wire_size());
  const std::uint32_t endpoint_index = endpoint_id(address);
  Endpoint& endpoint = endpoints_[endpoint_index];
  if (endpoint.requests == nullptr) register_endpoint_metrics(endpoint);
  endpoint.requests->inc();
  const std::uint32_t rpc = acquire_rpc();
  Rpc& slot = rpcs_[rpc];
  slot.endpoint = endpoint_index;
  slot.from = site_id(from_site);
  slot.sent_at = simulator_.now();
  slot.payload = std::move(payload);
  slot.on_reply = std::move(on_reply);
  slot.on_error = std::move(on_error);
  // Causal context: the rpc span is a child of whatever span was ambient
  // at the call site; the caller's context is restored around the
  // continuations so work triggered by the reply stays in the caller's
  // tree. The span context travels in the envelope only — never in the
  // JSON payload — so payload_bytes is identical with tracing on or off.
  slot.caller = tracing() ? tracer_->current() : obs::SpanContext{};
  slot.span = tracing() ? tracer_->begin_child(simulator_.now(), slot.caller, from_site, "bus",
                                               "rpc:" + address)
                        : obs::SpanContext{};
  slot.leg = obs::SpanContext{};
  // The forward leg is a query (metadata), not data: it always flows, so a
  // non-contributing site can still *read* global state (§IV-A-4). The
  // reply leg carries the responder's data and is gated on arrival.
  if (!endpoint.handler) {
    // Unbound at send time: the transport rejects immediately, so the
    // bounce costs one hop instead of a round trip.
    bounce_unbound(rpc);
    release_rpc_if_idle(rpc);
    return;
  }
  if (tracing()) {
    slot.leg = tracer_->begin_child(slot.sent_at, slot.span, from_site, "bus", "query:" + address);
  }
  // The handler is resolved on arrival: an unbind while the query is in
  // flight bounces, a re-bind routes to the new handler.
  const Delivery outcome = route(slot.from, endpoint.site, endpoint, false, slot.leg);
  slot.refs += outcome.arrivals();
  post_arrivals(outcome, [this, rpc] { land_query(rpc); });
  release_rpc_if_idle(rpc);
}

void ServiceBus::land_query(std::uint32_t rpc) {
  // Deque slots stay put while the handler issues requests of its own,
  // and this slot stays held (refs) until the end of this call.
  Rpc& slot = rpcs_[rpc];
  const Endpoint& endpoint = endpoints_[slot.endpoint];
  const std::string& to_site = site_name(endpoint.site);
  // Close the leg span on arrival: leg duration is pure wire time, so the
  // analyzer can split every chain into queueing (bus legs) vs handling.
  // A duplicated leg ends its span twice; the analyzer counts the second
  // end as `duplicate_ends` and keeps the first.
  if (tracing() && slot.leg.valid()) tracer_->end_span(simulator_.now(), slot.leg, to_site, "bus");
  if (!endpoint.handler) {
    bounce_unbound(rpc);
    unref_rpc(rpc);
    return;
  }
  json::Value reply;
  {
    const obs::SpanContext handle =
        tracing() ? tracer_->begin_child(simulator_.now(), slot.span, to_site, endpoint.service,
                                         "handle:" + endpoint.address)
                  : obs::SpanContext{};
    obs::SpanScope scope(tracer_, handle);
    if (tracing()) trace(obs::EventKind::kMessageDeliver, to_site, "bus", endpoint.address);
    reply = endpoint.handler(slot.payload);
    if (tracing() && handle.valid()) {
      tracer_->end_span(simulator_.now(), handle, to_site, endpoint.service);
    }
  }
  // The reply carries the responder's data: it is subject to the
  // responder's contribution flag (a non-contributing site answers local
  // requests but its data never leaves the site, §IV-A-4).
  if (!allowed(endpoint.site, slot.from)) {
    metrics_.dropped_participation->inc();
    // The rpc span stays open: the caller never hears back, and the
    // analyzer flags the chain as broken.
    if (tracing()) {
      obs::SpanScope scope(tracer_, slot.span);
      trace(obs::EventKind::kMessageDrop, to_site, "bus", "participation:" + endpoint.address);
    }
    unref_rpc(rpc);
    return;
  }
  metrics_.payload_bytes->inc(reply.wire_size());
  const std::uint32_t parcel = acquire_parcel();
  Parcel& leg = parcels_[parcel];
  leg.endpoint = slot.endpoint;
  leg.rpc = rpc;
  ++slot.refs;
  leg.body = std::move(reply);
  leg.leg = tracing() ? tracer_->begin_child(simulator_.now(), slot.span, to_site, "bus",
                                             "reply:" + endpoint.address)
                      : obs::SpanContext{};
  const Delivery outcome = route(endpoint.site, slot.from, endpoint, true, leg.leg);
  leg.refs += outcome.arrivals();
  post_arrivals(outcome, [this, parcel] { land_reply(parcel); });
  release_parcel_if_idle(parcel);
  unref_rpc(rpc);
}

void ServiceBus::land_reply(std::uint32_t parcel) {
  Parcel& leg = parcels_[parcel];
  Rpc& slot = rpcs_[leg.rpc];
  const Endpoint& endpoint = endpoints_[slot.endpoint];
  const std::string& from_site = site_name(slot.from);
  if (tracing() && leg.leg.valid()) tracer_->end_span(simulator_.now(), leg.leg, from_site, "bus");
  const double elapsed = simulator_.now() - slot.sent_at;
  endpoint.latency->record(elapsed);
  if (tracing() && slot.span.valid()) {
    tracer_->end_span(simulator_.now(), slot.span, from_site, "bus", endpoint.address, elapsed);
  }
  {
    obs::SpanScope scope(tracer_, slot.caller);
    if (slot.on_reply) slot.on_reply(leg.body);
  }
  unref_parcel(parcel);
}

void ServiceBus::send(const std::string& from_site, const std::string& address,
                      json::Value payload) {
  send_impl(from_site, address, std::move(payload), 0, false);
}

void ServiceBus::send_impl(const std::string& from_site, const std::string& address,
                           json::Value payload, std::size_t record_count, bool batch) {
  metrics_.one_way->inc();
  metrics_.payload_bytes->inc(payload.wire_size());
  // Only a tap needs the bytes themselves.
  const std::string wire = tap_ != nullptr ? payload.dump() : std::string();
  const std::uint32_t from = site_id(from_site);
  const std::uint32_t endpoint_index = endpoint_id(address);
  const Endpoint& endpoint = endpoints_[endpoint_index];
  const obs::SpanContext send_span =
      tracing() ? tracer_->begin_span(simulator_.now(), from_site, "bus", "send:" + address)
                : obs::SpanContext{};
  obs::SpanScope scope(tracer_, send_span);
  if (tracing()) trace(obs::EventKind::kMessageSend, from_site, "bus", address);
  // Report the transport verdict to the attached tap. Purely observational:
  // no randomness is consumed and no state is touched, so attaching a tap
  // cannot perturb a run (the replay golden tests pin this).
  const auto observe = [&](const Delivery& outcome) {
    if (tap_ == nullptr) return;
    SendObservation observation;
    observation.sent_at = simulator_.now();
    observation.delivered_at = simulator_.now() + outcome.latency;
    observation.duplicate_delivered_at =
        outcome.duplicated ? simulator_.now() + outcome.dup_latency : 0.0;
    observation.from_site = from_site;
    observation.address = address;
    observation.payload = wire;
    observation.record_count = record_count;
    observation.batch = batch;
    observation.duplicated = outcome.duplicated;
    observation.verdict = outcome.verdict;
    observation.span = send_span;
    tap_->on_send(observation);
  };
  // Drops leave the send span open: the data never arrived, and the
  // analyzer reports the enclosing chain as broken.
  if (!allowed(from, endpoint.site)) {
    metrics_.dropped_participation->inc();
    if (tracing()) {
      trace(obs::EventKind::kMessageDrop, from_site, "bus", "participation:" + address);
    }
    observe(Delivery{SendVerdict::kDroppedParticipation});
    return;
  }
  if (!endpoint.handler) {
    metrics_.dropped_unbound->inc();
    AEQ_DEBUG("bus") << "send to unbound address " << address;
    if (tracing()) {
      trace(obs::EventKind::kMessageDrop, site_name(endpoint.site), "bus", "unbound:" + address);
    }
    observe(Delivery{SendVerdict::kDroppedUnbound});
    return;
  }
  const std::uint32_t parcel = acquire_parcel();
  Parcel& message = parcels_[parcel];
  message.endpoint = endpoint_index;
  message.span = send_span;
  message.body = std::move(payload);
  message.leg = tracing() ? tracer_->begin_child(simulator_.now(), send_span, from_site, "bus",
                                                 "data:" + address)
                          : obs::SpanContext{};
  const Delivery outcome = route(from, endpoint.site, endpoint, false, message.leg);
  message.refs += outcome.arrivals();
  post_arrivals(outcome, [this, parcel] { land_message(parcel); });
  release_parcel_if_idle(parcel);
  observe(outcome);
}

void ServiceBus::land_message(std::uint32_t parcel) {
  Parcel& message = parcels_[parcel];
  const Endpoint& endpoint = endpoints_[message.endpoint];
  const std::string& to_site = site_name(endpoint.site);
  if (tracing() && message.leg.valid()) {
    tracer_->end_span(simulator_.now(), message.leg, to_site, "bus");
  }
  if (!endpoint.handler) {
    // Unbound while in flight: one-way data has no reply channel, so the
    // message just counts as dropped.
    metrics_.dropped_unbound->inc();
    AEQ_DEBUG("bus") << "in-flight send to unbound address " << endpoint.address;
    if (tracing()) {
      obs::SpanScope scope(tracer_, message.span);
      trace(obs::EventKind::kMessageDrop, to_site, "bus", "unbound:" + endpoint.address);
    }
    unref_parcel(parcel);
    return;
  }
  {
    const obs::SpanContext handle =
        tracing() ? tracer_->begin_child(simulator_.now(), message.span, to_site,
                                         endpoint.service, "handle:" + endpoint.address)
                  : obs::SpanContext{};
    obs::SpanScope scope(tracer_, handle);
    if (tracing()) trace(obs::EventKind::kMessageDeliver, to_site, "bus", endpoint.address);
    (void)endpoint.handler(message.body);
    if (tracing() && handle.valid()) {
      tracer_->end_span(simulator_.now(), handle, to_site, endpoint.service);
    }
  }
  if (tracing() && message.span.valid()) {
    tracer_->end_span(simulator_.now(), message.span, to_site, "bus");
  }
  unref_parcel(parcel);
}

void ServiceBus::send_batch(const std::string& from_site, const std::string& address,
                            json::Value payload, std::size_t record_count) {
  // A batch is one data message on the wire; the extra counters record
  // how many usage records it stands for. Delivery (participation,
  // outage, loss, duplication, jitter) is exactly send()'s.
  metrics_.batches->inc();
  metrics_.batch_records->inc(record_count);
  send_impl(from_site, address, std::move(payload), record_count, true);
}

json::Value ServiceBus::call(const std::string& address, const json::Value& payload) {
  const Endpoint* endpoint = find_endpoint(address);
  if (endpoint == nullptr || !endpoint->handler) {
    throw std::runtime_error("ServiceBus::call: unbound address " + address);
  }
  const std::string& to_site = site_name(endpoint->site);
  const obs::SpanContext span =
      tracing() ? tracer_->begin_span(simulator_.now(), to_site, endpoint->service,
                                      "call:" + address)
                : obs::SpanContext{};
  obs::SpanScope scope(tracer_, span);
  json::Value reply = endpoint->handler(payload);
  if (tracing() && span.valid()) {
    tracer_->end_span(simulator_.now(), span, to_site, endpoint->service);
  }
  return reply;
}

}  // namespace aequus::net
