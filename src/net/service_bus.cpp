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

void ServiceBus::attach_observability(obs::Observability obs) {
  if (obs.registry != nullptr && obs.registry != registry_) {
    registry_ = obs.registry;
    register_metrics();
    for (auto& [address, metrics] : endpoint_metrics_) {
      metrics.requests = &registry_->counter("rpc." + address + ".requests");
      metrics.latency = &registry_->histogram("rpc." + address + ".latency_s");
    }
  }
  tracer_ = obs.tracer;
}

ServiceBus::EndpointMetrics& ServiceBus::endpoint_metrics(const std::string& address) {
  const auto it = endpoint_metrics_.find(address);
  if (it != endpoint_metrics_.end()) return it->second;
  EndpointMetrics metrics;
  metrics.requests = &registry_->counter("rpc." + address + ".requests");
  metrics.latency = &registry_->histogram("rpc." + address + ".latency_s");
  return endpoint_metrics_.emplace(address, metrics).first->second;
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
  endpoints_[address] = std::move(handler);
  (void)endpoint_metrics(address);  // register rpc.<address>.* up front
}

void ServiceBus::unbind(const std::string& address) {
  endpoints_.erase(address);
}

bool ServiceBus::bound(const std::string& address) const {
  return endpoints_.count(address) > 0;
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
  contributes_[site] = contributes;
}

void ServiceBus::set_site_receives(const std::string& site, bool receives) {
  receives_[site] = receives;
}

bool ServiceBus::site_contributes(const std::string& site) const {
  const auto it = contributes_.find(site);
  return it == contributes_.end() || it->second;
}

bool ServiceBus::site_receives(const std::string& site) const {
  const auto it = receives_.find(site);
  return it == receives_.end() || it->second;
}

bool ServiceBus::allowed(const std::string& from_site, const std::string& to_site) const {
  if (from_site == to_site) return true;  // intra-site traffic always flows
  return site_contributes(from_site) && site_receives(to_site);
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

bool ServiceBus::lose(const std::string& from_site, const std::string& to_site) {
  if (from_site == to_site) return false;
  const double rate = plan_.loss_for(from_site, to_site);
  if (rate <= 0.0) return false;
  if (!fault_rng_.bernoulli(rate)) return false;
  metrics_.dropped_loss->inc();
  return true;
}

bool ServiceBus::outage(const std::string& from_site, const std::string& to_site) {
  if (plan_.outages.empty()) return false;
  const double now = simulator_.now();
  return plan_.site_down(from_site, now) || plan_.site_down(to_site, now);
}

bool ServiceBus::duplicate(const std::string& from_site, const std::string& to_site) {
  if (from_site == to_site || plan_.duplicate_rate <= 0.0) return false;
  return fault_rng_.bernoulli(plan_.duplicate_rate);
}

double ServiceBus::latency(const std::string& from_site, const std::string& to_site) const {
  return from_site == to_site ? local_latency_ : remote_latency_;
}

double ServiceBus::leg_latency(const std::string& from_site, const std::string& to_site) {
  double hop = latency(from_site, to_site);
  if (from_site != to_site && plan_.latency_jitter > 0.0) {
    hop += fault_rng_.uniform(0.0, plan_.latency_jitter);
  }
  return hop;
}

void ServiceBus::drop_leg(const obs::SpanContext& leg, const std::string& site,
                          std::string reason) {
  obs::SpanScope scope(tracer_, leg);
  trace(obs::EventKind::kMessageDrop, site, "bus", std::move(reason));
  if (tracing() && leg.valid()) {
    tracer_->end_span(simulator_.now(), leg, site, "bus", "dropped");
  }
}

ServiceBus::Delivery ServiceBus::deliver(const std::string& from_site,
                                         const std::string& to_site, const std::string& what,
                                         const obs::SpanContext& leg,
                                         std::function<void()> action) {
  Delivery outcome;
  if (outage(from_site, to_site)) {
    metrics_.dropped_outage->inc();
    drop_leg(leg, from_site, "outage:" + what);
    outcome.verdict = SendVerdict::kDroppedOutage;
    return outcome;
  }
  if (lose(from_site, to_site)) {
    drop_leg(leg, from_site, "loss:" + what);
    outcome.verdict = SendVerdict::kDroppedLoss;
    return outcome;
  }
  const bool twice = duplicate(from_site, to_site);
  // Close the leg span on arrival: leg duration is pure wire time, so the
  // analyzer can split every chain into queueing (bus legs) vs handling.
  // A duplicated leg ends its span twice; the analyzer counts the second
  // end as `duplicate_ends` and keeps the first.
  auto arrive = [this, leg, to_site, action = std::move(action)] {
    if (tracing() && leg.valid()) {
      tracer_->end_span(simulator_.now(), leg, to_site, "bus");
    }
    action();
  };
  outcome.delivered = true;
  outcome.latency = leg_latency(from_site, to_site);
  if (!twice) {
    simulator_.schedule_after(outcome.latency, std::move(arrive));
    return outcome;
  }
  // The only copy on the message path: a duplicated leg arrives twice, and
  // each arrival owns its own payload and continuations.
  simulator_.schedule_after(outcome.latency, arrive);
  metrics_.duplicated->inc();
  outcome.duplicated = true;
  outcome.dup_latency = leg_latency(from_site, to_site);
  simulator_.schedule_after(outcome.dup_latency, std::move(arrive));
  return outcome;
}

void ServiceBus::bounce_unbound(const std::string& address, const std::string& from_site,
                                const std::string& to_site, ErrorCallback on_error,
                                const obs::SpanContext& rpc_span,
                                const obs::SpanContext& caller) {
  metrics_.dropped_unbound->inc();
  AEQ_DEBUG("bus") << "request to unbound address " << address;
  {
    obs::SpanScope scope(tracer_, rpc_span);
    trace(obs::EventKind::kMessageDrop, to_site, "bus", "unbound:" + address);
  }
  // Structural failures bounce reliably (the transport knows nobody
  // listens); injected loss and outages stay silent so callers can only
  // detect them by timeout.
  if (on_error) {
    metrics_.unbound_bounces->inc();
    json::Object envelope;
    envelope["error"] = "unbound";
    envelope["address"] = address;
    simulator_.schedule_after(
        latency(to_site, from_site),
        [this, from_site, rpc_span, caller, error = json::Value(std::move(envelope)),
         on_error = std::move(on_error)] {
          if (tracing() && rpc_span.valid()) {
            tracer_->end_span(simulator_.now(), rpc_span, from_site, "bus", "unbound");
          }
          obs::SpanScope scope(tracer_, caller);
          on_error(error);
        });
  }
  // Without an error callback the rpc span stays open: the caller can only
  // notice by timeout, which the analyzer reports as a broken chain.
}

void ServiceBus::request(const std::string& from_site, const std::string& address,
                         json::Value payload, ReplyCallback on_reply, ErrorCallback on_error) {
  metrics_.requests->inc();
  metrics_.payload_bytes->inc(payload.wire_size());
  EndpointMetrics& rpc = endpoint_metrics(address);
  rpc.requests->inc();
  const std::string to_site = site_of(address);
  // Causal context: the rpc span is a child of whatever span was ambient
  // at the call site; the caller's context is restored around the
  // continuations so work triggered by the reply stays in the caller's
  // tree. The span context travels in the envelope only — never in the
  // JSON payload — so payload_bytes is identical with tracing on or off.
  const obs::SpanContext caller = tracing() ? tracer_->current() : obs::SpanContext{};
  const obs::SpanContext rpc_span =
      tracing() ? tracer_->begin_child(simulator_.now(), caller, from_site, "bus",
                                       "rpc:" + address)
                : obs::SpanContext{};
  // The forward leg is a query (metadata), not data: it always flows, so a
  // non-contributing site can still *read* global state (§IV-A-4). The
  // reply leg carries the responder's data and is gated below.
  if (endpoints_.find(address) == endpoints_.end()) {
    // Unbound at send time: the transport rejects immediately, so the
    // bounce costs one hop instead of a round trip.
    bounce_unbound(address, from_site, to_site, std::move(on_error), rpc_span, caller);
    return;
  }
  const double sent_at = simulator_.now();
  const obs::SpanContext query_leg =
      tracing() ? tracer_->begin_child(sent_at, rpc_span, from_site, "bus",
                                       "query:" + address)
                : obs::SpanContext{};
  // The handler is resolved on arrival: an unbind while the query is in
  // flight bounces, a re-bind routes to the new handler.
  deliver(from_site, to_site, address, query_leg,
          [this, address, latency = rpc.latency, payload = std::move(payload), from_site,
           to_site, sent_at, rpc_span, caller, on_reply = std::move(on_reply),
           on_error = std::move(on_error)]() mutable {
            const auto it = endpoints_.find(address);
            if (it == endpoints_.end()) {
              bounce_unbound(address, from_site, to_site, std::move(on_error), rpc_span,
                             caller);
              return;
            }
            json::Value reply;
            {
              const obs::SpanContext handle =
                  tracing() ? tracer_->begin_child(simulator_.now(), rpc_span, to_site,
                                                   service_of(address), "handle:" + address)
                            : obs::SpanContext{};
              obs::SpanScope scope(tracer_, handle);
              trace(obs::EventKind::kMessageDeliver, to_site, "bus", address);
              reply = it->second(payload);
              if (tracing() && handle.valid()) {
                tracer_->end_span(simulator_.now(), handle, to_site, service_of(address));
              }
            }
            // The reply carries the responder's data: it is subject to the
            // responder's contribution flag (a non-contributing site answers
            // local requests but its data never leaves the site, §IV-A-4).
            if (!allowed(to_site, from_site)) {
              metrics_.dropped_participation->inc();
              // The rpc span stays open: the caller never hears back, and
              // the analyzer flags the chain as broken.
              obs::SpanScope scope(tracer_, rpc_span);
              trace(obs::EventKind::kMessageDrop, to_site, "bus",
                    "participation:" + address);
              return;
            }
            metrics_.payload_bytes->inc(reply.wire_size());
            const obs::SpanContext reply_leg =
                tracing() ? tracer_->begin_child(simulator_.now(), rpc_span, to_site,
                                                 "bus", "reply:" + address)
                          : obs::SpanContext{};
            deliver(to_site, from_site, address + ":reply", reply_leg,
                    [this, latency, address, from_site, sent_at, rpc_span, caller,
                     reply = std::move(reply), on_reply = std::move(on_reply)] {
                      const double elapsed = simulator_.now() - sent_at;
                      latency->record(elapsed);
                      if (tracing() && rpc_span.valid()) {
                        tracer_->end_span(simulator_.now(), rpc_span, from_site, "bus",
                                          address, elapsed);
                      }
                      obs::SpanScope scope(tracer_, caller);
                      if (on_reply) on_reply(reply);
                    });
          });
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
  const std::string to_site = site_of(address);
  const obs::SpanContext send_span =
      tracing() ? tracer_->begin_span(simulator_.now(), from_site, "bus",
                                      "send:" + address)
                : obs::SpanContext{};
  obs::SpanScope scope(tracer_, send_span);
  trace(obs::EventKind::kMessageSend, from_site, "bus", address);
  // Report the transport verdict to the attached tap. Purely observational:
  // no randomness is consumed and no state is touched, so attaching a tap
  // cannot perturb a run (the replay golden tests pin this).
  const auto observe = [&](SendVerdict verdict, double latency, double dup_latency,
                           bool duplicated) {
    if (tap_ == nullptr) return;
    SendObservation observation;
    observation.sent_at = simulator_.now();
    observation.delivered_at = simulator_.now() + latency;
    observation.duplicate_delivered_at =
        duplicated ? simulator_.now() + dup_latency : 0.0;
    observation.from_site = from_site;
    observation.address = address;
    observation.payload = wire;
    observation.record_count = record_count;
    observation.batch = batch;
    observation.duplicated = duplicated;
    observation.verdict = verdict;
    observation.span = send_span;
    tap_->on_send(observation);
  };
  // Drops leave the send span open: the data never arrived, and the
  // analyzer reports the enclosing chain as broken.
  if (!allowed(from_site, to_site)) {
    metrics_.dropped_participation->inc();
    trace(obs::EventKind::kMessageDrop, from_site, "bus", "participation:" + address);
    observe(SendVerdict::kDroppedParticipation, 0.0, 0.0, false);
    return;
  }
  if (endpoints_.find(address) == endpoints_.end()) {
    metrics_.dropped_unbound->inc();
    AEQ_DEBUG("bus") << "send to unbound address " << address;
    trace(obs::EventKind::kMessageDrop, to_site, "bus", "unbound:" + address);
    observe(SendVerdict::kDroppedUnbound, 0.0, 0.0, false);
    return;
  }
  const obs::SpanContext data_leg =
      tracing() ? tracer_->begin_child(simulator_.now(), send_span, from_site, "bus",
                                       "data:" + address)
                : obs::SpanContext{};
  const Delivery outcome = deliver(
      from_site, to_site, address, data_leg,
      [this, address, to_site, send_span, payload = std::move(payload)] {
            const auto it = endpoints_.find(address);
            if (it == endpoints_.end()) {
              // Unbound while in flight: one-way data has no reply channel,
              // so the message just counts as dropped.
              metrics_.dropped_unbound->inc();
              AEQ_DEBUG("bus") << "in-flight send to unbound address " << address;
              obs::SpanScope scope(tracer_, send_span);
              trace(obs::EventKind::kMessageDrop, to_site, "bus", "unbound:" + address);
              return;
            }
            {
              const obs::SpanContext handle =
                  tracing() ? tracer_->begin_child(simulator_.now(), send_span, to_site,
                                                   service_of(address), "handle:" + address)
                            : obs::SpanContext{};
              obs::SpanScope scope(tracer_, handle);
              trace(obs::EventKind::kMessageDeliver, to_site, "bus", address);
              (void)it->second(payload);
              if (tracing() && handle.valid()) {
                tracer_->end_span(simulator_.now(), handle, to_site, service_of(address));
              }
            }
            if (tracing() && send_span.valid()) {
              tracer_->end_span(simulator_.now(), send_span, to_site, "bus");
            }
          });
  observe(outcome.verdict, outcome.latency, outcome.dup_latency, outcome.duplicated);
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
  const auto it = endpoints_.find(address);
  if (it == endpoints_.end()) {
    throw std::runtime_error("ServiceBus::call: unbound address " + address);
  }
  const std::string to_site = site_of(address);
  const obs::SpanContext span =
      tracing() ? tracer_->begin_span(simulator_.now(), to_site,
                                      service_of(address), "call:" + address)
                : obs::SpanContext{};
  obs::SpanScope scope(tracer_, span);
  json::Value reply = it->second(payload);
  if (tracing() && span.valid()) {
    tracer_->end_span(simulator_.now(), span, to_site, service_of(address));
  }
  return reply;
}

}  // namespace aequus::net
