// Simulated service bus: the stand-in for the Java Web-service transport
// between Aequus installations.
//
// Endpoints have addresses of the form "<site>.<service>" (e.g.
// "hpc2n.uss"). Messages are JSON payloads delivered with configurable
// latency: `local_latency` within a site and `remote_latency` between
// sites. The paper's partial-participation experiment (§IV-A-4) is modeled
// with per-site flags: a site that does not *contribute* has its outbound
// inter-site traffic dropped; a site that does not *receive* has inbound
// inter-site traffic dropped. Intra-site traffic always flows.
//
// On top of the participation model sits a deterministic fault-injection
// layer (FaultPlan): per-link message loss, message duplication, latency
// jitter, and scheduled site outage windows during which every message leg
// touching the site (including intra-site traffic — the site is down, not
// merely partitioned) is dropped. All randomness is drawn from one seeded
// stream, so a faulty run replays bit-identically from its seed. Per leg
// the draws come in a fixed order: loss, duplicate, latency jitter, then
// the duplicate's jitter.
//
// The destination handler is resolved when a message *arrives*, not when
// it is sent: unbinding an address while traffic is in flight counts the
// arrival as `dropped_unbound` (requests additionally bounce an error
// envelope), and re-binding routes in-flight traffic to the new handler —
// matching a real transport, where the sender cannot pin the remote
// implementation it observed at send time.
//
// The message path allocates nothing per message (DESIGN.md §6m):
//  - Every address and site is interned once into a record that is never
//    erased: an endpoint holds its handler (empty while unbound), its
//    rpc.<address>.* metrics and its site id; a site holds its
//    participation flags. A request or send costs one hash lookup of its
//    address and one of its sender's site.
//  - A request's state (payload, continuations, spans, send time) lives in
//    a slot of an RPC table, and a reply or one-way message in a slot of a
//    parcel table. Both are deques, so a handler or continuation that
//    issues requests re-entrantly never moves a slot another frame holds,
//    and both recycle slots through free lists. Duplicated legs share a
//    slot through its reference count.
//  - Leg events capture only [this, slot], which fits std::function's
//    inline buffer, and are posted fire-and-forget.
//  - Drop and trace labels are built only while tracing.
//
// Traffic counters are backed by an obs::Registry (the bus owns a private
// one until an experiment attaches its own via attach_observability);
// BusStats remains as a plain-struct façade assembled from the registry
// so existing call sites keep working. Message volume counters support
// evaluating the "compact form" usage exchange (bytes on the wire per
// experiment).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/id_table.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "sim/simulator.hpp"

namespace aequus::net {

/// Traffic counters, exposed for experiments. Assembled on demand from
/// the bus's metrics registry (see ServiceBus::stats).
struct BusStats {
  std::uint64_t requests = 0;
  std::uint64_t one_way = 0;
  std::uint64_t dropped_participation = 0;  ///< blocked by participation flags
  std::uint64_t dropped_unbound = 0;        ///< no endpoint at address
  std::uint64_t dropped_loss = 0;           ///< lost to injected failures
  std::uint64_t dropped_outage = 0;         ///< blocked by a site outage window
  std::uint64_t duplicated = 0;             ///< extra deliveries injected
  std::uint64_t unbound_bounces = 0;        ///< error envelopes delivered
  std::uint64_t payload_bytes = 0;          ///< serialized payload volume
  std::uint64_t batches = 0;                ///< coalesced batch envelopes sent
  std::uint64_t batch_records = 0;          ///< usage records carried in batches
};

/// One scheduled site failure: the site is unreachable (and its services
/// are down) for simulated times in [start, end).
struct OutageWindow {
  std::string site;
  double start = 0.0;
  double end = 0.0;
};

/// Deterministic fault-injection schedule for a whole experiment. All
/// probabilities apply per message *leg* (the query and reply of a request
/// roll independently). Loss, duplication, and jitter affect inter-site
/// legs only; outages take the whole site down, intra-site traffic
/// included.
struct FaultPlan {
  double loss_rate = 0.0;       ///< default per-leg inter-site loss probability
  double duplicate_rate = 0.0;  ///< per delivered inter-site leg
  double latency_jitter = 0.0;  ///< max uniform extra latency per inter-site leg [s]
  /// Per-link loss overrides keyed by (from_site, to_site); fall back to
  /// `loss_rate` when a link has no entry.
  std::map<std::pair<std::string, std::string>, double> link_loss;
  std::vector<OutageWindow> outages;
  std::uint64_t seed = 0x10ad;

  [[nodiscard]] bool active() const noexcept;

  /// True when `site` is inside one of its outage windows at `now`.
  [[nodiscard]] bool site_down(const std::string& site, double now) const noexcept;

  /// End of the latest outage window (0 when there are none). Useful for
  /// judging reconvergence "once faults clear"; note that loss/duplication
  /// rates never clear — only outages do.
  [[nodiscard]] double last_outage_end() const noexcept;

  /// Loss probability for one directed inter-site link.
  [[nodiscard]] double loss_for(const std::string& from_site,
                                const std::string& to_site) const noexcept;
};

/// Transport-layer outcome of one one-way envelope, decided at send time.
/// The numeric values are stable: they are written into flight-recorder
/// logs (src/replay/log.hpp), so reordering them would corrupt old logs.
enum class SendVerdict : std::uint8_t {
  kDelivered = 0,             ///< scheduled for arrival (handler may still be unbound)
  kDroppedParticipation = 1,  ///< blocked by participation flags
  kDroppedUnbound = 2,        ///< no endpoint bound at send time
  kDroppedOutage = 3,         ///< a site outage window swallowed the leg
  kDroppedLoss = 4,           ///< injected per-link loss
};

[[nodiscard]] const char* to_string(SendVerdict verdict) noexcept;
[[nodiscard]] bool send_verdict_from_string(std::string_view name, SendVerdict& out) noexcept;

/// Everything the bus knows about one one-way envelope at the moment the
/// transport decision is made. Passed to an attached BusTap; the
/// string_views alias send-scope storage and must be copied to outlive
/// the callback. `verdict` reflects the wire decision: a kDelivered
/// envelope whose address unbinds while in flight still reads kDelivered
/// (handler resolution happens on arrival, after the tap has fired).
struct SendObservation {
  double sent_at = 0.0;
  double delivered_at = 0.0;            ///< == sent_at when dropped
  double duplicate_delivered_at = 0.0;  ///< second arrival; 0 unless duplicated
  std::string_view from_site;
  std::string_view address;
  std::string_view payload;      ///< compact JSON wire form (payload.dump())
  std::size_t record_count = 0;  ///< coalesced records (send_batch), else 0
  bool batch = false;            ///< came in via send_batch
  bool duplicated = false;       ///< fault plan injected a second delivery
  SendVerdict verdict = SendVerdict::kDelivered;
  obs::SpanContext span;  ///< the send span (invalid when tracing is off)
};

/// Observer of every one-way envelope (send / send_batch). Passive by
/// contract: on_send must not mutate the bus and must not consume
/// randomness — attaching a tap leaves the run's determinism fingerprint
/// untouched (pinned by the replay golden tests). request/reply traffic
/// is not tapped: only one-way sends mutate remote state, so they are
/// exactly the traffic a replay needs.
class BusTap {
 public:
  virtual ~BusTap() = default;
  virtual void on_send(const SendObservation& observation) = 0;
};

/// In-process message fabric running on the shared Simulator.
class ServiceBus {
 public:
  using Handler = std::function<json::Value(const json::Value&)>;
  using ReplyCallback = std::function<void(const json::Value&)>;
  /// Receives a JSON error envelope ({"error":"unbound","address":...})
  /// when a request cannot be delivered for a *structural* reason the
  /// network would report (no endpoint bound). Injected loss and outages
  /// are silent — distinguishing the two is the caller's job (timeouts).
  using ErrorCallback = std::function<void(const json::Value&)>;

  explicit ServiceBus(sim::Simulator& simulator);

  /// Route counters/traces into an experiment-owned registry/tracer.
  /// Replaces the bus-private registry for *subsequent* recording; attach
  /// before traffic flows (pre-attach counts stay in the private
  /// registry). Null members fall back to the private registry / no
  /// tracing.
  void attach_observability(obs::Observability obs);

  /// The registry currently backing the counters (private one by default).
  [[nodiscard]] obs::Registry& registry() noexcept { return *registry_; }

  /// Register the handler for `address` ("<site>.<service>"). Re-binding
  /// replaces the previous handler — including for traffic already in
  /// flight, which resolves its handler on arrival.
  void bind(const std::string& address, Handler handler);

  /// Remove the handler. Traffic already in flight to `address` arrives
  /// at an empty slot: it counts as dropped_unbound, and requests bounce
  /// an error envelope back to the caller.
  void unbind(const std::string& address);

  /// Asynchronous request/response. The handler runs after the forward
  /// latency; `on_reply` runs after the return latency. The query leg
  /// always flows; the *reply* carries the responder's data and is
  /// dropped when the responder does not contribute or the requester does
  /// not receive. If the address is unbound, `on_error` (when provided)
  /// receives an error envelope — after one hop when unbound at send
  /// time, after the full round trip when unbound in flight; if a leg is
  /// lost or a site is down, neither callback ever fires.
  void request(const std::string& from_site, const std::string& address, json::Value payload,
               ReplyCallback on_reply, ErrorCallback on_error = nullptr);

  /// Fire-and-forget data message (e.g. a usage report): dropped across
  /// sites when the sender does not contribute or the receiver does not
  /// receive.
  void send(const std::string& from_site, const std::string& address, json::Value payload);

  /// Batch envelope: a one-way data message known to carry
  /// `record_count` coalesced records (the ingest delta-log path).
  /// Delivery semantics are identical to send(); the extra counters
  /// (`bus.batches`, `bus.batch_records`) expose the coalescing ratio —
  /// envelopes on the wire vs usage records represented.
  void send_batch(const std::string& from_site, const std::string& address,
                  json::Value payload, std::size_t record_count);

  /// Immediate local call, bypassing latency and participation (used for
  /// co-located services inside one installation). Throws if unbound.
  [[nodiscard]] json::Value call(const std::string& address, const json::Value& payload);

  [[nodiscard]] bool bound(const std::string& address) const;

  /// Latency configuration (seconds).
  void set_local_latency(double seconds) noexcept { local_latency_ = seconds; }
  void set_remote_latency(double seconds) noexcept { remote_latency_ = seconds; }
  [[nodiscard]] double remote_latency() const noexcept { return remote_latency_; }

  /// Participation flags (default: full participation).
  void set_site_contributes(const std::string& site, bool contributes);
  void set_site_receives(const std::string& site, bool receives);
  [[nodiscard]] bool site_contributes(const std::string& site) const;
  [[nodiscard]] bool site_receives(const std::string& site) const;

  /// Install a fault-injection schedule (replaces any previous plan and
  /// reseeds the fault stream from plan.seed).
  void set_fault_plan(FaultPlan plan);
  [[nodiscard]] const FaultPlan& fault_plan() const noexcept { return plan_; }

  /// Failure injection shorthand kept for existing call sites: drop each
  /// *inter-site* message leg independently with probability `rate`
  /// (deterministic given `seed`). Intra-site traffic is unaffected.
  /// rate = 0 disables (default). Resets any per-link overrides.
  void set_loss_rate(double rate, std::uint64_t seed = 0x10ad);

  /// Attach (or detach, with nullptr) the single envelope tap. The tap
  /// observes every send/send_batch with its transport verdict; it is
  /// not an owner and must outlive the traffic it observes.
  void set_tap(BusTap* tap) noexcept { tap_ = tap; }
  [[nodiscard]] BusTap* tap() const noexcept { return tap_; }

  /// Counter façade assembled from the metrics registry.
  [[nodiscard]] BusStats stats() const noexcept;

  /// Requests and messages whose legs are still scheduled: the RPC and
  /// parcel slots in use. 0 once every leg has landed or been dropped.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return (rpcs_.size() - free_rpcs_.size()) + (parcels_.size() - free_parcels_.size());
  }

  /// Site prefix of an address ("siteA.uss" -> "siteA").
  [[nodiscard]] static std::string site_of(std::string_view address);

  /// Service suffix of an address ("siteA.uss" -> "uss").
  [[nodiscard]] static std::string service_of(std::string_view address);

 private:
  /// Registry-backed bus counters, cached as stable pointers so the hot
  /// path is a single increment.
  struct Metrics {
    obs::Counter* requests = nullptr;
    obs::Counter* one_way = nullptr;
    obs::Counter* dropped_participation = nullptr;
    obs::Counter* dropped_unbound = nullptr;
    obs::Counter* dropped_loss = nullptr;
    obs::Counter* dropped_outage = nullptr;
    obs::Counter* duplicated = nullptr;
    obs::Counter* unbound_bounces = nullptr;
    obs::Counter* payload_bytes = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* batch_records = nullptr;
  };
  /// One interned address. Never erased: unbind() only clears `handler`.
  struct Endpoint {
    std::string address;
    std::string service;  ///< service_of(address), the handle span's component
    std::uint32_t site = 0;
    Handler handler;  ///< empty while unbound
    /// "rpc.<address>.*", registered on the first bind or request (null
    /// before, so one-way-only addresses register nothing).
    obs::Counter* requests = nullptr;
    obs::Histogram* latency = nullptr;
  };
  /// One interned site and its participation flags.
  struct Site {
    std::string name;
    bool contributes = true;
    bool receives = true;
  };
  /// A request from send until its last leg or bounce lands. `refs`
  /// counts the scheduled events and reply parcels that hold the slot.
  struct Rpc {
    std::uint32_t endpoint = 0;
    std::uint32_t from = 0;  ///< requester site
    std::uint32_t refs = 0;
    double sent_at = 0.0;
    obs::SpanContext span;    ///< the rpc span
    obs::SpanContext caller;  ///< span ambient at the call site
    obs::SpanContext leg;     ///< the query leg span
    json::Value payload;
    ReplyCallback on_reply;
    ErrorCallback on_error;
  };
  static constexpr std::uint32_t kNoRpc = 0xffffffffu;
  /// A reply (rpc != kNoRpc) or one-way message on its leg. `refs`
  /// counts its scheduled arrivals (2 when duplicated).
  struct Parcel {
    std::uint32_t endpoint = 0;
    std::uint32_t rpc = kNoRpc;
    std::uint32_t refs = 0;
    obs::SpanContext span;  ///< one-way: the send span
    obs::SpanContext leg;   ///< the leg span
    json::Value body;
  };
  /// Transport outcome of one leg. Latencies are relative to now().
  struct Delivery {
    SendVerdict verdict = SendVerdict::kDelivered;
    double latency = 0.0;      ///< primary arrival delay (0 when dropped)
    double dup_latency = 0.0;  ///< second arrival delay; 0 unless duplicated
    bool duplicated = false;
    [[nodiscard]] bool delivered() const noexcept {
      return verdict == SendVerdict::kDelivered;
    }
    [[nodiscard]] std::uint32_t arrivals() const noexcept {
      return delivered() ? (duplicated ? 2u : 1u) : 0u;
    }
  };

  void register_metrics();
  void register_endpoint_metrics(Endpoint& endpoint);
  /// Id of the record for `address` / `site`, interned on first sight.
  [[nodiscard]] std::uint32_t endpoint_id(std::string_view address);
  [[nodiscard]] std::uint32_t site_id(std::string_view site);
  [[nodiscard]] const Endpoint* find_endpoint(const std::string& address) const;
  [[nodiscard]] const Site* find_site(const std::string& site) const;
  [[nodiscard]] const std::string& site_name(std::uint32_t site) const noexcept {
    return sites_[site].name;
  }
  [[nodiscard]] bool tracing() const noexcept {
    return tracer_ != nullptr && tracer_->enabled();
  }
  void trace(obs::EventKind kind, const std::string& site, const std::string& component,
             std::string detail = {}, double value = 0.0, std::uint64_t id = 0);
  /// Record a drop event under `leg` and close the leg span ("dropped").
  /// Call only while tracing.
  void trace_drop(const obs::SpanContext& leg, const std::string& site, std::string reason);

  [[nodiscard]] bool allowed(std::uint32_t from, std::uint32_t to) const noexcept;
  [[nodiscard]] double latency(std::uint32_t from, std::uint32_t to) const noexcept {
    return from == to ? local_latency_ : remote_latency_;
  }
  /// Per-leg latency including jitter (consumes randomness when jitter on).
  [[nodiscard]] double leg_latency(std::uint32_t from, std::uint32_t to);
  /// Decide one leg's fate (outage, loss, duplication, jitter) and count
  /// its drops; the caller posts one event per arrival. `reply` marks a
  /// reply leg in drop labels.
  Delivery route(std::uint32_t from, std::uint32_t to, const Endpoint& endpoint, bool reply,
                 const obs::SpanContext& leg);
  /// Post one [this, slot] event per arrival of `outcome`.
  template <typename Land>
  void post_arrivals(const Delivery& outcome, Land land);

  [[nodiscard]] std::uint32_t acquire_rpc();
  [[nodiscard]] std::uint32_t acquire_parcel();
  /// Free the slot when nothing holds it any more.
  void release_rpc_if_idle(std::uint32_t rpc);
  void release_parcel_if_idle(std::uint32_t parcel);
  void unref_rpc(std::uint32_t rpc);
  void unref_parcel(std::uint32_t parcel);

  /// Count an unbound arrival and, for requests with an error callback,
  /// post the error envelope back over the return leg. The rpc span is
  /// closed ("unbound") when the bounce lands; without an error callback
  /// it stays open (the caller can only detect the loss by timeout — a
  /// broken chain).
  void bounce_unbound(std::uint32_t rpc);
  void land_query(std::uint32_t rpc);
  void land_bounce(std::uint32_t rpc);
  void land_reply(std::uint32_t parcel);
  void land_message(std::uint32_t parcel);
  /// Shared body of send()/send_batch(): batch metadata rides along so the
  /// tap observes one coherent record per envelope.
  void send_impl(const std::string& from_site, const std::string& address, json::Value payload,
                 std::size_t record_count, bool batch);

  sim::Simulator& simulator_;
  core::IdTable endpoint_ids_;
  std::deque<Endpoint> endpoints_;
  core::IdTable site_ids_;
  std::deque<Site> sites_;
  std::deque<Rpc> rpcs_;
  std::vector<std::uint32_t> free_rpcs_;
  std::deque<Parcel> parcels_;
  std::vector<std::uint32_t> free_parcels_;
  double local_latency_ = 0.01;
  double remote_latency_ = 0.10;
  FaultPlan plan_;
  util::Rng fault_rng_{0x10ad};
  obs::Registry own_registry_;
  obs::Registry* registry_ = &own_registry_;
  obs::Tracer* tracer_ = nullptr;
  BusTap* tap_ = nullptr;
  Metrics metrics_;
};

}  // namespace aequus::net
