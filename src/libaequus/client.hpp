// libaequus: the unified system library linked into local resource
// management systems (§III-A).
//
// "The libaequus library provides a C/C++ based interface that underneath
// contains Web service clients that communicate with Aequus to retrieve
// fairshare values, usage identity mappings, and store usage records.
// Previously resolved fairshare values and identities are cached within
// the library (for a configurable amount of time), which considerably
// reduces the amount of network traffic and computations required when
// batches of jobs are submitted and processed at the same time."
//
// The client is synchronous from the RM's point of view: fairshare
// lookups are served from a periodically refreshed snapshot of the FCS
// table (cache delay III of §IV-A-2), identity lookups hit a TTL cache in
// front of the site IRS, and usage reports are one-way messages to the
// site USS (reporting delay I).
//
// Failure handling: a table refresh that receives no reply within
// `request_timeout` is retried with bounded exponential backoff
// (`backoff_base * backoff_multiplier^attempt`, capped at `backoff_max`,
// at most `max_retries` retries). An unbound FCS (service crashed) bounces
// immediately and follows the same backoff path. When all retries are
// exhausted the client keeps serving the stale cached table — schedulers
// degrade to cached or local fairshare instead of hanging — and tries
// again at the next periodic refresh.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/snapshot.hpp"
#include "ingest/batcher.hpp"
#include "net/service_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace aequus::client {

struct ClientConfig {
  std::string site;                  ///< Aequus installation to talk to
  std::string cluster;               ///< local cluster name (IRS context)
  double fairshare_cache_ttl = 30.0; ///< seconds between table refreshes
  double identity_cache_ttl = 600.0; ///< seconds an identity stays cached
  double request_timeout = 5.0;      ///< seconds before a refresh is presumed lost
  int max_retries = 4;               ///< retry budget per refresh cycle
  double backoff_base = 1.0;         ///< first retry delay [s]
  double backoff_multiplier = 2.0;   ///< exponential backoff factor
  double backoff_max = 30.0;         ///< ceiling on a single backoff delay [s]
  /// Batched usage ingestion (DESIGN.md §6g). Disabled by default: every
  /// report is one immediate bus send, byte-identical to the legacy
  /// path. Enabled, reports append to a bounded per-site delta log that
  /// ships coalesced, sequence-numbered batches to the USS on
  /// `batch_interval` cadence.
  ingest::IngestConfig batching{};
};

struct ClientStats {
  std::uint64_t fairshare_lookups = 0;
  std::uint64_t fairshare_refreshes = 0;
  std::uint64_t usage_reports = 0;
  std::uint64_t identity_hits = 0;
  std::uint64_t identity_misses = 0;
  std::uint64_t identity_failures = 0;  ///< IRS unreachable; lookup failed soft
  std::uint64_t refresh_timeouts = 0;   ///< refresh replies that never arrived
  std::uint64_t refresh_retries = 0;    ///< backoff retries issued
  std::uint64_t refresh_errors = 0;     ///< unbound bounces from the bus
  std::uint64_t refresh_failures = 0;   ///< retry budget exhausted (stale fallback)
};

class AequusClient {
 public:
  AequusClient(sim::Simulator& simulator, net::ServiceBus& bus, ClientConfig config,
               obs::Observability obs = {});
  ~AequusClient();
  AequusClient(const AequusClient&) = delete;
  AequusClient& operator=(const AequusClient&) = delete;

  /// Global fairshare factor in [0, 1] for a grid user. Served from the
  /// cached FCS table; 0.5 (the balance point) until the first refresh
  /// lands or for users Aequus does not know. Never blocks: under faults
  /// this degrades to the last successfully fetched (stale) table.
  [[nodiscard]] double fairshare_factor(const std::string& grid_user);

  /// Immutable snapshot of the cached fairshare factors. The generation
  /// is a local counter bumped per successful refresh, so a scheduler can
  /// grab one snapshot per pass (and detect "nothing changed" cheaply)
  /// instead of probing the client per job. Null until the first refresh
  /// lands; readers hold the returned pointer, which never mutates.
  [[nodiscard]] core::FairshareSnapshotPtr snapshot() const noexcept { return snapshot_; }

  /// Reverse-map a system user to its grid identity via the site IRS,
  /// caching results for `identity_cache_ttl` seconds. An unreachable IRS
  /// is a soft failure (nullopt), never an exception into the scheduler.
  [[nodiscard]] std::optional<std::string> resolve_identity(const std::string& system_user);

  /// Report `usage` core-seconds consumed by `grid_user` to the site USS.
  void report_usage(const std::string& grid_user, double usage);

  /// Convenience used by completion plugins: resolve, then report. Returns
  /// false when the identity cannot be resolved (usage is then dropped,
  /// as it would be in a misconfigured deployment).
  bool report_system_usage(const std::string& system_user, double usage);

  [[nodiscard]] const ClientStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ClientConfig& config() const noexcept { return config_; }

  /// The observability hookup the client records into; completion plugins
  /// use it to open their own spans around client calls.
  [[nodiscard]] const obs::Observability& observability() const noexcept { return obs_; }

  /// Simulated time of the last successful table refresh; negative until
  /// one lands.
  [[nodiscard]] double last_refresh_time() const noexcept { return last_refresh_time_; }

  /// True when the cached table is older than `max_age` seconds (always
  /// true before the first successful refresh).
  [[nodiscard]] bool stale(double max_age) const noexcept;

  /// Force a fresh refresh cycle (normally timer-driven). Cancels any
  /// in-flight attempt or pending backoff retry.
  void refresh_fairshare_table();

  /// The batching delta log (null unless config.batching.enabled).
  [[nodiscard]] ingest::DeltaLog* delta_log() noexcept { return delta_log_.get(); }

 private:
  /// Registry-backed mirrors of ClientStats ("<site>.client.*"), null
  /// when no observability is attached.
  struct Metrics {
    obs::Counter* fairshare_lookups = nullptr;
    obs::Counter* fairshare_refreshes = nullptr;
    obs::Counter* usage_reports = nullptr;
    obs::Counter* identity_hits = nullptr;
    obs::Counter* identity_misses = nullptr;
    obs::Counter* identity_failures = nullptr;
    obs::Counter* refresh_timeouts = nullptr;
    obs::Counter* refresh_retries = nullptr;
    obs::Counter* refresh_errors = nullptr;
    obs::Counter* refresh_failures = nullptr;
  };

  /// Issue attempt number `attempt` of the current refresh cycle.
  void start_refresh(int attempt);
  /// Handle a lost/bounced attempt: back off and retry, or give up and
  /// serve stale until the next periodic cycle.
  void refresh_attempt_failed(int attempt);
  [[nodiscard]] double backoff_delay(int attempt) const noexcept;
  void trace(obs::EventKind kind, std::string detail, double value = 0.0,
             std::uint64_t id = 0);
  [[nodiscard]] bool tracing() const noexcept {
    return obs_.tracer != nullptr && obs_.tracer->enabled();
  }
  /// Close `span` (when open) with `detail` and invalidate the handle.
  void end_client_span(obs::SpanContext& span, std::string detail, double value = 0.0);

  sim::Simulator& simulator_;
  net::ServiceBus& bus_;
  ClientConfig config_;
  std::string fcs_address_;
  json::Value table_request_;  ///< frozen {"op":"table"}, sent by every attempt
  obs::Observability obs_;
  Metrics metrics_;
  std::map<std::string, double> fairshare_table_;
  /// Latest published view of fairshare_table_; rebuilt after every
  /// successful refresh, immutable once handed out.
  core::FairshareSnapshotPtr snapshot_;
  std::uint64_t snapshot_generation_ = 0;
  struct CachedIdentity {
    std::string grid_user;
    double expires;
  };
  std::map<std::string, CachedIdentity> identity_cache_;
  ClientStats stats_;
  /// Bounded delta log for batched ingestion; null when batching is off.
  std::unique_ptr<ingest::DeltaLog> delta_log_;
  sim::EventHandle refresh_task_;
  sim::EventHandle timeout_task_;
  sim::EventHandle retry_task_;
  /// Identifies the outstanding refresh attempt; replies and timeouts
  /// carrying another generation are stale and ignored.
  std::uint64_t refresh_generation_ = 0;
  int refresh_attempt_ = 0;        ///< attempt number of refresh_generation_
  double refresh_sent_at_ = 0.0;   ///< when that attempt was sent
  double last_refresh_time_ = -1.0;
  /// Causal spans for the current refresh cycle: one "refresh" root per
  /// cycle with one "attempt:<n>" child per try, so retry storms and
  /// stale-cache fallbacks are visible as tree shapes in the trace.
  obs::SpanContext refresh_span_;
  obs::SpanContext attempt_span_;
};

}  // namespace aequus::client
