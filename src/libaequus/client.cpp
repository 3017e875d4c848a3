#include "libaequus/client.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace aequus::client {

AequusClient::AequusClient(sim::Simulator& simulator, net::ServiceBus& bus, ClientConfig config,
                           obs::Observability obs)
    : simulator_(simulator),
      bus_(bus),
      config_(std::move(config)),
      fcs_address_(config_.site + ".fcs"),
      table_request_(json::Value::frozen(json::Object{{"op", json::Value("table")}})),
      obs_(obs) {
  if (obs_.registry != nullptr) {
    const std::string prefix = config_.site + ".client.";
    metrics_.fairshare_lookups = &obs_.registry->counter(prefix + "fairshare_lookups");
    metrics_.fairshare_refreshes = &obs_.registry->counter(prefix + "fairshare_refreshes");
    metrics_.usage_reports = &obs_.registry->counter(prefix + "usage_reports");
    metrics_.identity_hits = &obs_.registry->counter(prefix + "identity_hits");
    metrics_.identity_misses = &obs_.registry->counter(prefix + "identity_misses");
    metrics_.identity_failures = &obs_.registry->counter(prefix + "identity_failures");
    metrics_.refresh_timeouts = &obs_.registry->counter(prefix + "refresh_timeouts");
    metrics_.refresh_retries = &obs_.registry->counter(prefix + "refresh_retries");
    metrics_.refresh_errors = &obs_.registry->counter(prefix + "refresh_errors");
    metrics_.refresh_failures = &obs_.registry->counter(prefix + "refresh_failures");
  }
  if (config_.batching.enabled) {
    delta_log_ = std::make_unique<ingest::DeltaLog>(simulator_, bus_, config_.site,
                                                    config_.site + ".uss", config_.batching, obs_);
  }
  refresh_fairshare_table();
  refresh_task_ =
      simulator_.schedule_periodic(config_.fairshare_cache_ttl, config_.fairshare_cache_ttl,
                                   [this] { refresh_fairshare_table(); });
}

AequusClient::~AequusClient() {
  refresh_task_.cancel();
  timeout_task_.cancel();
  retry_task_.cancel();
}

void AequusClient::trace(obs::EventKind kind, std::string detail, double value,
                         std::uint64_t id) {
  if (obs_.tracer == nullptr || !obs_.tracer->enabled()) return;
  obs_.tracer->record(simulator_.now(), kind, config_.site, "client", std::move(detail), value,
                      id);
}

bool AequusClient::stale(double max_age) const noexcept {
  if (last_refresh_time_ < 0.0) return true;
  return simulator_.now() - last_refresh_time_ > max_age;
}

double AequusClient::backoff_delay(int attempt) const noexcept {
  const double delay =
      config_.backoff_base * std::pow(config_.backoff_multiplier, attempt);
  return std::clamp(delay, 0.0, config_.backoff_max);
}

void AequusClient::end_client_span(obs::SpanContext& span, std::string detail,
                                   double value) {
  if (span.valid() && obs_.tracer != nullptr) {
    obs_.tracer->end_span(simulator_.now(), span, config_.site, "client",
                          std::move(detail), value);
  }
  span = obs::SpanContext{};
}

void AequusClient::refresh_fairshare_table() {
  // A new cycle supersedes any in-flight attempt or pending retry.
  timeout_task_.cancel();
  retry_task_.cancel();
  end_client_span(attempt_span_, "superseded");
  end_client_span(refresh_span_, "superseded");
  if (tracing()) {
    refresh_span_ =
        obs_.tracer->begin_span(simulator_.now(), config_.site, "client", "refresh");
  }
  start_refresh(0);
}

void AequusClient::start_refresh(int attempt) {
  const std::uint64_t generation = ++refresh_generation_;
  const double sent_at = simulator_.now();
  // Only the attempt of the current generation reads these, so the
  // continuations below capture no more than [this, generation] and fit
  // std::function's inline buffer.
  refresh_attempt_ = attempt;
  refresh_sent_at_ = sent_at;
  if (tracing()) {
    attempt_span_ = obs_.tracer->begin_child(sent_at, refresh_span_, config_.site, "client",
                                             "attempt:" + std::to_string(attempt));
  }
  // The bus request below inherits the attempt span, so each retry's rpc
  // (and its retransmitted legs) hangs under its own "attempt:<n>" child.
  obs::SpanScope span_scope(obs_.tracer, attempt_span_);
  if (config_.request_timeout > 0.0) {
    timeout_task_ = simulator_.schedule_after(
        config_.request_timeout, [this, generation] {
          if (generation != refresh_generation_) return;
          ++stats_.refresh_timeouts;
          obs::bump(metrics_.refresh_timeouts);
          refresh_attempt_failed(refresh_attempt_);
        });
  }
  bus_.request(
      config_.site, fcs_address_, table_request_,
      [this, generation](const json::Value& reply) {
        if (generation != refresh_generation_) return;  // superseded or timed out
        timeout_task_.cancel();
        ++refresh_generation_;  // retire this attempt (duplicates become stale)
        try {
          const auto users = reply.find("users");
          if (!users) return;
          for (const auto& [user, value] : users->get().as_object()) {
            fairshare_table_[user] = value.as_number();
          }
          snapshot_ = core::FairshareSnapshot::with_factors(
              std::make_shared<core::FairshareSnapshot>(nullptr, ++snapshot_generation_,
                                                        core::kDefaultResolution, 0),
              {}, fairshare_table_);
          ++stats_.fairshare_refreshes;
          obs::bump(metrics_.fairshare_refreshes);
          last_refresh_time_ = simulator_.now();
          const double elapsed = simulator_.now() - refresh_sent_at_;
          end_client_span(attempt_span_, "ok", elapsed);
          end_client_span(refresh_span_, "ok", elapsed);
        } catch (const std::exception& e) {
          AEQ_WARN("libaequus") << "bad fairshare table reply: " << e.what();
        }
      },
      [this, generation](const json::Value& error) {
        if (generation != refresh_generation_) return;
        timeout_task_.cancel();
        ++stats_.refresh_errors;
        obs::bump(metrics_.refresh_errors);
        AEQ_DEBUG("libaequus") << config_.site << ": fairshare refresh bounced: "
                               << error.get_string("error", "unknown");
        refresh_attempt_failed(refresh_attempt_);
      });
}

void AequusClient::refresh_attempt_failed(int attempt) {
  ++refresh_generation_;  // a late reply to the failed attempt is stale
  end_client_span(attempt_span_, "failed");
  if (attempt >= config_.max_retries) {
    ++stats_.refresh_failures;
    obs::bump(metrics_.refresh_failures);
    {
      obs::SpanScope scope(obs_.tracer, refresh_span_);
      trace(obs::EventKind::kCacheStaleFallback, "fairshare_table",
            last_refresh_time_ >= 0.0 ? simulator_.now() - last_refresh_time_ : -1.0);
    }
    end_client_span(refresh_span_, "stale_fallback");
    AEQ_DEBUG("libaequus") << config_.site
                           << ": fairshare refresh retries exhausted; serving stale table";
    return;  // stale-cache fallback until the next periodic cycle
  }
  retry_task_ = simulator_.schedule_after(backoff_delay(attempt), [this, attempt] {
    ++stats_.refresh_retries;
    obs::bump(metrics_.refresh_retries);
    start_refresh(attempt + 1);
  });
}

double AequusClient::fairshare_factor(const std::string& grid_user) {
  ++stats_.fairshare_lookups;
  obs::bump(metrics_.fairshare_lookups);
  // Served from the published snapshot: same values a snapshot() reader
  // sees, neutral before the first refresh or for unknown users.
  return snapshot_ != nullptr ? snapshot_->factor_for(grid_user) : core::kNeutralFactor;
}

std::optional<std::string> AequusClient::resolve_identity(const std::string& system_user) {
  const double now = simulator_.now();
  const auto it = identity_cache_.find(system_user);
  if (it != identity_cache_.end() && it->second.expires > now) {
    ++stats_.identity_hits;
    obs::bump(metrics_.identity_hits);
    if (tracing()) trace(obs::EventKind::kCacheHit, "identity:" + system_user);
    return it->second.grid_user;
  }
  ++stats_.identity_misses;
  obs::bump(metrics_.identity_misses);
  if (tracing()) trace(obs::EventKind::kCacheMiss, "identity:" + system_user);
  json::Object request;
  request["op"] = "resolve";
  request["system_user"] = system_user;
  request["cluster"] = config_.cluster;
  // The IRS is co-located with the installation; the paper resolves
  // identities synchronously during the fairshare calculation process.
  // A crashed IRS must not take the scheduler down with it: fall back to
  // "unresolvable" and let the caller drop or retry the record.
  json::Value reply;
  try {
    reply = bus_.call(config_.site + ".irs", json::Value(std::move(request)));
  } catch (const std::exception& e) {
    ++stats_.identity_failures;
    obs::bump(metrics_.identity_failures);
    AEQ_DEBUG("libaequus") << config_.site << ": identity lookup failed: " << e.what();
    return std::nullopt;
  }
  if (reply.get_bool("unknown", false)) return std::nullopt;
  const std::string grid_user = reply.get_string("grid_user");
  if (grid_user.empty()) return std::nullopt;
  identity_cache_[system_user] = {grid_user, now + config_.identity_cache_ttl};
  return grid_user;
}

void AequusClient::report_usage(const std::string& grid_user, double usage) {
  if (usage <= 0.0) return;
  ++stats_.usage_reports;
  obs::bump(metrics_.usage_reports);
  obs::SpanContext span;
  if (tracing()) {
    span = obs_.tracer->begin_span(simulator_.now(), config_.site, "client",
                                   "report_usage:" + grid_user);
  }
  obs::SpanScope scope(obs_.tracer, span);
  if (delta_log_ != nullptr) {
    // Batched path: the record joins the site's delta log and ships on
    // cadence; the batch's own span covers the eventual bus send.
    delta_log_->append(grid_user, usage);
  } else {
    json::Object record;
    record["op"] = "report";
    record["user"] = grid_user;
    record["usage"] = usage;
    bus_.send(config_.site, config_.site + ".uss", json::Value(std::move(record)));
  }
  end_client_span(span, {}, usage);
}

bool AequusClient::report_system_usage(const std::string& system_user, double usage) {
  const auto grid_user = resolve_identity(system_user);
  if (!grid_user) {
    AEQ_DEBUG("libaequus") << "unresolvable system user " << system_user
                           << "; usage record dropped";
    return false;
  }
  report_usage(*grid_user, usage);
  return true;
}

}  // namespace aequus::client
