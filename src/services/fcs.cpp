#include "services/fcs.hpp"

#include "util/logging.hpp"

namespace aequus::services {

Fcs::Fcs(sim::Simulator& simulator, net::ServiceBus& bus, std::string site, FcsConfig config,
         obs::Observability obs)
    : simulator_(simulator),
      bus_(bus),
      site_(std::move(site)),
      address_(site_ + ".fcs"),
      pds_address_(site_ + ".pds"),
      ums_address_(site_ + ".ums"),
      policy_request_(json::Value::frozen(json::Object{{"op", json::Value("policy")}})),
      usage_request_(json::Value::frozen(json::Object{{"op", json::Value("usage")}})),
      config_(config),
      telemetry_(obs, simulator, site_, "fcs",
                 {"fairshare", "table", "tree", "snapshot", "configure", "report_batch"}),
      recalculations_(telemetry_.counter("recalculations")),
      backend_(core::make_fairness_backend(config.backend, config.algorithm)) {
  rebuild_table_reply();
  ingest_sink_ = std::make_unique<ingest::EngineSink>(*backend_, [this](const std::string& user) {
    const auto it = ingest_paths_.find(user);
    return it != ingest_paths_.end() ? it->second : "/" + user;
  });
  bus_.bind(address_, [this](const json::Value& request) { return handle(request); });
  update_task_ = simulator_.schedule_periodic(config_.update_interval, config_.update_interval,
                                              [this] { update_now(); });
}

Fcs::~Fcs() {
  update_task_.cancel();
  bus_.unbind(address_);
}

void Fcs::update_reply_done(std::uint64_t cycle) {
  if (cycle != update_cycles_ || update_pending_ == 0) return;  // superseded (or duplicate)
  if (--update_pending_ == 0) {
    telemetry_.end_span(update_span_, "complete");
    update_span_ = obs::SpanContext{};
  }
}

void Fcs::update_now() {
  ++update_cycles_;
  if (update_span_.valid()) {
    telemetry_.end_span(update_span_, "superseded");
  }
  update_span_ = telemetry_.begin_span("update");
  obs::SpanScope span_scope(telemetry_.tracer(), update_span_);
  const std::uint64_t cycle = update_cycles_;
  update_pending_ = 2;  // policy reply + usage reply

  bus_.request(site_, pds_address_, policy_request_,
               [this, cycle](const json::Value& reply) {
                 try {
                   // The PDS serves a shared frozen reply: an unchanged
                   // policy is a pointer compare, not a decode.
                   if (reply != policy_reply_) {
                     policy_ = core::PolicyTree::from_json(reply);
                     policy_reply_ = reply;
                     refresh_ingest_paths();
                   }
                   have_policy_ = true;
                   recalculate();
                 } catch (const std::exception& e) {
                   AEQ_WARN("fcs") << site_ << ": bad policy reply: " << e.what();
                 }
                 update_reply_done(cycle);
               });
  bus_.request(site_, ums_address_, usage_request_,
               [this, cycle](const json::Value& reply) {
                 try {
                   usage_ = core::UsageTree::from_json(reply);
                   have_usage_ = true;
                   recalculate();
                 } catch (const std::exception& e) {
                   AEQ_WARN("fcs") << site_ << ": bad usage reply: " << e.what();
                 }
                 update_reply_done(cycle);
               });
}

void Fcs::recalculate() {
  if (!have_policy_) return;
  // The engine diffs the fetched trees against its working state and
  // recomputes only dirty paths; an update that changed nothing keeps the
  // generation, and then the projection/table rebuild is skipped too.
  backend_->set_policy(policy_);
  // Wholesale usage replacement drops push-mode binned state, so it only
  // happens once a UMS poll reply has actually landed (poll mode wins).
  // Before that the re-applied default tree would be an empty-vs-empty
  // no-op for poll deployments anyway.
  if (have_usage_) backend_->set_usage(usage_);
  // Time-dependent backends (credit accrual) integrate up to the
  // current simulation time on this publish; aequus ignores it.
  backend_->advance_time(simulator_.now());
  republish(backend_->publish());
}

void Fcs::republish(const core::FairshareSnapshotPtr& base) {
  if (base == nullptr) return;
  if (snapshot_ == nullptr || base->generation() != snapshot_->generation() || reproject_) {
    table_ = backend_->project_factors(*base, config_.projection);
    user_table_.clear();
    for (const auto& [path, value] : table_) {
      const auto segments = core::split_path(path);
      if (!segments.empty()) user_table_[segments.back()] = value;
    }
    snapshot_ = core::FairshareSnapshot::with_factors(base, table_, user_table_);
    reproject_ = false;
    rebuild_table_reply();
  }
  ++calculations_;
  bump(recalculations_);
  telemetry_.trace(obs::EventKind::kUsageUpdateApplied, "recalculate",
                   static_cast<double>(table_.size()));
}

json::Value Fcs::users_json() const {
  json::Object users;
  for (const auto& [user, value] : user_table_) users[user] = value;
  return json::Value(std::move(users));
}

void Fcs::rebuild_table_reply() {
  table_reply_ = json::Value::frozen(json::Object{{"users", users_json()}});
}

void Fcs::refresh_ingest_paths() {
  ingest_paths_.clear();
  for (const auto& path : policy_.leaf_paths()) {
    const auto segments = core::split_path(path);
    if (!segments.empty()) ingest_paths_[segments.back()] = path;
  }
}

bool Fcs::ingest_batch(const ingest::DeltaBatch& batch) {
  backend_->advance_time(simulator_.now());
  const core::FairshareSnapshotPtr snap = ingest_sink_->commit(batch);
  if (snap == nullptr) return false;  // duplicate delivery
  republish(snap);
  return true;
}

void Fcs::set_projection(core::ProjectionConfig projection) {
  config_.projection = projection;
  reproject_ = true;
  recalculate();
}

void Fcs::set_algorithm(core::FairshareConfig algorithm) {
  config_.algorithm = algorithm;
  backend_->set_config(algorithm);  // validates; forces a republish
  recalculate();
}

double Fcs::factor_for(const std::string& grid_user) const {
  const auto it = user_table_.find(grid_user);
  return it != user_table_.end() ? it->second : core::kNeutralFactor;
}

json::Value Fcs::handle(const json::Value& request) {
  const std::string op = request.get_string("op");
  telemetry_.hit(op);
  if (op == "fairshare") {
    const std::string user = request.get_string("user");
    json::Object reply;
    reply["value"] = factor_for(user);
    if (snapshot_ != nullptr) {
      // Attach the vector when the user exists in the tree.
      for (const auto& path : snapshot_->user_paths()) {
        const auto segments = core::split_path(path);
        if (!segments.empty() && segments.back() == user) {
          if (const auto vector = snapshot_->vector_for(path)) {
            reply["vector"] = vector->to_string();
          }
          break;
        }
      }
    }
    return json::Value(std::move(reply));
  }
  if (op == "table") {
    // Opt-in generation short-circuit; the plain reply stays exactly
    // {"users":{...}} so existing clients see byte-identical traffic.
    if (const auto if_generation = request.find("if_generation")) {
      const auto generation = static_cast<std::uint64_t>(if_generation->get().as_number());
      json::Object reply;
      reply["generation"] = static_cast<double>(backend_->generation());
      if (snapshot_ != nullptr && generation == snapshot_->generation()) {
        reply["unchanged"] = true;
        return json::Value(std::move(reply));
      }
      reply["users"] = users_json();
      return json::Value(std::move(reply));
    }
    return table_reply_;
  }
  if (op == "snapshot") {
    if (snapshot_ == nullptr) return core::FairshareSnapshot{}.to_json(false);
    return snapshot_->to_json(request.get_bool("tree", false));
  }
  if (op == "tree") {
    // Byte-compatible with the pre-engine reply, including the
    // default-constructed tree served before the first calculation.
    if (snapshot_ == nullptr) return core::FairshareTree{}.to_json();
    return snapshot_->tree_to_json();
  }
  if (op == ingest::kBatchOp) {
    try {
      const ingest::DeltaBatch batch = ingest::DeltaBatch::from_json(request);
      json::Object reply;
      reply["ok"] = true;
      if (ingest_batch(batch)) {
        reply["applied"] = static_cast<double>(batch.deltas.size());
      } else {
        reply["duplicate"] = true;
      }
      reply["generation"] = static_cast<double>(backend_->generation());
      return json::Value(std::move(reply));
    } catch (const std::exception& e) {
      AEQ_WARN("fcs") << site_ << ": malformed batch envelope: " << e.what();
      return json::Value(json::Object{{"error", json::Value(std::string(e.what()))}});
    }
  }
  if (op == "configure") {
    try {
      if (const auto projection = request.find("projection")) {
        set_projection(json::decode<core::ProjectionConfig>(projection->get()));
      }
      if (const auto algorithm = request.find("algorithm")) {
        set_algorithm(json::decode<core::FairshareConfig>(algorithm->get()));
      }
      return json::Value(json::Object{{"ok", json::Value(true)}});
    } catch (const std::exception& e) {
      return json::Value(json::Object{{"error", json::Value(std::string(e.what()))}});
    }
  }
  return json::Value(json::Object{{"error", json::Value("unknown op: " + op)}});
}

}  // namespace aequus::services
