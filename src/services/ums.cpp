#include "services/ums.hpp"

#include "util/logging.hpp"

namespace aequus::services {

Ums::Ums(sim::Simulator& simulator, net::ServiceBus& bus, std::string site, UmsConfig config,
         obs::Observability obs)
    : simulator_(simulator),
      bus_(bus),
      site_(std::move(site)),
      address_(site_ + ".ums"),
      config_(config),
      telemetry_(obs, simulator, site_, "ums", {"usage"}),
      rebuilds_(telemetry_.counter("rebuilds")),
      decay_(config.decay) {
  bus_.bind(address_, [this](const json::Value& request) { return handle(request); });
  poll_task_ = simulator_.schedule_periodic(config_.update_interval, config_.update_interval,
                                            [this] { update_now(); });
}

Ums::~Ums() {
  poll_task_.cancel();
  bus_.unbind(address_);
}

void Ums::set_peers(std::vector<std::string> uss_addresses) {
  peers_ = std::move(uss_addresses);
}

void Ums::poll_reply_done(std::uint64_t cycle) {
  if (cycle != polls_ || poll_pending_ == 0) return;  // superseded (or duplicate)
  if (--poll_pending_ == 0) {
    telemetry_.end_span(poll_span_, "complete");
    poll_span_ = obs::SpanContext{};
  }
}

void Ums::update_now() {
  ++polls_;
  if (poll_span_.valid()) {
    telemetry_.end_span(poll_span_, "superseded");
  }
  poll_span_ = telemetry_.begin_span("update");
  obs::SpanScope span_scope(telemetry_.tracer(), poll_span_);
  const std::uint64_t cycle = polls_;

  // Poll the local USS plus (optionally) remote peers.
  std::vector<std::string> targets = {site_ + ".uss"};
  if (config_.read_remote) {
    for (const auto& peer : peers_) {
      if (peer != targets.front()) targets.push_back(peer);
    }
  }
  poll_pending_ = 1 + targets.size();  // policy reply + one per target

  // Refresh the site policy (user -> leaf path mapping).
  json::Object policy_request;
  policy_request["op"] = "policy";
  bus_.request(site_, site_ + ".pds", json::Value(std::move(policy_request)),
               [this, cycle](const json::Value& reply) {
                 try {
                   if (reply != policy_reply_) {
                     set_policy(core::PolicyTree::from_json(reply));
                     policy_reply_ = reply;
                   }
                   mark_dirty();
                 } catch (const std::exception& e) {
                   AEQ_WARN("ums") << site_ << ": bad policy reply: " << e.what();
                 }
                 poll_reply_done(cycle);
               });

  for (const auto& target : targets) {
    json::Object request;
    request["op"] = "histograms";
    bus_.request(site_, target, json::Value(std::move(request)),
                 [this, cycle, target](const json::Value& reply) {
                   ingest(target, reply);
                   mark_dirty();
                   poll_reply_done(cycle);
                 });
  }
}

namespace {
/// True when decoding `users` would yield exactly `stored`: same users in
/// the same (map) order, and per bin an array whose first two members are
/// numbers equal to the stored pair. Reads only; allocates nothing.
bool same_bins(const json::Value& users,
               const std::map<std::string, std::vector<std::pair<double, double>>>& stored) {
  if (!users.is_object() || users.size() != stored.size()) return false;
  auto it = stored.begin();
  for (const auto& [user, bins] : users.as_object()) {
    if (user != it->first || !bins.is_array() || bins.size() != it->second.size()) return false;
    auto bin_it = it->second.begin();
    for (const auto& bin : bins.as_array()) {
      if (!bin.is_array() || bin.size() < 2) return false;
      const json::Value& time = bin.at(0);
      const json::Value& amount = bin.at(1);
      if (!time.is_number() || !amount.is_number() || time.as_number() != bin_it->first ||
          amount.as_number() != bin_it->second) {
        return false;
      }
      ++bin_it;
    }
    ++it;
  }
  return true;
}
}  // namespace

void Ums::ingest(const std::string& source, const json::Value& histograms) {
  try {
    const json::Value& users = histograms.at("users");
    const auto stored = sources_.find(source);
    if (stored != sources_.end() && same_bins(users, stored->second)) return;
    UserBins decoded;
    for (const auto& [user, bins] : users.as_object()) {
      Bins& entries = decoded[user];
      for (const auto& bin : bins.as_array()) {
        entries.emplace_back(bin.at(0).as_number(), bin.at(1).as_number());
      }
    }
    sources_[source] = std::move(decoded);
  } catch (const std::exception& e) {
    AEQ_WARN("ums") << site_ << ": bad histogram reply from " << source << ": " << e.what();
  }
}

void Ums::set_policy(const core::PolicyTree& policy) {
  path_of_.clear();
  for (const auto& path : policy.leaf_paths()) {
    const auto segments = core::split_path(path);
    if (!segments.empty()) path_of_[segments.back()] = path;
  }
}

void Ums::mark_dirty() {
  dirty_ = true;
  dirty_at_ = simulator_.now();
}

const core::UsageTree& Ums::usage_tree() {
  if (dirty_) materialize();
  return tree_;
}

void Ums::materialize() {
  // Map grid users to policy leaf paths; users missing from the policy are
  // accounted directly under the root.
  core::UsageTree tree;
  for (const auto& [source, per_user] : sources_) {
    (void)source;
    for (const auto& [user, bins] : per_user) {
      const double amount = decay_.decayed_total(bins, dirty_at_);
      if (amount <= 0.0) continue;
      const auto it = path_of_.find(user);
      tree.add(it != path_of_.end() ? it->second : "/" + user, amount);
    }
  }
  tree_ = std::move(tree);
  dirty_ = false;
  bump(rebuilds_);
  telemetry_.trace(obs::EventKind::kUsageUpdateApplied, "rebuild",
                   static_cast<double>(tree_.total()));
}

json::Value Ums::handle(const json::Value& request) {
  const std::string op = request.get_string("op");
  telemetry_.hit(op);
  if (op == "usage") {
    return usage_tree().to_json();
  }
  return json::Value(json::Object{{"error", json::Value("unknown op: " + op)}});
}

}  // namespace aequus::services
