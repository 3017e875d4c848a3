#include "services/ums.hpp"

#include "util/logging.hpp"

namespace aequus::services {

Ums::Ums(sim::Simulator& simulator, net::ServiceBus& bus, std::string site, UmsConfig config,
         obs::Observability obs)
    : simulator_(simulator),
      bus_(bus),
      site_(std::move(site)),
      address_(site_ + ".ums"),
      pds_address_(site_ + ".pds"),
      policy_request_(json::Value::frozen(json::Object{{"op", json::Value("policy")}})),
      histograms_request_(json::Value::frozen(json::Object{{"op", json::Value("histograms")}})),
      config_(config),
      telemetry_(obs, simulator, site_, "ums", {"usage"}),
      rebuilds_(telemetry_.counter("rebuilds")),
      decay_(config.decay) {
  refresh_targets();
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
  refresh_targets();
}

void Ums::refresh_targets() {
  // Poll the local USS plus (optionally) remote peers.
  targets_.clear();
  const std::string local = site_ + ".uss";
  targets_.push_back(source_id(local));
  if (!config_.read_remote) return;
  for (const auto& peer : peers_) {
    if (peer != local) targets_.push_back(source_id(peer));
  }
}

std::uint32_t Ums::source_id(const std::string& address) {
  const auto [it, added] = sources_.try_emplace(address);
  if (added) {
    it->second.id = static_cast<std::uint32_t>(source_at_.size());
    source_at_.push_back(it);
  }
  return it->second.id;
}

void Ums::poll_reply_done(std::uint32_t cycle) {
  // superseded (or duplicate)
  if (cycle != static_cast<std::uint32_t>(polls_) || poll_pending_ == 0) return;
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
  const auto cycle = static_cast<std::uint32_t>(polls_);
  poll_pending_ = 1 + targets_.size();  // policy reply + one per target

  // Refresh the site policy (user -> leaf path mapping).
  bus_.request(site_, pds_address_, policy_request_,
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

  for (const std::uint32_t id : targets_) {
    bus_.request(site_, source_at_[id]->first, histograms_request_,
                 [this, cycle, id](const json::Value& reply) {
                   ingest(source_at_[id]->second, source_at_[id]->first, reply);
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

void Ums::ingest(Source& source, const std::string& address, const json::Value& histograms) {
  if (histograms.same_frozen(source.reply)) return;
  try {
    const json::Value& users = histograms.at("users");
    if (!same_bins(users, source.bins)) {
      UserBins decoded;
      for (const auto& [user, bins] : users.as_object()) {
        Bins& entries = decoded[user];
        for (const auto& bin : bins.as_array()) {
          entries.emplace_back(bin.at(0).as_number(), bin.at(1).as_number());
        }
      }
      source.bins = std::move(decoded);
    }
    source.reply = histograms.frozen_identity();
  } catch (const std::exception& e) {
    AEQ_WARN("ums") << site_ << ": bad histogram reply from " << address << ": " << e.what();
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
  for (const auto& [address, source] : sources_) {
    (void)address;
    for (const auto& [user, bins] : source.bins) {
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
