#include "services/pds.hpp"

#include "util/logging.hpp"

namespace aequus::services {

Pds::Pds(sim::Simulator& simulator, net::ServiceBus& bus, std::string site,
         obs::Observability obs)
    : simulator_(simulator),
      bus_(bus),
      site_(std::move(site)),
      address_(site_ + ".pds"),
      telemetry_(obs, simulator, site_, "pds", {"policy"}) {
  bus_.bind(address_, [this](const json::Value& request) { return handle(request); });
}

Pds::~Pds() {
  for (auto& task : refresh_tasks_) task.cancel();
  bus_.unbind(address_);
}

void Pds::set_policy(core::PolicyTree policy) {
  policy_ = std::move(policy);
  ++version_;
}

void Pds::mount_remote(const std::string& path, const std::string& remote_pds_address,
                       double share, double refresh_interval) {
  mounts_.push_back(Mount{path, remote_pds_address, share});
  const Mount mount = mounts_.back();
  refresh_mount(mount);
  refresh_tasks_.push_back(simulator_.schedule_periodic(
      simulator_.now() + refresh_interval, refresh_interval,
      [this, mount] { refresh_mount(mount); }));
}

void Pds::refresh_mount(const Mount& mount) {
  const obs::SpanContext span =
      telemetry_.begin_span("mount_refresh:" + mount.remote_address);
  obs::SpanScope span_scope(telemetry_.tracer(), span);
  json::Object request;
  request["op"] = "policy";
  bus_.request(site_, mount.remote_address, json::Value(std::move(request)),
               [this, mount, span](const json::Value& reply) {
                 try {
                   const core::PolicyTree remote = core::PolicyTree::from_json(reply);
                   policy_.mount(mount.path, remote, mount.share);
                   ++mounts_applied_;
                   ++version_;
                   telemetry_.end_span(span, "complete");
                 } catch (const std::exception& e) {
                   AEQ_WARN("pds") << site_ << ": bad remote policy from "
                                   << mount.remote_address << ": " << e.what();
                   telemetry_.end_span(span, "bad_reply");
                 }
               });
}

const json::Value& Pds::policy_reply() {
  if (policy_reply_.is_null() || policy_reply_version_ != version_) {
    policy_reply_ = json::Value::frozen(policy_.to_json());
    policy_reply_version_ = version_;
  }
  return policy_reply_;
}

json::Value Pds::handle(const json::Value& request) {
  const std::string op = request.get_string("op");
  telemetry_.hit(op);
  if (op == "policy") {
    // Opt-in version short-circuit; the plain reply stays byte-identical.
    if (const auto if_version = request.find("if_version")) {
      const auto version = static_cast<std::uint64_t>(if_version->get().as_number());
      json::Object reply;
      reply["version"] = static_cast<double>(version_);
      if (version == version_) {
        reply["unchanged"] = true;
        return json::Value(std::move(reply));
      }
      json::Value tree = policy_.to_json();
      for (auto& [key, value] : tree.as_object()) reply[key] = value;
      return json::Value(std::move(reply));
    }
    return policy_reply();
  }
  return json::Value(json::Object{{"error", json::Value("unknown op: " + op)}});
}

}  // namespace aequus::services
