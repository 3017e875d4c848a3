// Policy Distribution Service (PDS).
//
// §II-A: "The Policy Distribution Service (PDS) is responsible for
// managing user policies both locally and globally by mounting
// sub-policies from other sources (which may be other PDS services)."
//
// A local administration sets the root policy; globally managed
// sub-policies can be mounted at a path and are refreshed periodically
// from the remote PDS, so a site can delegate, e.g., the subdivision of
// its grid allocation while retaining control of the coarse split.
//
// Bus protocol (address "<site>.pds"):
//   {"op":"policy"} -> policy tree JSON
//   {"op":"policy", "if_version":v} -> {"version":v, "unchanged":true}
//       when the policy has not changed since version v, else the policy
//       tree JSON with a "version" field added (opt-in extension; the
//       plain "policy" reply stays byte-identical)
//
// The plain "policy" reply is a frozen json::Value (json.hpp) stamped with
// the policy version it was built at; set_policy() and every applied
// remote mount bump the version, and the next plain request rebuilds it.
// Polls in between share one immutable reply.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "net/service_bus.hpp"
#include "services/telemetry.hpp"
#include "sim/simulator.hpp"

namespace aequus::services {

class Pds {
 public:
  Pds(sim::Simulator& simulator, net::ServiceBus& bus, std::string site,
      obs::Observability obs = {});
  ~Pds();
  Pds(const Pds&) = delete;
  Pds& operator=(const Pds&) = delete;

  /// Replace the locally administered policy. Mounted subtrees are
  /// re-applied on their next refresh.
  void set_policy(core::PolicyTree policy);

  /// Mount the policy served by `remote_pds_address` under `path` with
  /// `share` weight, refreshing every `refresh_interval` seconds. The
  /// first fetch is issued immediately.
  void mount_remote(const std::string& path, const std::string& remote_pds_address,
                    double share, double refresh_interval = 300.0);

  [[nodiscard]] const core::PolicyTree& policy() const noexcept { return policy_; }
  [[nodiscard]] const std::string& address() const noexcept { return address_; }

  /// Number of successful remote mounts applied so far.
  [[nodiscard]] int mounts_applied() const noexcept { return mounts_applied_; }

  /// Monotonic policy version; bumped by set_policy() and every applied
  /// remote mount. Lets pollers (and the FCS) skip unchanged fetches.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

 private:
  struct Mount {
    std::string path;
    std::string remote_address;
    double share;
  };

  json::Value handle(const json::Value& request);
  void refresh_mount(const Mount& mount);
  /// The frozen plain policy reply, rebuilt when the version moved.
  const json::Value& policy_reply();

  sim::Simulator& simulator_;
  net::ServiceBus& bus_;
  std::string site_;
  std::string address_;
  ServiceTelemetry telemetry_;
  core::PolicyTree policy_;
  std::vector<Mount> mounts_;
  std::vector<sim::EventHandle> refresh_tasks_;
  int mounts_applied_ = 0;
  std::uint64_t version_ = 0;
  json::Value policy_reply_;               ///< frozen policy_.to_json(); null until built
  std::uint64_t policy_reply_version_ = 0;  ///< version_ policy_reply_ was built at
};

}  // namespace aequus::services
