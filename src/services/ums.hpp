// Usage Monitoring Service (UMS).
//
// §II-A: "The Usage Monitoring Service (UMS) of each site gathers usage
// histograms from one or more USSs and pre-computes usage trees based on
// the site-specific policies."
//
// Every `update_interval` seconds the UMS polls its configured USS
// addresses (the local one plus peers at remote sites) and the local PDS,
// and stores the latest per-site histograms. From them it builds a usage
// tree: grid users are mapped to policy leaf paths via the site policy
// and bin amounts are weighted by the configured decay function.
//
// Poll work follows change, not poll count:
//  - A histogram reply that is the same frozen object as the last one
//    committed for its source (the USS serves one shared reply until its
//    data changes) is skipped in O(1): the UMS keeps only a weak identity
//    of that reply, so superseded replies are not kept alive. A reply
//    equal to the stored bins is not decoded again either; a changed one
//    is decoded into a local map and swapped in only when the whole reply
//    decoded (decode-then-commit: a malformed reply leaves the source as
//    it was).
//  - A policy reply equal to the last one applied (the PDS serves a
//    shared frozen reply, so this is usually a pointer compare) does not
//    rebuild the leaf-name map.
//  - The request payloads and addresses are built once per instance, and
//    the poll targets once per set_peers(), not once per poll.
//  - Each reply only marks the tree dirty at the current time. The tree
//    is materialized on the next read — usage_tree() or the "usage" op —
//    with decay evaluated at the last reply's time, which gives exactly
//    the tree an eager rebuild after that reply would have. The
//    "<site>.ums.rebuilds" counter and the "rebuild" trace event count
//    these materializations.
//
// Partial participation (§IV-A-4): a site that should only consider local
// usage sets `read_remote = false`; a site that must not contribute keeps
// polling and serving locally, but its data is dropped on the wire by the
// ServiceBus participation flags.
//
// Bus protocol (address "<site>.ums"):
//   {"op":"usage"} -> usage tree JSON ({"<path>": decayed core-seconds})
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/decay.hpp"
#include "core/policy.hpp"
#include "core/usage.hpp"
#include "net/service_bus.hpp"
#include "services/telemetry.hpp"
#include "sim/simulator.hpp"

namespace aequus::services {

struct UmsConfig {
  double update_interval = 30.0;  ///< USS polling / tree rebuild period [s]
  core::DecayConfig decay{};      ///< historical usage decay
  bool read_remote = true;        ///< consider remote sites' usage
};

class Ums {
 public:
  Ums(sim::Simulator& simulator, net::ServiceBus& bus, std::string site, UmsConfig config = {},
      obs::Observability obs = {});
  ~Ums();
  Ums(const Ums&) = delete;
  Ums& operator=(const Ums&) = delete;

  /// USS addresses to poll. The local "<site>.uss" is always polled;
  /// remote peers are polled only when `read_remote` is set.
  void set_peers(std::vector<std::string> uss_addresses);

  /// Current usage tree (decayed, path-keyed), materialized first when a
  /// reply arrived since the last read.
  [[nodiscard]] const core::UsageTree& usage_tree();

  [[nodiscard]] const std::string& address() const noexcept { return address_; }
  [[nodiscard]] std::uint64_t polls_completed() const noexcept { return polls_; }

  /// Force an immediate poll (normally driven by the timer).
  void update_now();

 private:
  using Bins = std::vector<std::pair<double, double>>;
  using UserBins = std::map<std::string, Bins>;
  /// What the UMS holds for one polled USS address.
  struct Source {
    UserBins bins;  ///< user -> (bin time, amount) pairs
    /// The last reply committed to `bins`; a reply that is this same
    /// frozen object is skipped without a look at its contents.
    std::weak_ptr<const json::Frozen> reply;
    std::uint32_t id = 0;  ///< index in source_at_
  };
  using Sources = std::map<std::string, Source>;

  json::Value handle(const json::Value& request);
  void ingest(Source& source, const std::string& address, const json::Value& histograms);
  /// Rebuild targets_ from the local USS, peers_ and read_remote.
  void refresh_targets();
  /// Id of the source for `address`, added on first sight.
  [[nodiscard]] std::uint32_t source_id(const std::string& address);
  /// Rebuild path_of_ from a freshly fetched site policy.
  void set_policy(const core::PolicyTree& policy);
  /// A reply landed: the tree is stale as of now.
  void mark_dirty();
  /// Rebuild tree_ from sources_ and path_of_, decayed at dirty_at_.
  void materialize();
  /// Count one reply of poll cycle `cycle` (the low 32 bits of polls_, so
  /// the reply continuation fits std::function's inline buffer); closes
  /// the cycle's span when the last expected reply (or its
  /// duplicate-filtered first copy) lands.
  void poll_reply_done(std::uint32_t cycle);

  sim::Simulator& simulator_;
  net::ServiceBus& bus_;
  std::string site_;
  std::string address_;
  std::string pds_address_;
  json::Value policy_request_;      ///< frozen {"op":"policy"}
  json::Value histograms_request_;  ///< frozen {"op":"histograms"}
  UmsConfig config_;
  ServiceTelemetry telemetry_;
  obs::Counter* rebuilds_ = nullptr;
  core::Decay decay_;
  std::vector<std::string> peers_;
  /// source USS address -> its bins. Entries are never erased, so the
  /// iterators in source_at_ stay valid, and a reply in flight across a
  /// set_peers() still lands on its own source.
  Sources sources_;
  std::vector<Sources::iterator> source_at_;  ///< source id -> entry
  /// Ids of the sources polled each cycle: the local USS first, then the
  /// remote peers when read_remote is set.
  std::vector<std::uint32_t> targets_;
  /// Grid user (leaf name) -> policy leaf path, rebuilt when a policy
  /// reply differs from policy_reply_; empty until the first policy.
  std::map<std::string, std::string> path_of_;
  json::Value policy_reply_;  ///< last policy reply applied to path_of_
  core::UsageTree tree_;
  bool dirty_ = false;     ///< a reply landed since tree_ was materialized
  double dirty_at_ = 0.0;  ///< time of that reply: the decay evaluation time
  std::uint64_t polls_ = 0;
  sim::EventHandle poll_task_;
  /// Span of the in-flight poll cycle; closed "complete" when all replies
  /// landed, or "superseded" when the next cycle starts first (lost
  /// replies then surface as the cycle's open rpc children).
  obs::SpanContext poll_span_;
  std::size_t poll_pending_ = 0;
};

}  // namespace aequus::services
