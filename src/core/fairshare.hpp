// The fairshare calculation algorithm (§II-A and [10]).
//
// For every tree node with sibling-normalized policy share p and
// sibling-normalized (decayed) usage share u, the fairshare distance is a
// weighted combination of two metrics:
//
//   absolute distance  d_abs = p - u                      (range [-1, p])
//   relative distance  d_rel = clamp((p - u) / p, -1, 1)  (1 when idle)
//   distance           d     = k * d_rel + (1 - k) * d_abs
//
// with configurable weight k, default 0.5 ("a default weight of 0.5
// indicating that the absolute and relative components have equal
// weight"). A user below its share gets d > 0, an over-consumer d < 0,
// and perfect balance gives d = 0 — the balance point of the vector
// encoding. With k = 0.5 the maximum distance of a user with share s is
// 0.5 * (1 + s), reproducing the paper's §IV-A-5 check (0.56 for s=0.12).
//
// FairshareEngine::compute_once() walks policy and usage trees together
// and produces a FairshareTree holding per-node distances, from which
// per-user fairshare vectors are extracted (§III-C) and projections
// computed; the incremental engine maintains the same annotation
// statefully.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "core/usage.hpp"
#include "core/vector.hpp"
#include "json/decode.hpp"

namespace aequus::core {

/// The neutral priority factor (the percental balance point): a user at
/// perfect policy/usage balance projects here. This is also the documented
/// resolution for *missing* leaves — a user absent from a factor table
/// (churned in between snapshot generations, unresolvable identity, no
/// data yet) must read as kNeutralFactor, never as a default-constructed
/// 0.0 that would zero the job's whole priority.
inline constexpr double kNeutralFactor = 0.5;

struct FairshareConfig {
  double distance_weight_k = 0.5;       ///< weight of the relative component
  int resolution = kDefaultResolution;  ///< vector element range
};

/// Config wire format: {"k": 0.5, "resolution": 10000}.
[[nodiscard]] json::Value to_json(const FairshareConfig& config);

/// Result of the fairshare calculation: the policy tree annotated with
/// normalized shares, normalized usage, and per-node distances.
class FairshareTree {
 public:
  struct Node {
    std::string name;
    double policy_share = 0.0;  ///< normalized among siblings
    double usage_share = 0.0;   ///< normalized among siblings
    double distance = 0.0;      ///< the per-node fairshare value
    std::vector<Node> children;

    [[nodiscard]] const Node* find_child(const std::string& child_name) const;
    [[nodiscard]] bool leaf() const noexcept { return children.empty(); }
  };

  [[nodiscard]] const Node& root() const noexcept { return root_; }
  [[nodiscard]] const Node* find(const std::string& path) const;

  /// Per-level distances from root to `path`, padded to the tree depth
  /// with the balance point. Nullopt for unknown paths.
  [[nodiscard]] std::optional<FairshareVector> vector_for(const std::string& path) const;

  /// Leaf (user) paths, depth-first.
  [[nodiscard]] std::vector<std::string> user_paths() const;

  /// Maximum levels below the root.
  [[nodiscard]] int depth() const;

  [[nodiscard]] int resolution() const noexcept { return resolution_; }

  /// Wire format used by the FCS when serving pre-calculated trees.
  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static FairshareTree from_json(const json::Value& value);

 private:
  friend class FairshareAlgorithm;
  friend class FairshareSnapshot;  // FairshareSnapshot::to_tree()
  Node root_;
  int resolution_ = kDefaultResolution;
};

/// The parameterized algorithm; stateless apart from its configuration.
class FairshareAlgorithm {
 public:
  FairshareAlgorithm() = default;
  explicit FairshareAlgorithm(FairshareConfig config);

  [[nodiscard]] const FairshareConfig& config() const noexcept { return config_; }

  /// Distance for a single node given normalized shares.
  [[nodiscard]] double node_distance(double policy_share, double usage_share) const noexcept;

  // The legacy batch compute() wrapper is gone: one-shot annotations go
  // through FairshareEngine::compute_once(config, policy, usage), and
  // schedulers read published snapshots via rms::PriorityContext.

 private:
  FairshareConfig config_{};
};

}  // namespace aequus::core

/// json::decode<core::FairshareConfig> support.
template <>
struct aequus::json::Decoder<aequus::core::FairshareConfig> {
  [[nodiscard]] static aequus::core::FairshareConfig decode(const Value& value);
};
