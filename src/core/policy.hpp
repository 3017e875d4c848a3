// Hierarchical, tree-based usage policies (§II-A).
//
// A policy tree defines the target usage share of every user, project, or
// VO. Shares are raw weights relative to siblings; the normalized share of
// a node is its weight divided by the sum of its siblings' weights.
// Sub-policies can be *mounted* into a locally administered root: "globally
// managed sub-policies can be dynamically mounted into a locally
// administered root node", letting a site hand, say, 30 % of its resources
// to a grid whose internal subdivision is managed elsewhere.
//
// Paths are '/'-separated, e.g. "/grid/projA/alice"; leaves are users.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"

namespace aequus::core {

/// Policy tree with named nodes and sibling-relative share weights.
class PolicyTree {
 public:
  struct Node {
    std::string name;
    double share = 1.0;          ///< raw weight relative to siblings
    bool mounted = false;        ///< root of a mounted sub-policy
    std::vector<Node> children;

    [[nodiscard]] const Node* find_child(const std::string& child_name) const;
    [[nodiscard]] Node* find_child(const std::string& child_name);
    [[nodiscard]] bool leaf() const noexcept { return children.empty(); }
  };

  PolicyTree();

  /// Set (or create) the node at `path` with the given share weight.
  /// Intermediate nodes are created with weight 1. Throws on empty path.
  void set_share(const std::string& path, double share);

  /// Remove the subtree at `path`. No-op when absent; root not removable.
  void remove(const std::string& path);

  /// Mount `sub_policy`'s children under a (new or existing) node at
  /// `path` carrying `share` weight among its siblings. Replaces any
  /// previous subtree at that path and marks the node as mounted.
  void mount(const std::string& path, const PolicyTree& sub_policy, double share);

  [[nodiscard]] const Node& root() const noexcept { return root_; }
  [[nodiscard]] const Node* find(const std::string& path) const;
  [[nodiscard]] bool contains(const std::string& path) const { return find(path) != nullptr; }

  /// Share of the node at `path` normalized among its siblings; nullopt
  /// when the path does not exist. The root's normalized share is 1.
  [[nodiscard]] std::optional<double> normalized_share(const std::string& path) const;

  /// All leaf paths (users), depth-first order.
  [[nodiscard]] std::vector<std::string> leaf_paths() const;

  /// Maximum depth in levels below the root (a flat user list is depth 1).
  [[nodiscard]] int depth() const;

  /// Total node count excluding the root.
  [[nodiscard]] std::size_t node_count() const;

  /// Wire format used by the PDS: {"name":..,"share":..,"children":[...]}.
  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static PolicyTree from_json(const json::Value& value);

 private:
  Node root_;
};

/// Split "/a/b/c" into {"a","b","c"}. Empty segments are dropped.
[[nodiscard]] std::vector<std::string> split_path(const std::string& path);

/// Join segments into "/a/b/c".
[[nodiscard]] std::string join_path(const std::vector<std::string>& segments);

/// True exactly when join_path(split_path(path)) == path: a leading '/',
/// no empty segment and no trailing '/' (or the root "/" itself). Lets hot
/// paths skip re-canonicalizing paths that already are canonical.
[[nodiscard]] bool is_canonical_path(std::string_view path) noexcept;

}  // namespace aequus::core
