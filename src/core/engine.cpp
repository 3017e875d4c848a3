#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace aequus::core {

FairshareEngine::FairshareEngine(FairshareConfig config, DecayConfig decay)
    : algorithm_(config), decay_(decay) {}

void FairshareEngine::set_policy(const PolicyTree& policy) {
  structure_changed_ = false;
  sync_policy(kRootNode, policy.root());
  // A structural change (membership/order) may move a leaf's deepest
  // policy ancestor, so the memoized attach nodes must be recomputed.
  // Pure share-weight edits keep the memo valid.
  if (structure_changed_) ++structure_epoch_;
  depth_ = policy.depth();
}

bool FairshareEngine::sync_policy(NodeId node, const PolicyTree::Node& policy_node) {
  // Fast path: same children, same order. Only share weights can differ.
  const std::uint32_t count = nodes_.child_count(node);
  bool same_structure = count == policy_node.children.size();
  if (same_structure) {
    const NodeId* kids = nodes_.children_begin(node);
    for (std::uint32_t i = 0; i < count; ++i) {
      if (nodes_.names[nodes_.name[kids[i]]] != policy_node.children[i].name) {
        same_structure = false;
        break;
      }
    }
  }
  bool group_changed = false;
  if (!same_structure) {
    // Rebuild the child span, stealing matching nodes by interned name so
    // their annotations and cached sums survive reorders and unrelated
    // edits. Unclaimed old subtrees are recycled.
    structure_changed_ = true;
    std::vector<NodeId> old(nodes_.children_begin(node), nodes_.children_begin(node) + count);
    std::vector<NodeId> next;
    next.reserve(policy_node.children.size());
    for (const auto& policy_child : policy_node.children) {
      const std::uint32_t name_id = nodes_.names.intern(policy_child.name);
      NodeId child = kNoIndex;
      for (NodeId& candidate : old) {
        if (candidate != kNoIndex && nodes_.name[candidate] == name_id) {
          child = candidate;
          candidate = kNoIndex;
          break;
        }
      }
      if (child == kNoIndex) child = nodes_.create(node, name_id);
      next.push_back(child);
    }
    for (const NodeId candidate : old) {
      if (candidate != kNoIndex) nodes_.release_subtree(candidate);
    }
    nodes_.set_children(node, next);
    group_changed = true;
  }
  {
    const NodeId* kids = nodes_.children_begin(node);
    const std::uint32_t n = nodes_.child_count(node);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (nodes_.raw_share[kids[i]] != policy_node.children[i].share) {
        nodes_.raw_share[kids[i]] = policy_node.children[i].share;
        group_changed = true;
      }
    }
  }
  if (group_changed) nodes_.flags[node] |= NodeArena::kChildrenDirty;
  bool any = group_changed;
  // Recursion can rebuild deeper spans (reallocating the slot vector), so
  // iterate over a copy of this group's ids.
  const std::vector<NodeId> children(nodes_.children_begin(node),
                                     nodes_.children_begin(node) + nodes_.child_count(node));
  for (std::uint32_t i = 0; i < children.size(); ++i) {
    any |= sync_policy(children[i], policy_node.children[i]);
  }
  if (any) nodes_.flags[node] |= NodeArena::kNeedsVisit;
  return any;
}

LeafId FairshareEngine::leaf_for(const std::string& user_path) {
  // The fast path skips the two temporary allocations of split/join for
  // the common case of already-canonical wire paths.
  if (is_canonical_path(user_path)) return leaves_.intern(user_path);
  return leaves_.intern(join_path(split_path(user_path)));
}

NodeId FairshareEngine::attach_node(LeafId leaf) {
  if (leaves_.attach_epoch[leaf] == structure_epoch_) return leaves_.attach[leaf];
  // Walk the canonical path's segments down the policy tree; the deepest
  // match is where the leaf's dirty path tops out. Unlisted leaves attach
  // to the root (they only contribute to whole-tree sums).
  const std::string& path = leaves_.path(leaf);
  NodeId node = kRootNode;
  std::size_t start = 1;  // skip the leading '/'
  while (start < path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    const std::string_view segment(path.data() + start, end - start);
    const std::uint32_t name_id = nodes_.names.find(segment);
    const NodeId child =
        name_id == IdTable::kNoId ? kNoIndex : nodes_.find_child(node, name_id);
    if (child == kNoIndex) break;
    node = child;
    start = end + 1;
  }
  leaves_.attach[leaf] = node;
  leaves_.attach_epoch[leaf] = structure_epoch_;
  return node;
}

void FairshareEngine::mark_leaf_dirty(LeafId leaf) {
  // Upward walk from the attach node: equivalent to the old downward
  // segment walk — needs_visit on the whole matched chain plus the root,
  // children_dirty on every ancestor group, sum_stale on every matched
  // node below the root.
  nodes_.flags[kRootNode] |= NodeArena::kNeedsVisit;
  for (NodeId node = attach_node(leaf); node != kRootNode; node = nodes_.parent[node]) {
    nodes_.flags[node] |= NodeArena::kSumStale | NodeArena::kNeedsVisit;
    nodes_.flags[nodes_.parent[node]] |= NodeArena::kChildrenDirty;
  }
}

void FairshareEngine::set_leaf_value(LeafId leaf, double value) {
  if (value > 0.0) {
    if (leaves_.active(leaf)) {
      if (leaves_.value(leaf) == value) return;
      leaves_.set_value(leaf, value);
    } else {
      leaves_.activate(leaf, value);
    }
  } else {
    // Mirror UsageTree semantics: zero usage means "not present".
    if (!leaves_.active(leaf)) return;
    leaves_.deactivate(leaf);
  }
  mark_leaf_dirty(leaf);
}

void FairshareEngine::apply_usage(const std::string& user_path, double amount,
                                  double bin_time) {
  if (!std::isfinite(amount) || amount < 0.0) {
    throw std::invalid_argument("FairshareEngine::apply_usage: bad amount");
  }
  if (amount == 0.0) return;
  const LeafId leaf = leaf_for(user_path);
  auto& bins = leaves_.bins[leaf];
  bins.emplace_back(bin_time, amount);
  leaves_.bin_value[leaf] = decay_.decayed_total(bins, epoch_);
  leaves_.bin_epoch[leaf] = epoch_;
  leaves_.bin_cached[leaf] = 1;
  set_leaf_value(leaf, leaves_.bin_value[leaf]);
}

void FairshareEngine::set_usage(const UsageTree& decayed) {
  // Wholesale replace retires the binned accounting.
  for (LeafId leaf = 0; leaf < leaves_.slot_count(); ++leaf) {
    leaves_.bins[leaf].clear();
    leaves_.bin_cached[leaf] = 0;
  }
  // Diff the active set (path-sorted) against the incoming leaves (a
  // path-sorted map): removed and added leaves dirty their paths, kept
  // leaves dirty only on a bitwise value change. The active set ends up
  // mirroring `next` verbatim — including any non-positive values it
  // carries, exactly like the old map assignment did.
  const auto& next = decayed.leaves();
  const std::vector<LeafId> old_active = leaves_.order();
  auto it = old_active.begin();
  auto jt = next.begin();
  while (it != old_active.end() || jt != next.end()) {
    if (jt == next.end() || (it != old_active.end() && leaves_.path(*it) < jt->first)) {
      const LeafId leaf = *it;  // removed
      leaves_.deactivate(leaf);
      mark_leaf_dirty(leaf);
      ++it;
    } else if (it == old_active.end() || jt->first < leaves_.path(*it)) {
      const LeafId leaf = leaves_.intern(jt->first);  // added
      leaves_.activate(leaf, jt->second);
      mark_leaf_dirty(leaf);
      ++jt;
    } else {
      const LeafId leaf = *it;
      if (leaves_.value(leaf) != jt->second) {
        leaves_.set_value(leaf, jt->second);
        mark_leaf_dirty(leaf);
      }
      ++it;
      ++jt;
    }
  }
}

void FairshareEngine::set_decay_epoch(double now) {
  epoch_ = now;
  for (LeafId leaf = 0; leaf < leaves_.slot_count(); ++leaf) {
    if (leaves_.bins[leaf].empty()) continue;  // not binned (or retired by set_usage)
    if (leaves_.bin_cached[leaf] != 0 && leaves_.bin_epoch[leaf] == now) continue;  // memo hit
    const double value = decay_.decayed_total(leaves_.bins[leaf], now);
    leaves_.bin_epoch[leaf] = now;
    leaves_.bin_cached[leaf] = 1;
    leaves_.bin_value[leaf] = value;
    set_leaf_value(leaf, value);  // no-op (nothing dirtied) when bit-identical
  }
}

void FairshareEngine::set_decay(DecayConfig decay) {
  decay_ = Decay(decay);
  for (LeafId leaf = 0; leaf < leaves_.slot_count(); ++leaf) leaves_.bin_cached[leaf] = 0;
  set_decay_epoch(epoch_);
}

void FairshareEngine::set_config(FairshareConfig config) {
  algorithm_ = FairshareAlgorithm(config);  // validates k and resolution
  nodes_.mark_all_groups_dirty();
  force_republish_ = true;
}

void FairshareEngine::refresh(NodeId node) {
  const NodeId* kids = nodes_.children_begin(node);
  const std::uint32_t count = nodes_.child_count(node);
  if ((nodes_.flags[node] & NodeArena::kChildrenDirty) != 0) {
    double share_total = 0.0;
    for (std::uint32_t i = 0; i < count; ++i) {
      share_total += std::max(nodes_.raw_share[kids[i]], 0.0);
    }
    double usage_total = 0.0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const NodeId child = kids[i];
      if ((nodes_.flags[child] & NodeArena::kSumStale) != 0) {
        nodes_.subtree_usage[child] = leaves_.subtree_sum(nodes_.path[child]);
        nodes_.flags[child] &= static_cast<std::uint8_t>(~NodeArena::kSumStale);
      }
      usage_total += nodes_.subtree_usage[child];
    }
    annotate_group(node, share_total, usage_total);
    nodes_.flags[node] &= static_cast<std::uint8_t>(~NodeArena::kChildrenDirty);
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const NodeId child = kids[i];
    if ((nodes_.flags[child] & (NodeArena::kNeedsVisit | NodeArena::kChildrenDirty)) != 0) {
      refresh(child);
    }
  }
}

void FairshareEngine::annotate_group(NodeId node, double share_total, double usage_total) {
  const NodeId* kids = nodes_.children_begin(node);
  const std::uint32_t count = nodes_.child_count(node);
  for (std::uint32_t i = 0; i < count; ++i) {
    const NodeId child = kids[i];
    const double policy_share =
        share_total > 0.0 ? std::max(nodes_.raw_share[child], 0.0) / share_total : 0.0;
    const double usage_share =
        usage_total > 0.0 ? nodes_.subtree_usage[child] / usage_total : 0.0;
    const double distance = algorithm_.node_distance(policy_share, usage_share);
    if (policy_share != nodes_.policy_share[child] ||
        usage_share != nodes_.usage_share[child] || distance != nodes_.distance[child]) {
      nodes_.policy_share[child] = policy_share;
      nodes_.usage_share[child] = usage_share;
      nodes_.distance[child] = distance;
      nodes_.flags[child] |= NodeArena::kValueChanged;
    }
  }
}

bool FairshareEngine::publish_node(NodeId node) {
  const NodeId* kids = nodes_.children_begin(node);
  const std::uint32_t count = nodes_.child_count(node);
  bool child_republished = false;
  for (std::uint32_t i = 0; i < count; ++i) {
    const NodeId child = kids[i];
    if ((nodes_.flags[child] & (NodeArena::kNeedsVisit | NodeArena::kValueChanged)) != 0 ||
        nodes_.published[child] == nullptr) {
      child_republished |= publish_node(child);
    }
  }
  nodes_.flags[node] &= static_cast<std::uint8_t>(~NodeArena::kNeedsVisit);
  const bool rebuild = (nodes_.flags[node] & NodeArena::kValueChanged) != 0 ||
                       nodes_.published[node] == nullptr || child_republished;
  nodes_.flags[node] &= static_cast<std::uint8_t>(~NodeArena::kValueChanged);
  if (!rebuild) return false;
  auto snapshot_node = std::make_shared<FairshareSnapshot::Node>();
  snapshot_node->name = nodes_.names[nodes_.name[node]];
  snapshot_node->policy_share = nodes_.policy_share[node];
  snapshot_node->usage_share = nodes_.usage_share[node];
  snapshot_node->distance = nodes_.distance[node];
  snapshot_node->children.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    snapshot_node->children.push_back(nodes_.published[kids[i]]);
  }
  nodes_.published[node] = std::move(snapshot_node);
  return true;
}

FairshareSnapshotPtr FairshareEngine::snapshot() {
  // The root's published values are fixed by definition, except the
  // usage flag that mirrors the batch path's `usage.empty()` check.
  const double root_usage = leaves_.active_count() == 0 ? 0.0 : 1.0;
  if (nodes_.policy_share[kRootNode] != 1.0 ||
      nodes_.usage_share[kRootNode] != root_usage || nodes_.distance[kRootNode] != 0.0) {
    nodes_.policy_share[kRootNode] = 1.0;
    nodes_.usage_share[kRootNode] = root_usage;
    nodes_.distance[kRootNode] = 0.0;
    nodes_.flags[kRootNode] |= NodeArena::kValueChanged;
  }
  const bool dirty =
      (nodes_.flags[kRootNode] & (NodeArena::kNeedsVisit | NodeArena::kChildrenDirty |
                                  NodeArena::kValueChanged)) != 0 ||
      force_republish_;
  if (dirty || current() == nullptr) {
    refresh(kRootNode);
    const bool changed = publish_node(kRootNode);
    if (changed || force_republish_ || current() == nullptr) {
      ++generation_;
      auto next = std::make_shared<const FairshareSnapshot>(
          nodes_.published[kRootNode], generation_, algorithm_.config().resolution, depth_);
      const std::lock_guard<std::mutex> guard(publish_mutex_);
      published_ = std::move(next);
    }
    force_republish_ = false;
  }
  return current();
}

FairshareTree FairshareEngine::compute_once(const FairshareConfig& config,
                                            const PolicyTree& policy, const UsageTree& usage) {
  FairshareEngine engine(config);
  engine.set_policy(policy);
  engine.set_usage(usage);
  return engine.snapshot()->to_tree();
}

}  // namespace aequus::core
