#include "core/policy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/strings.hpp"

namespace aequus::core {

std::vector<std::string> split_path(const std::string& path) {
  return util::split_nonempty(path, '/');
}

std::string join_path(const std::vector<std::string>& segments) {
  return "/" + util::join(segments, "/");
}

bool is_canonical_path(std::string_view path) noexcept {
  if (path == "/") return true;
  return !path.empty() && path.front() == '/' && path.back() != '/' &&
         path.find("//") == std::string_view::npos;
}

const PolicyTree::Node* PolicyTree::Node::find_child(const std::string& child_name) const {
  for (const auto& child : children) {
    if (child.name == child_name) return &child;
  }
  return nullptr;
}

PolicyTree::Node* PolicyTree::Node::find_child(const std::string& child_name) {
  for (auto& child : children) {
    if (child.name == child_name) return &child;
  }
  return nullptr;
}

PolicyTree::PolicyTree() {
  root_.name = "/";
  root_.share = 1.0;
}

void PolicyTree::set_share(const std::string& path, double share) {
  if (!std::isfinite(share)) {
    throw std::invalid_argument("PolicyTree::set_share: share must be finite");
  }
  const auto segments = split_path(path);
  if (segments.empty()) throw std::invalid_argument("PolicyTree::set_share: empty path");
  Node* node = &root_;
  for (const auto& segment : segments) {
    Node* child = node->find_child(segment);
    if (child == nullptr) {
      node->children.push_back(Node{segment, 1.0, false, {}});
      child = &node->children.back();
    }
    node = child;
  }
  node->share = share;
}

void PolicyTree::remove(const std::string& path) {
  const auto segments = split_path(path);
  if (segments.empty()) return;
  Node* node = &root_;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    node = node->find_child(segments[i]);
    if (node == nullptr) return;
  }
  auto& children = node->children;
  children.erase(std::remove_if(children.begin(), children.end(),
                                [&](const Node& c) { return c.name == segments.back(); }),
                 children.end());
}

void PolicyTree::mount(const std::string& path, const PolicyTree& sub_policy, double share) {
  set_share(path, share);
  const auto segments = split_path(path);
  Node* node = &root_;
  for (const auto& segment : segments) node = node->find_child(segment);
  node->children = sub_policy.root().children;
  node->mounted = true;
}

const PolicyTree::Node* PolicyTree::find(const std::string& path) const {
  const auto segments = split_path(path);
  const Node* node = &root_;
  for (const auto& segment : segments) {
    node = node->find_child(segment);
    if (node == nullptr) return nullptr;
  }
  return node;
}

std::optional<double> PolicyTree::normalized_share(const std::string& path) const {
  const auto segments = split_path(path);
  if (segments.empty()) return 1.0;
  const Node* parent = &root_;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    parent = parent->find_child(segments[i]);
    if (parent == nullptr) return std::nullopt;
  }
  const Node* node = parent->find_child(segments.back());
  if (node == nullptr) return std::nullopt;
  double sibling_total = 0.0;
  for (const auto& sibling : parent->children) sibling_total += std::max(sibling.share, 0.0);
  if (sibling_total <= 0.0) return 0.0;
  return std::max(node->share, 0.0) / sibling_total;
}

namespace {
void collect_leaves(const PolicyTree::Node& node, std::vector<std::string>& prefix,
                    std::vector<std::string>& out) {
  if (node.leaf()) {
    out.push_back(join_path(prefix));
    return;
  }
  for (const auto& child : node.children) {
    prefix.push_back(child.name);
    collect_leaves(child, prefix, out);
    prefix.pop_back();
  }
}

int node_depth(const PolicyTree::Node& node) {
  int deepest = 0;
  for (const auto& child : node.children) deepest = std::max(deepest, 1 + node_depth(child));
  return deepest;
}

std::size_t count_nodes(const PolicyTree::Node& node) {
  std::size_t total = node.children.size();
  for (const auto& child : node.children) total += count_nodes(child);
  return total;
}

json::Value node_to_json(const PolicyTree::Node& node) {
  json::Object obj;
  obj["name"] = node.name;
  obj["share"] = node.share;
  if (node.mounted) obj["mounted"] = true;
  if (!node.children.empty()) {
    json::Array children;
    for (const auto& child : node.children) children.push_back(node_to_json(child));
    obj["children"] = std::move(children);
  }
  return json::Value(std::move(obj));
}

PolicyTree::Node node_from_json(const json::Value& value) {
  PolicyTree::Node node;
  node.name = value.get_string("name");
  node.share = value.get_number("share", 1.0);
  node.mounted = value.get_bool("mounted", false);
  if (const auto children = value.find("children")) {
    for (const auto& child : children->get().as_array()) {
      node.children.push_back(node_from_json(child));
    }
  }
  return node;
}
}  // namespace

std::vector<std::string> PolicyTree::leaf_paths() const {
  std::vector<std::string> out;
  std::vector<std::string> prefix;
  if (root_.leaf()) return out;  // empty tree has no users
  collect_leaves(root_, prefix, out);
  return out;
}

int PolicyTree::depth() const {
  return node_depth(root_);
}

std::size_t PolicyTree::node_count() const {
  return count_nodes(root_);
}

json::Value PolicyTree::to_json() const {
  return node_to_json(root_);
}

PolicyTree PolicyTree::from_json(const json::Value& value) {
  PolicyTree tree;
  PolicyTree::Node root = node_from_json(value);
  root.name = "/";
  tree.root_ = std::move(root);
  return tree;
}

}  // namespace aequus::core
