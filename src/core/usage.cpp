#include "core/usage.hpp"

#include <cmath>
#include <stdexcept>

#include "core/policy.hpp"

namespace aequus::core {

namespace {
/// Canonicalize a path: "/a//b/" -> "/a/b".
std::string canonical(const std::string& path) {
  return join_path(split_path(path));
}

/// True when `path` equals `prefix` or lies inside it.
bool in_subtree(const std::string& path, const std::string& prefix) {
  if (prefix == "/") return true;
  if (path == prefix) return true;
  return path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0 &&
         path[prefix.size()] == '/';
}
}  // namespace

void UsageTree::add(const std::string& path, double amount) {
  // NaN/inf would poison subtree sums (and NaN even slips past the
  // negative check), so reject both alongside negatives.
  if (!std::isfinite(amount) || amount < 0.0) {
    throw std::invalid_argument("UsageTree::add: amount must be finite and >= 0");
  }
  if (amount == 0.0) return;
  if (is_canonical_path(path)) {
    leaves_[path] += amount;
  } else {
    leaves_[canonical(path)] += amount;
  }
}

void UsageTree::merge(const UsageTree& other) {
  for (const auto& [path, amount] : other.leaves_) leaves_[path] += amount;
}

void UsageTree::scale(double factor) {
  if (factor < 0.0) throw std::invalid_argument("UsageTree::scale: negative factor");
  for (auto& [path, amount] : leaves_) {
    (void)path;
    amount *= factor;
  }
}

double UsageTree::usage(const std::string& path) const {
  const std::string prefix = canonical(path);
  double total = 0.0;
  for (const auto& [leaf, amount] : leaves_) {
    if (in_subtree(leaf, prefix)) total += amount;
  }
  return total;
}

double UsageTree::normalized_usage(const std::string& path) const {
  const auto segments = split_path(path);
  if (segments.empty()) return leaves_.empty() ? 0.0 : 1.0;
  auto parent_segments = segments;
  parent_segments.pop_back();
  const double own = usage(path);
  const double parent = usage(join_path(parent_segments));
  if (parent <= 0.0) return 0.0;
  return own / parent;
}

double UsageTree::total() const {
  double sum = 0.0;
  for (const auto& [path, amount] : leaves_) {
    (void)path;
    sum += amount;
  }
  return sum;
}

json::Value UsageTree::to_json() const {
  json::Object obj;
  for (const auto& [path, amount] : leaves_) obj[path] = amount;
  return json::Value(std::move(obj));
}

UsageTree UsageTree::from_json(const json::Value& value) {
  UsageTree tree;
  for (const auto& [path, amount] : value.as_object()) {
    tree.add(path, amount.as_number());
  }
  return tree;
}

}  // namespace aequus::core
