// Projections of fairshare vectors to scalar priority factors (§III-C,
// Table I).
//
// SLURM and Maui combine priority factors linearly, each factor being a
// value in [0, 1]. The fairshare vector must therefore be projected down
// to one float, and no projection can preserve all vector properties:
//
//   Dictionary Ordering - vectors sorted descending (lexicographically on
//       the encoded elements); rank r of n maps to (n - r) / (n + 1),
//       e.g. three vectors give 0.75, 0.50, 0.25. Keeps depth, precision,
//       and isolation; loses proportionality.
//   Bitwise Vector - each level contributes N bits, merged most
//       significant first into a double and rescaled to [0, 1]. Keeps
//       isolation and proportionality within its finite depth/precision.
//   Percental - the user's total target share (product of policy shares
//       along the path) minus the total usage share (product of usage
//       shares), rescaled from [-1, 1] to [0, 1]. Keeps depth, precision,
//       and proportionality; loses subgroup isolation. This is the
//       approach used in production and all testbed experiments, and is
//       similar to SLURM's pre-2.5 fairshare.
#pragma once

#include <map>
#include <string>

#include "core/fairshare.hpp"
#include "core/snapshot.hpp"

namespace aequus::core {

enum class ProjectionKind { kDictionaryOrdering, kBitwiseVector, kPercental };

[[nodiscard]] std::string to_string(ProjectionKind kind);

/// Inverse of to_string; throws std::invalid_argument on unknown names.
[[nodiscard]] ProjectionKind projection_kind_from_string(const std::string& name);

struct ProjectionConfig {
  ProjectionKind kind = ProjectionKind::kPercental;
  int bits_per_level = 8;  ///< bitwise vector: entropy per hierarchy level
};

/// Config wire format: {"kind": "percental", "bits_per_level": 8}.
[[nodiscard]] json::Value to_json(const ProjectionConfig& config);

/// Project every user (leaf) of `tree` to a priority factor in [0, 1].
[[nodiscard]] std::map<std::string, double> project(const FairshareTree& tree,
                                                    const ProjectionConfig& config = {});

/// Same projection over an engine-published snapshot; identical factors
/// for an identical annotated tree (both overloads share one
/// implementation).
[[nodiscard]] std::map<std::string, double> project(const FairshareSnapshot& snapshot,
                                                    const ProjectionConfig& config = {});

/// Percental projection for a single user path (the other projections are
/// inherently whole-population operations). Returns 0.5 at perfect
/// balance; nullopt-free: unknown paths map to the balance point.
[[nodiscard]] double percental_value(const FairshareTree& tree, const std::string& path);
[[nodiscard]] double percental_value(const FairshareSnapshot& snapshot, const std::string& path);

}  // namespace aequus::core

/// json::decode<core::ProjectionConfig> support.
template <>
struct aequus::json::Decoder<aequus::core::ProjectionConfig> {
  [[nodiscard]] static aequus::core::ProjectionConfig decode(const Value& value);
};
