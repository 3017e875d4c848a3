// Fairshare Calculation Service (FCS).
//
// §II-A: "The Fairshare Calculation Service (FCS) fetches usage trees from
// the UMS and policy trees from the PDS periodically, and pre-calculates
// fairshare trees with the current fairshare values for all users. This
// way, no real-time calculations need to take place when new jobs arrive,
// as pre-calculated values already exist."
//
// The FCS holds the configured FairshareAlgorithm (distance weight k,
// vector resolution) and projection; queries are served from the latest
// pre-computed table.
//
// §III-C: "The approach to use is configurable and can be changed during
// run-time" — reconfigure() swaps the projection and/or algorithm live
// and takes effect on the immediate recalculation.
//
// Bus protocol (address "<site>.fcs"):
//   {"op":"fairshare", "user":<grid id>} -> {"value":f, "vector":"...."}
//   {"op":"table"} -> {"users": {"<user>": value, ...}}
//       served as one frozen reply, rebuilt in republish() when the
//       factors change, so a poll of an unchanged table copies a pointer
//   {"op":"table", "if_generation":g} -> {"generation":g, "unchanged":true}
//       when nothing changed since generation g, else
//       {"generation":g', "users":{...}} (opt-in extension; the plain
//       "table" reply stays byte-identical for existing clients)
//   {"op":"snapshot", "tree":bool} -> generation-stamped snapshot JSON
//   {"op":"tree"}  -> full fairshare tree JSON
//   {"op":"configure", "projection":{...}, "algorithm":{...}} -> {"ok":true}
//   {"op":"report_batch", ...}  -> {"ok":true, "applied":k, "generation":g}
//       push-mode ingestion seam (DESIGN.md §6g): a delta-log batch is
//       committed as ONE engine transaction — N apply_usage() calls,
//       one snapshot publish — idempotently per (source, seq). Push and
//       poll modes are alternatives: a UMS usage poll reply replaces the
//       usage state wholesale (set_usage drops binned deltas), so
//       deployments feed an FCS batches *or* poll cycles, not both.
//
// Since the incremental-engine rework the FCS no longer recomputes the
// whole tree per update: it feeds the fetched policy/usage trees into a
// core::FairnessBackend (the arena FairshareEngine by default, selected
// by FcsConfig::backend from the string-keyed factory — DESIGN.md §6j),
// which recomputes what the mutation can have changed and publishes an
// immutable generation-stamped FairshareSnapshot. Projection and table
// rebuilds are skipped entirely when the generation did not move.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/backend.hpp"
#include "core/fairshare.hpp"
#include "core/projection.hpp"
#include "core/snapshot.hpp"
#include "ingest/apply.hpp"
#include "net/service_bus.hpp"
#include "services/telemetry.hpp"
#include "sim/simulator.hpp"

namespace aequus::services {

struct FcsConfig {
  double update_interval = 30.0;          ///< pre-calculation period [s]
  core::FairshareConfig algorithm{};      ///< distance weight k, resolution
  core::ProjectionConfig projection{};    ///< projection for scalar factors
  core::FairnessBackendConfig backend{};  ///< fairness policy selection
};

class Fcs {
 public:
  Fcs(sim::Simulator& simulator, net::ServiceBus& bus, std::string site, FcsConfig config = {},
      obs::Observability obs = {});
  ~Fcs();
  Fcs(const Fcs&) = delete;
  Fcs& operator=(const Fcs&) = delete;

  /// Latest published snapshot (annotated tree + projected factors);
  /// null until the first calculation completes. Immutable: safe to hand
  /// to plugins and sweep workers.
  [[nodiscard]] core::FairshareSnapshotPtr snapshot() const noexcept { return snapshot_; }

  /// Generation of the latest snapshot (0 before the first calculation).
  [[nodiscard]] std::uint64_t generation() const noexcept { return backend_->generation(); }

  /// Latest projected per-user factors (policy leaf path -> [0, 1]).
  [[nodiscard]] const std::map<std::string, double>& table() const noexcept { return table_; }

  /// Projected factor for a grid user (leaf name); 0.5 (balance) when the
  /// user is unknown or no calculation has completed yet.
  [[nodiscard]] double factor_for(const std::string& grid_user) const;

  [[nodiscard]] const std::string& address() const noexcept { return address_; }
  [[nodiscard]] std::uint64_t calculations() const noexcept { return calculations_; }
  [[nodiscard]] const FcsConfig& config() const noexcept { return config_; }

  /// The fairness policy computing this site's priorities.
  [[nodiscard]] const core::FairnessBackend& backend() const noexcept { return *backend_; }

  /// Force an immediate fetch + recalculation.
  void update_now();

  /// Run-time reconfiguration: swap the projection and recompute from the
  /// already-fetched state.
  void set_projection(core::ProjectionConfig projection);

  /// Run-time reconfiguration of the distance algorithm (k, resolution).
  void set_algorithm(core::FairshareConfig algorithm);

  /// Push-mode ingestion: commit one delta-log batch as a single engine
  /// transaction and republish the projected table. Returns false for
  /// duplicate (source, seq) deliveries. Users are mapped to policy leaf
  /// paths (falling back to "/<user>" before a policy is known).
  bool ingest_batch(const ingest::DeltaBatch& batch);

  [[nodiscard]] const ingest::EngineSinkStats& ingest_stats() const noexcept {
    return ingest_sink_->stats();
  }

 private:
  json::Value handle(const json::Value& request);
  void recalculate();
  /// Project + publish from a freshly published engine snapshot (shared
  /// by the poll-driven recalculate() and the push-driven batch commit).
  void republish(const core::FairshareSnapshotPtr& base);
  /// {"<user>": factor, ...} from user_table_.
  [[nodiscard]] json::Value users_json() const;
  /// Refreeze the plain "table" reply from user_table_.
  void rebuild_table_reply();
  /// Rebuild the grid-user -> policy-leaf-path map the ingest seam
  /// resolves through (called whenever a changed policy lands).
  void refresh_ingest_paths();
  /// Count one reply of update cycle `cycle`; closes the cycle's span when
  /// both the policy and usage replies have landed.
  void update_reply_done(std::uint64_t cycle);

  sim::Simulator& simulator_;
  net::ServiceBus& bus_;
  std::string site_;
  std::string address_;
  std::string pds_address_;
  std::string ums_address_;
  json::Value policy_request_;  ///< frozen {"op":"policy"}
  json::Value usage_request_;   ///< frozen {"op":"usage"}
  FcsConfig config_;
  ServiceTelemetry telemetry_;
  obs::Counter* recalculations_ = nullptr;
  std::unique_ptr<core::FairnessBackend> backend_;  ///< never null
  core::PolicyTree policy_;
  json::Value policy_reply_;  ///< the policy reply policy_ was decoded from
  core::UsageTree usage_;
  bool have_policy_ = false;
  bool have_usage_ = false;  ///< a UMS poll reply landed (enables wholesale set_usage)
  bool reproject_ = false;  ///< projection changed: factors stale even at same generation
  core::FairshareSnapshotPtr snapshot_;        ///< latest tree + factors
  std::map<std::string, double> table_;        ///< leaf path -> factor
  std::map<std::string, double> user_table_;   ///< leaf name -> factor
  json::Value table_reply_;  ///< frozen {"users": user_table_}
  std::map<std::string, std::string> ingest_paths_;  ///< user -> policy leaf path
  std::unique_ptr<ingest::EngineSink> ingest_sink_;  ///< idempotent batch commits
  std::uint64_t calculations_ = 0;
  sim::EventHandle update_task_;
  /// Span of the in-flight update cycle; closed "complete" when both
  /// replies landed, or "superseded" when the next cycle starts first.
  obs::SpanContext update_span_;
  std::uint64_t update_cycles_ = 0;
  std::size_t update_pending_ = 0;
};

}  // namespace aequus::services
