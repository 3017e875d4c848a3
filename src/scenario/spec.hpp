// Declarative scenario DSL: JSON specs for whole testbed experiments.
//
// A scenario spec is data, not C++: it names a base workload (the paper's
// generators), then composes the situational modifiers one-off bench
// programs could never cover exhaustively — bursty phase schedules
// (serving-style arrival spikes), user-mix churn (users joining/leaving
// mid-run), site outage windows and link faults (lowered to a
// net::FaultPlan), and federated cross-site offloading. The compiler in
// compile.hpp lowers a spec into a ready-to-run testbed::SweepSpec with
// invariant gates attached.
//
// Every time field in a spec is a *fraction of the scenario duration* in
// [0, 1], not seconds: specs stay valid when a run is scaled (fig11's
// x10 variant) or compressed for CI, and out-of-range values are decode
// errors, not silent truncation.
//
// Decoding is strict: unknown keys, wrong types, and out-of-range values
// all fail with a one-line error naming the JSON path
// ("$.phases[2].rate: expected a number"), so a typo in a catalog file
// is a test failure with an address, not a silently-defaulted knob.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "json/decode.hpp"
#include "json/json.hpp"

namespace aequus::scenario {

/// Decode failure: one line, "<json path>: <what went wrong>".
struct SpecError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Base workload selection: which paper generator seeds the trace.
struct WorkloadSpec {
  std::string base = "baseline";  ///< baseline | nonoptimal-policy | bursty
  std::size_t jobs = 43200;
  std::uint64_t seed = 2012;
  /// Cluster-count / host overrides; 0 keeps the generator default
  /// (6 x 40). Overriding rescales job durations by the capacity ratio so
  /// the target load carried by the trace is preserved.
  int clusters = 0;
  int hosts_per_cluster = 0;
};

/// One segment of a piecewise-constant arrival-intensity schedule.
/// Arrivals of the base trace are remapped through the inverse cumulative
/// intensity, concentrating submissions into high-rate windows (bursty
/// serving-style arrivals). Gaps between declared phases keep rate 1.
struct PhaseSpec {
  double start = 0.0;  ///< fraction of the run
  double end = 0.0;    ///< fraction of the run, > start
  double rate = 1.0;   ///< relative intensity, >= 0 (0 = silent window)
};

/// Membership window of one user: submissions outside [join, leave) are
/// dropped from the trace (the user is not present). The user stays in
/// the policy tree throughout, like any provisioned-but-idle identity.
struct ChurnSpec {
  std::string user;
  double join = 0.0;
  double leave = 1.0;
};

/// One scheduled site outage, lowered into FaultPlan::outages.
struct OutageSpec {
  std::string site;
  double start = 0.0;
  double end = 0.0;
};

/// Per-link loss override, lowered into FaultPlan::link_loss.
struct LinkLossSpec {
  std::string from;
  std::string to;
  double rate = 0.0;
};

/// Network fault schedule in DSL units (outage times as run fractions).
struct FaultSpec {
  double loss_rate = 0.0;
  double duplicate_rate = 0.0;
  double latency_jitter = 0.0;  ///< seconds (a latency, not a time point)
  std::uint64_t seed = 0x10ad;
  std::vector<LinkLossSpec> link_loss;
  std::vector<OutageSpec> outages;

  [[nodiscard]] bool lossless() const noexcept {
    return loss_rate == 0.0 && duplicate_rate == 0.0 && latency_jitter == 0.0 &&
           link_loss.empty() && outages.empty();
  }
};

/// Cross-site offload window (federated offloading between
/// installations), lowered into ExperimentConfig::offloads.
struct OffloadSpec {
  int from_site = -1;  ///< -1 = any dispatch-chosen site
  int to_site = 0;
  double fraction = 0.0;
  double start = 0.0;
  double end = 1.0;
};

/// One sweep variant: the base scenario with a time scale and an
/// experiment-config overlay (deep-merged over the spec's "experiment"
/// object). fig11's x10 cell is `{"name": "x10", "scale": 10,
/// "experiment": {"sample_interval": 600}}`.
struct VariantSpec {
  std::string name;
  double scale = 1.0;
  json::Value experiment;  ///< object merged over the base experiment
};

/// Sweep shape: replications per variant and the root seed feeding the
/// per-task splitmix seed stream.
struct SweepSettings {
  std::size_t replications = 1;
  std::uint64_t root_seed = 2014;
  double convergence_epsilon = 0.05;
};

/// Which pass/fail gates a catalog run attaches to this scenario.
struct GateSpec {
  bool invariants = true;     ///< per-tick InvariantChecker
  bool reconvergence = true;  ///< post-run replicated-view agreement
  /// "auto" enables exact final conservation only for lossless fault
  /// specs (loss and duplication legitimately break the exact equality);
  /// "on"/"off" force it.
  std::string conservation = "auto";
  bool determinism = true;  ///< re-run at another thread count, compare fingerprints
  double convergence_tolerance = 0.02;
};

/// Flight-recorder request: capture the scenario's bus traffic into an
/// envelope log (src/replay). Recording happens on the sweep's task 0
/// (first variant, first replication) — one canonical log per scenario,
/// with the footer fingerprint computed by an in-process replay so
/// `bus_replay replay` can check record→replay bit-identity offline.
struct RecordSpec {
  bool enabled = false;
  /// Log file path; empty derives "<scenario-name>.aeqlog" (resolved
  /// against the runner's --record directory).
  std::string path;
  std::size_t cap = 0;            ///< recorder ring cap; 0 = unbounded
  std::string format = "binary";  ///< binary | jsonl
};

/// A complete declarative scenario.
struct ScenarioSpec {
  std::string name;
  std::string description;
  WorkloadSpec workload;
  /// Optional policy-target override (user -> share); empty keeps the
  /// generator's targets.
  std::map<std::string, double> policy_shares;
  std::vector<PhaseSpec> phases;
  std::vector<ChurnSpec> churn;
  std::vector<OffloadSpec> offloads;
  FaultSpec faults;
  /// Fairness backend selection ("fairness" key; DESIGN.md §6j): a bare
  /// name ("balanced") or an object with per-policy tuning. Lowered into
  /// every variant's experiment as fairshare.backend, below the
  /// experiment/variant overlays — so a variant overlay setting
  /// fairshare.backend (the faceoff pattern) wins.
  core::FairnessBackendConfig fairness{};
  /// Raw ExperimentConfig object (testbed/config.hpp keys); decoded per
  /// variant after the variant overlay is merged in.
  json::Value experiment;
  /// Empty = one implicit variant at scale 1 with no overlay.
  std::vector<VariantSpec> variants;
  SweepSettings sweep;
  GateSpec gates;
  RecordSpec record;
};

/// Parse a spec from its JSON form. Throws SpecError with the offending
/// JSON path on unknown keys, wrong types, and out-of-range values.
[[nodiscard]] ScenarioSpec parse_spec(const json::Value& value);

/// Parse a spec from JSON text (convenience for files and tests).
[[nodiscard]] ScenarioSpec parse_spec_text(const std::string& text);

/// Recursive object merge: `overlay` wins on scalar/array conflicts,
/// objects merge key-by-key. Non-object operands: overlay replaces base
/// (null overlay keeps base).
[[nodiscard]] json::Value deep_merge(const json::Value& base, const json::Value& overlay);

}  // namespace aequus::scenario

/// json::decode<scenario::ScenarioSpec> support.
template <>
struct aequus::json::Decoder<aequus::scenario::ScenarioSpec> {
  [[nodiscard]] static aequus::scenario::ScenarioSpec decode(const Value& value) {
    return aequus::scenario::parse_spec(value);
  }
};
