// The multi-cluster experiment runner (§IV-A).
//
// Reproduces the paper's testbed: N clusters of virtual hosts, each with
// its own Aequus installation and RM, a submission host that parses the
// input workload and dispatches jobs to the clusters (stochastic or
// round-robin — "evaluated without any noticeable difference"), and a
// unified name-resolution endpoint co-hosted on the submission host.
//
// During the run the experiment samples, at a fixed interval:
//   - per-user cumulative usage share (the figures' "usage share");
//   - per-user global fairshare priority, as seen by the first site's FCS;
//   - optionally the per-site priority of every user (partial
//     participation analysis).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ingest/batcher.hpp"
#include "net/service_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "testbed/metrics.hpp"
#include "testbed/site.hpp"
#include "util/rng.hpp"
#include "util/timeseries.hpp"
#include "workload/scenarios.hpp"

namespace aequus::testbed {

enum class DispatchPolicy { kStochastic, kRoundRobin };

/// Federated cross-site offloading (Pacholczyk-style): while the
/// simulated time is in [start, end), a job the dispatch policy assigned
/// to `from_site` is redirected to `to_site` with probability `fraction`.
/// Rules are evaluated in order; the first matching rule that fires wins.
/// The redirect draw only happens for a matching rule, so configurations
/// without offload rules keep the legacy dispatch rng stream
/// byte-identical.
struct OffloadRule {
  int from_site = -1;  ///< dispatch-chosen site index; -1 matches any site
  int to_site = 0;
  double fraction = 0.0;  ///< redirect probability per matching job
  double start = 0.0;
  double end = std::numeric_limits<double>::infinity();
};

struct ExperimentConfig {
  DispatchPolicy dispatch = DispatchPolicy::kStochastic;
  SiteTimings timings{};
  SiteFairshare fairshare{};
  double bus_remote_latency = 0.1;   ///< inter-site hop [s] (delay I)
  double sample_interval = 60.0;     ///< measurement cadence [s]
  /// Balance-band half-width for the "experiment.convergence_time_s"
  /// gauge (must match the sweep's epsilon for identical values).
  double convergence_epsilon = 0.05;
  std::uint64_t seed = 7;
  bool record_per_site = false;      ///< per-site priority series
  /// Per-site overrides keyed by site index (participation, RM kind).
  std::map<int, SiteSpec> site_overrides;
  /// Extra simulated time after the last submission (drain phase).
  double drain_seconds = 1800.0;
  /// Deterministic fault-injection schedule installed on the bus before
  /// the run (loss, duplication, jitter, site outage windows).
  net::FaultPlan faults{};
  /// Cross-site offload windows applied after dispatch site selection.
  std::vector<OffloadRule> offloads;
  /// Batched usage ingestion for every site's client (DESIGN.md §6g).
  /// Off by default: reports stay per-RPC, byte-identical to the legacy
  /// path. The delta-log bin width is overridden per site with the USS
  /// histogram width.
  ingest::IngestConfig usage_batching{};
};

struct ExperimentResult {
  util::SeriesSet usage_shares;   ///< per user: cumulative usage share
  util::SeriesSet priorities;     ///< per user: global fairshare factor
  util::SeriesSet per_site;       ///< "site/user" series when enabled
  util::SeriesSet utilization;    ///< "total": fraction of cores busy
  /// Per-user scheduler-level priorities of jobs at their start time (the
  /// values the RM actually sorted by; includes non-fairshare factors).
  util::SeriesSet start_priorities;
  /// Per-user queue wait of each job, recorded at its start time.
  util::SeriesSet waits;
  std::map<std::string, double> final_usage_share;
  double mean_utilization = 0.0;
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  double makespan = 0.0;
  SubmissionRates rates;
  net::BusStats bus;
  /// Full metrics snapshot of the experiment's registry (bus, services,
  /// clients, RMs, plus the "experiment.*" headline metrics).
  obs::Snapshot obs;
  /// Trace events, non-empty only when the tracer was enabled pre-run.
  std::vector<obs::TraceEvent> trace;

  /// Convergence of priorities to the balance point 0.5, judged over
  /// [0, until] (pass the scenario duration to exclude the drain tail).
  [[nodiscard]] double priority_convergence_time(
      double epsilon = 0.05,
      double until = std::numeric_limits<double>::infinity()) const;
};

/// Build-and-run harness. One Experiment instance runs one scenario.
class Experiment {
 public:
  Experiment(const workload::Scenario& scenario, ExperimentConfig config = {});

  /// Run to completion (all jobs drained) and collect measurements.
  [[nodiscard]] ExperimentResult run();

  /// Access sites after construction (pre-run customization in tests).
  [[nodiscard]] std::vector<std::unique_ptr<ClusterSite>>& sites() noexcept { return sites_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] net::ServiceBus& bus() noexcept { return bus_; }
  /// The experiment-wide metrics registry every component records into.
  [[nodiscard]] obs::Registry& registry() noexcept { return registry_; }
  /// Shared tracer; disabled by default — enable() before run() to collect.
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const workload::Scenario& scenario() const noexcept { return scenario_; }
  [[nodiscard]] const ExperimentConfig& config() const noexcept { return config_; }

  /// Live progress counters, valid during and after run() (used by
  /// invariant checkers hooked into the sampling tick).
  [[nodiscard]] std::uint64_t completed_jobs() const noexcept { return completed_jobs_; }
  [[nodiscard]] double total_completed_usage() const noexcept { return total_completed_usage_; }
  [[nodiscard]] const std::map<std::string, double>& completed_usage() const noexcept {
    return completed_usage_;
  }

  /// Register a callback invoked at every sampling tick (after the
  /// built-in measurements), with the current simulated time. Must be
  /// called before run().
  void add_tick_hook(std::function<void(double)> hook) {
    tick_hooks_.push_back(std::move(hook));
  }

 private:
  void install_policy();
  void bind_name_resolver();
  /// First matching offload rule may redirect the dispatched site index.
  [[nodiscard]] std::size_t apply_offloads(std::size_t index, double now);
  void schedule_submissions();
  void schedule_sampling(ExperimentResult& result);

  const workload::Scenario& scenario_;
  ExperimentConfig config_;
  sim::Simulator simulator_;
  // Registry and tracer outlive the bus and sites (declared first so they
  // destruct last): components hold raw metric handles until teardown.
  obs::Registry registry_;
  obs::Tracer tracer_;
  net::ServiceBus bus_;
  std::vector<std::unique_ptr<ClusterSite>> sites_;
  util::Rng rng_;
  /// Registered unconditionally (keeps the snapshot key set uniform
  /// across offloaded and offload-free tasks of one sweep).
  obs::Counter* offload_counter_ = nullptr;
  std::size_t round_robin_next_ = 0;
  std::map<std::string, double> completed_usage_;  ///< grid user -> core-s
  double total_completed_usage_ = 0.0;
  std::uint64_t completed_jobs_ = 0;
  std::vector<sim::EventHandle> tasks_;
  /// Set where run() cancels tasks_: trace submissions still queued then
  /// fire as no-ops (they are posted without handles).
  bool submissions_closed_ = false;
  std::vector<std::function<void(double)>> tick_hooks_;
};

}  // namespace aequus::testbed
