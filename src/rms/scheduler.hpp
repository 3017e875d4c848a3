// Base scheduling engine shared by the SLURM- and Maui-flavoured RMs.
//
// The engine owns the pending queue and the cluster, and drives the loop
// on the simulator:
//   - on submit and on completion it runs a scheduling pass;
//   - every `reprioritize_interval` seconds it recomputes priorities of
//     all pending jobs (delay source IV of §IV-A-2: "local resource
//     manager re-prioritization interval") and runs a pass;
//   - a pass starts pending jobs in descending priority order while the
//     cluster can place them (first-fit; no backfill past a blocked job
//     unless `backfill` is enabled).
//
// The pending queue is incremental (DESIGN.md §6l): jobs sit in stable
// slots, and a sorted index of small dispatch keys (priority desc, submit
// time asc, id asc, then the rank the job held in the previous order)
// puts the next job to start at its back. A submit binary-searches its
// key into place, a pass walks from the back and stops once no pending
// request fits in the free cores, and only a reprioritization sweep
// sorts the index — so each event costs work in proportion to what it
// changed, and the dispatch order is the one a stable sort of the whole
// queue on every pass would give.
//
// Derived classes supply the priority policy (compute_priority) and get
// completion callbacks — the two seams the paper uses for integration
// ("the normal fairshare priority calculation code replaced with a call
// to libaequus"; "a job completion plug-in supplies usage information").
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rms/cluster.hpp"
#include "rms/job.hpp"
#include "sim/simulator.hpp"

namespace aequus::rms {

/// Everything a priority policy may consult for one job. Passed instead
/// of a bare (job, now) pair so new inputs extend the struct rather than
/// every compute_priority signature in the plugin chain. The fairshare
/// snapshot is grabbed once per scheduling pass (not per job), so a whole
/// reprioritization sweep prices against one consistent generation.
struct PriorityContext {
  const Job& job;
  double now = 0.0;
  /// Immutable fairshare state for this pass; null when no provider is
  /// wired or no data has arrived yet (policies fall back to 0.5).
  core::FairshareSnapshotPtr fairshare{};
  std::string site{};  ///< site label of the owning scheduler

  /// Projected fairshare priority of the user leaf `leaf_id` (a grid-user
  /// name or a policy leaf path), read from this pass's pinned snapshot —
  /// or from `fallback` (e.g. a client's cached snapshot) when no
  /// snapshot was pinned. This is THE priority fetch for every scheduler
  /// flavour (SLURM multifactor, Maui patches, rms policies): the
  /// missing-leaf convention is applied in exactly one place — an absent
  /// snapshot or an unknown leaf reads core::kNeutralFactor, never a
  /// priority-zeroing 0.0.
  [[nodiscard]] double priority_of(const std::string& leaf_id,
                                   const core::FairshareSnapshotPtr& fallback = {}) const {
    const core::FairshareSnapshotPtr& snap = fairshare != nullptr ? fairshare : fallback;
    return snap != nullptr ? snap->factor_for(leaf_id) : core::kNeutralFactor;
  }
};

struct SchedulerConfig {
  double reprioritize_interval = 30.0;  ///< seconds between priority sweeps
  bool backfill = true;                 ///< let smaller jobs jump a blocked head
};

struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  double total_wait_time = 0.0;  ///< sum of queue wait of started jobs
};

/// Abstract priority-scheduling RM on a simulated cluster.
class SchedulerBase {
 public:
  using CompletionListener = std::function<void(const Job&)>;
  using FairshareProvider = std::function<core::FairshareSnapshotPtr()>;

  SchedulerBase(sim::Simulator& simulator, Cluster cluster, SchedulerConfig config = {});
  virtual ~SchedulerBase() = default;
  SchedulerBase(const SchedulerBase&) = delete;
  SchedulerBase& operator=(const SchedulerBase&) = delete;

  /// Enqueue a job; assigns an id when the job has none. Returns the id.
  JobId submit(Job job);

  /// Register a completion callback (e.g. the Aequus jobcomp plugin).
  void add_completion_listener(CompletionListener listener);

  /// Source of fairshare snapshots for PriorityContext (e.g. the Aequus
  /// client's snapshot()). Called once per scheduling pass.
  void set_fairshare_provider(FairshareProvider provider);

  /// Route scheduler counters ("rm.<site>.*"), the queue-wait histogram,
  /// and per-decision trace events into an experiment registry/tracer.
  /// `site` labels the metrics (the cluster's site name).
  void attach_observability(obs::Observability obs, const std::string& site);

  [[nodiscard]] const Cluster& cluster() const noexcept { return cluster_; }
  [[nodiscard]] const SchedulerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t pending_count() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t running_count() const noexcept { return running_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }

  /// Local per-system-user usage accounting (core-seconds of completed
  /// jobs), the data a purely local fairshare policy would use.
  [[nodiscard]] const std::map<std::string, double>& local_usage() const noexcept {
    return local_usage_;
  }

  /// Force a priority recompute + scheduling pass now.
  void reschedule();

 protected:
  /// Priority of a pending job given its context; higher runs first.
  [[nodiscard]] virtual double compute_priority(const PriorityContext& context) = 0;

  /// Hook invoked when a job finishes (before external listeners).
  virtual void on_job_completed(const Job& job) { (void)job; }

 private:
  /// Sort key of one pending job; `slot` names its Job in `slots_`.
  /// `rank` is the final tie-break: a new job ranks after every queued
  /// one, and a sweep renumbers ranks in the order it walks the queue,
  /// so full ties keep their previous relative order (what a stable
  /// sort of the whole queue on every pass would do).
  struct DispatchKey {
    double priority;
    double submit_time;
    JobId id;
    std::uint64_t rank;
    std::uint32_t slot;
  };
  /// True when `a` dispatches after `b`: the index is kept sorted by it,
  /// so the next job to start sits at the back.
  [[nodiscard]] static bool dispatches_after(const DispatchKey& a, const DispatchKey& b) noexcept;

  void schedule_pass();
  void start_job(Job job);
  void finish_job(Job job);
  void ensure_reprioritize_scheduled();
  [[nodiscard]] core::FairshareSnapshotPtr current_fairshare() const;

  sim::Simulator& simulator_;
  Cluster cluster_;
  SchedulerConfig config_;
  obs::Observability obs_;
  std::string obs_site_;
  std::string site_label_;  ///< cluster name until attach_observability names the site
  FairshareProvider fairshare_provider_;
  obs::Counter* submitted_counter_ = nullptr;
  obs::Counter* started_counter_ = nullptr;
  obs::Counter* completed_counter_ = nullptr;
  obs::Histogram* wait_histogram_ = nullptr;
  std::vector<Job> slots_;                ///< pending jobs, addressed by slot
  std::vector<std::uint32_t> free_slots_;  ///< vacated entries of slots_
  std::vector<DispatchKey> index_;        ///< pending keys, next to start last
  std::uint64_t next_rank_ = 0;
  /// Lower bound on the smallest pending core request: a pass stops once
  /// the free cores drop below it. Exact again after a pass that walks
  /// the whole queue.
  int min_pending_cores_ = std::numeric_limits<int>::max();
  std::size_t running_ = 0;
  JobId next_id_ = 1;
  SchedulerStats stats_;
  std::map<std::string, double> local_usage_;
  std::vector<CompletionListener> listeners_;
  bool reprioritize_scheduled_ = false;
  sim::EventHandle reprioritize_handle_;
};

}  // namespace aequus::rms
