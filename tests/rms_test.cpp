#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "rms/scheduler.hpp"
#include "testing/property.hpp"
#include "util/rng.hpp"

namespace aequus::rms {
namespace {

TEST(ClusterModel, CapacityAccounting) {
  Cluster c("test", 4, 2);
  EXPECT_EQ(c.total_cores(), 8);
  EXPECT_EQ(c.free_cores(), 8);
  c.allocate(5, 0.0);
  EXPECT_EQ(c.busy_cores(), 5);
  EXPECT_TRUE(c.can_allocate(3));
  EXPECT_FALSE(c.can_allocate(4));
  c.release(2, 10.0);
  EXPECT_EQ(c.busy_cores(), 3);
}

TEST(ClusterModel, RejectsOverCommitAndOverRelease) {
  Cluster c("test", 1, 2);
  EXPECT_THROW(c.allocate(3, 0.0), std::runtime_error);
  c.allocate(2, 0.0);
  EXPECT_THROW(c.release(3, 1.0), std::runtime_error);
}

TEST(ClusterModel, ValidatesConstruction) {
  EXPECT_THROW(Cluster("x", 0, 1), std::invalid_argument);
  EXPECT_THROW(Cluster("x", 1, -1), std::invalid_argument);
}

TEST(ClusterModel, UtilizationIntegratesBusyCores) {
  Cluster c("test", 1, 4);
  c.allocate(4, 0.0);
  c.release(4, 50.0);
  // 4 cores busy for 50 of 100 seconds = 50% utilization.
  EXPECT_NEAR(c.utilization(100.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(c.busy_core_seconds(), 200.0);
}

TEST(ClusterModel, UtilizationIncludesOngoingAllocation) {
  Cluster c("test", 1, 2);
  c.allocate(2, 0.0);
  EXPECT_NEAR(c.utilization(10.0), 1.0, 1e-12);
}

/// Test scheduler: priority = negative submit order (FIFO) unless a map
/// provides per-user priorities.
class TestScheduler : public SchedulerBase {
 public:
  using SchedulerBase::SchedulerBase;
  std::map<std::string, double> priorities;

 protected:
  double compute_priority(const PriorityContext& context) override {
    const auto it = priorities.find(context.job.system_user);
    return it == priorities.end() ? 0.0 : it->second;
  }
};

Job make_job(const std::string& user, double duration, int cores = 1) {
  Job job;
  job.system_user = user;
  job.duration = duration;
  job.cores = cores;
  return job;
}

TEST(SchedulerModel, RunsJobsToCompletion) {
  sim::Simulator simulator;
  TestScheduler scheduler(simulator, Cluster("c", 2, 1));
  scheduler.submit(make_job("a", 10.0));
  scheduler.submit(make_job("b", 20.0));
  simulator.run_all();
  EXPECT_EQ(scheduler.stats().submitted, 2u);
  EXPECT_EQ(scheduler.stats().completed, 2u);
  EXPECT_EQ(scheduler.pending_count(), 0u);
  EXPECT_EQ(scheduler.running_count(), 0u);
  EXPECT_DOUBLE_EQ(scheduler.local_usage().at("a"), 10.0);
  EXPECT_DOUBLE_EQ(scheduler.local_usage().at("b"), 20.0);
}

TEST(SchedulerModel, CapacityLimitsParallelism) {
  sim::Simulator simulator;
  TestScheduler scheduler(simulator, Cluster("c", 1, 1));
  scheduler.submit(make_job("a", 10.0));
  scheduler.submit(make_job("b", 10.0));
  simulator.run_all();
  // Serial execution: makespan 20 s.
  EXPECT_DOUBLE_EQ(simulator.now(), 20.0);
}

TEST(SchedulerModel, HigherPriorityRunsFirst) {
  sim::Simulator simulator;
  TestScheduler scheduler(simulator, Cluster("c", 1, 1));
  scheduler.priorities = {{"low", 0.1}, {"high", 0.9}};
  // Fill the core so both contenders queue.
  scheduler.submit(make_job("filler", 5.0));
  scheduler.submit(make_job("low", 5.0));
  scheduler.submit(make_job("high", 5.0));

  std::vector<std::string> completion_order;
  scheduler.add_completion_listener(
      [&](const Job& job) { completion_order.push_back(job.system_user); });
  simulator.run_all();
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[1], "high");
  EXPECT_EQ(completion_order[2], "low");
}

TEST(SchedulerModel, FifoBreaksPriorityTies) {
  sim::Simulator simulator;
  TestScheduler scheduler(simulator, Cluster("c", 1, 1));
  scheduler.submit(make_job("filler", 5.0));
  scheduler.submit(make_job("first", 5.0));
  scheduler.submit(make_job("second", 5.0));
  std::vector<std::string> order;
  scheduler.add_completion_listener([&](const Job& job) { order.push_back(job.system_user); });
  simulator.run_all();
  EXPECT_EQ(order[1], "first");
  EXPECT_EQ(order[2], "second");
}

TEST(SchedulerModel, BackfillLetsSmallJobsPassBlockedHead) {
  sim::Simulator simulator;
  SchedulerConfig config;
  config.backfill = true;
  TestScheduler scheduler(simulator, Cluster("c", 2, 1), config);
  scheduler.priorities = {{"wide", 0.9}, {"narrow", 0.1}};
  scheduler.submit(make_job("filler", 10.0));     // occupies 1 of 2 cores
  scheduler.submit(make_job("wide", 10.0, 2));    // blocked (needs 2)
  scheduler.submit(make_job("narrow", 4.0, 1));   // can backfill now
  std::vector<std::string> started;
  scheduler.add_completion_listener([&](const Job& job) { started.push_back(job.system_user); });
  simulator.run_all();
  EXPECT_EQ(started.front(), "narrow");
  EXPECT_EQ(scheduler.stats().completed, 3u);
}

TEST(SchedulerModel, NoBackfillBlocksBehindWideJob) {
  sim::Simulator simulator;
  SchedulerConfig config;
  config.backfill = false;
  TestScheduler scheduler(simulator, Cluster("c", 2, 1), config);
  scheduler.priorities = {{"wide", 0.9}, {"narrow", 0.1}};
  scheduler.submit(make_job("filler", 10.0));
  scheduler.submit(make_job("wide", 10.0, 2));
  scheduler.submit(make_job("narrow", 4.0, 1));
  std::vector<std::string> order;
  scheduler.add_completion_listener([&](const Job& job) { order.push_back(job.system_user); });
  simulator.run_all();
  // narrow completes last despite being short: strict priority order.
  EXPECT_EQ(order.back(), "narrow");
}

TEST(SchedulerModel, ReprioritizationReordersQueue) {
  sim::Simulator simulator;
  SchedulerConfig config;
  config.reprioritize_interval = 10.0;
  TestScheduler scheduler(simulator, Cluster("c", 1, 1), config);
  scheduler.priorities = {{"a", 0.9}, {"b", 0.1}};
  scheduler.submit(make_job("filler", 25.0));
  scheduler.submit(make_job("a", 5.0));
  scheduler.submit(make_job("b", 5.0));
  // Flip priorities while both wait in the queue.
  simulator.schedule_at(12.0, [&] { scheduler.priorities = {{"a", 0.1}, {"b", 0.9}}; });
  std::vector<std::string> order;
  scheduler.add_completion_listener([&](const Job& job) { order.push_back(job.system_user); });
  simulator.run_all();
  EXPECT_EQ(order[1], "b");
  EXPECT_EQ(order[2], "a");
}

TEST(SchedulerModel, EqualPrioritiesDispatchInSubmitTimeOrder) {
  // Regression: the dispatch sort used to compare priorities only, so a
  // tie kept whatever order an *earlier* pass left the queue in — a job
  // that once outranked another stayed ahead after their priorities
  // equalized. Ties now dispatch FIFO by submit time.
  sim::Simulator simulator;
  SchedulerConfig config;
  config.reprioritize_interval = 1.0;  // frequent sweeps pick up the change
  TestScheduler scheduler(simulator, Cluster("c", 1, 1), config);
  std::vector<std::string> finished;
  scheduler.add_completion_listener(
      [&](const Job& job) { finished.push_back(job.system_user); });

  scheduler.submit(make_job("hog", 10.0));  // occupies the only core
  simulator.schedule_at(1.0, [&] { scheduler.submit(make_job("early", 1.0)); });
  simulator.schedule_at(2.0, [&] {
    scheduler.priorities["late"] = 5.0;  // outranks "early" for now
    scheduler.submit(make_job("late", 1.0));
  });
  // Before anything dispatches, the priorities equalize.
  simulator.schedule_at(3.0, [&] { scheduler.priorities["late"] = 0.0; });

  simulator.run_all();
  ASSERT_EQ(finished.size(), 3u);
  EXPECT_EQ(finished[1], "early");
  EXPECT_EQ(finished[2], "late");
}

TEST(SchedulerModel, EqualPrioritiesAndSubmitTimesDispatchByJobId) {
  // Externally assigned ids (SLURM-style) can arrive out of order within
  // one submission instant; the id is the final tie-break, so the lower
  // id dispatches first regardless of queue insertion order.
  sim::Simulator simulator;
  TestScheduler scheduler(simulator, Cluster("c", 1, 1));
  std::vector<JobId> finished;
  scheduler.add_completion_listener([&](const Job& job) { finished.push_back(job.id); });

  scheduler.submit(make_job("hog", 10.0));  // id 1, starts immediately
  Job high_id = make_job("u", 1.0);
  high_id.id = 100;
  Job low_id = make_job("v", 1.0);
  low_id.id = 50;
  scheduler.submit(std::move(high_id));  // inserted first...
  scheduler.submit(std::move(low_id));   // ...but the lower id wins the tie

  simulator.run_all();
  ASSERT_EQ(finished.size(), 3u);
  EXPECT_EQ(finished[1], 50u);
  EXPECT_EQ(finished[2], 100u);
}

TEST(SchedulerModel, WaitTimeAccounting) {
  sim::Simulator simulator;
  TestScheduler scheduler(simulator, Cluster("c", 1, 1));
  scheduler.submit(make_job("a", 10.0));
  scheduler.submit(make_job("b", 10.0));
  simulator.run_all();
  // a waits 0, b waits 10.
  EXPECT_DOUBLE_EQ(scheduler.stats().total_wait_time, 10.0);
}

TEST(SchedulerModel, AssignsUniqueIds) {
  sim::Simulator simulator;
  TestScheduler scheduler(simulator, Cluster("c", 4, 1));
  const JobId id1 = scheduler.submit(make_job("a", 1.0));
  const JobId id2 = scheduler.submit(make_job("b", 1.0));
  EXPECT_NE(id1, id2);
  EXPECT_NE(id1, 0u);
}

TEST(SchedulerModel, FullTiesKeepTheOrderTheLastSweepLeft) {
  // Two jobs with the same external id and submit time tie on every key
  // once their priorities equalize. They then keep the order the last
  // sweep that told them apart left them in (as a stable sort of the
  // whole queue would), not their arrival order.
  sim::Simulator simulator;
  SchedulerConfig config;
  config.reprioritize_interval = 1.0;
  TestScheduler scheduler(simulator, Cluster("c", 1, 1), config);
  std::vector<std::string> finished;
  scheduler.add_completion_listener(
      [&](const Job& job) { finished.push_back(job.system_user); });

  scheduler.priorities = {{"a", 1.0}, {"b", 1.0}};
  scheduler.submit(make_job("hog", 10.0));
  Job first = make_job("a", 1.0);
  first.id = 7;
  Job second = make_job("b", 1.0);
  second.id = 7;
  scheduler.submit(std::move(first));
  scheduler.submit(std::move(second));
  simulator.schedule_at(1.5, [&] { scheduler.priorities["b"] = 2.0; });  // b overtakes a
  simulator.schedule_at(3.5, [&] { scheduler.priorities["b"] = 1.0; });  // tie again

  simulator.run_all();
  ASSERT_EQ(finished.size(), 3u);
  EXPECT_EQ(finished[1], "b");
  EXPECT_EQ(finished[2], "a");
}

// --- differential test of the incremental pending queue --------------------
//
// SchedulerBase keeps its queue incrementally (DESIGN.md §6l). The rule it
// must reproduce is written here the direct way: stable-sort the whole
// queue on every pass, then try every job in order and requeue the ones
// that do not start. Both run the same seeded stream of submits, priority
// changes and forced sweeps; starts (time, id, user, priority) and the
// order of every priority call must match exactly.

struct StartRecord {
  double time;
  JobId id;
  std::string user;
  double priority;
  bool operator==(const StartRecord&) const = default;
};

/// Per-user priorities the stream rewrites, with a log of every call.
struct PriceTable {
  std::map<std::string, double> priorities;
  std::vector<std::pair<JobId, std::string>> calls;

  double price(const Job& job) {
    calls.emplace_back(job.id, job.system_user);
    const auto it = priorities.find(job.system_user);
    return it == priorities.end() ? 0.0 : it->second;
  }
};

class PricedScheduler : public SchedulerBase {
 public:
  using SchedulerBase::SchedulerBase;
  PriceTable table;

 protected:
  double compute_priority(const PriorityContext& context) override {
    return table.price(context.job);
  }
};

/// The reference: SchedulerBase's event structure with the whole-queue
/// stable sort and requeue on every pass.
class ReferenceScheduler {
 public:
  ReferenceScheduler(sim::Simulator& simulator, Cluster cluster, SchedulerConfig config)
      : simulator_(simulator), cluster_(std::move(cluster)), config_(config) {}

  PriceTable table;
  std::vector<StartRecord> starts;

  void submit(Job job) {
    if (job.id == 0) job.id = next_id_++;
    else next_id_ = std::max(next_id_, job.id + 1);
    job.submit_time = simulator_.now();
    job.priority = table.price(job);
    pending_.push_back(std::move(job));
    schedule_pass();
    ensure_reprioritize_scheduled();
  }

  void reschedule() {
    for (auto& job : pending_) job.priority = table.price(job);
    schedule_pass();
  }

  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }

 private:
  void ensure_reprioritize_scheduled() {
    if (reprioritize_scheduled_ || pending_.empty()) return;
    reprioritize_scheduled_ = true;
    reprioritize_handle_ = simulator_.schedule_after(config_.reprioritize_interval, [this] {
      reprioritize_scheduled_ = false;
      reschedule();
      ensure_reprioritize_scheduled();
    });
  }

  void schedule_pass() {
    if (pending_.empty()) return;
    std::stable_sort(pending_.begin(), pending_.end(), [](const Job& a, const Job& b) {
      if (a.priority != b.priority) return a.priority > b.priority;
      if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
      return a.id < b.id;
    });
    std::deque<Job> still_pending;
    bool blocked = false;
    while (!pending_.empty()) {
      Job job = std::move(pending_.front());
      pending_.pop_front();
      if (blocked || !cluster_.can_allocate(job.cores)) {
        if (!config_.backfill) blocked = true;
        still_pending.push_back(std::move(job));
        continue;
      }
      const double now = simulator_.now();
      cluster_.allocate(job.cores, now);
      starts.push_back({now, job.id, job.system_user, job.priority});
      simulator_.schedule_at(now + job.duration, [this, cores = job.cores] {
        cluster_.release(cores, simulator_.now());
        schedule_pass();
      });
    }
    pending_ = std::move(still_pending);
    if (pending_.empty() && reprioritize_scheduled_) {
      reprioritize_handle_.cancel();
      reprioritize_scheduled_ = false;
    }
  }

  sim::Simulator& simulator_;
  Cluster cluster_;
  SchedulerConfig config_;
  std::deque<Job> pending_;
  JobId next_id_ = 1;
  bool reprioritize_scheduled_ = false;
  sim::EventHandle reprioritize_handle_;
};

struct StreamOp {
  enum Kind { kSubmit, kSetPriority, kNegateAll, kReschedule };
  double at = 0.0;
  Kind kind = kSubmit;
  Job job{};
  std::string user{};
  double value = 0.0;
};

template <typename Scheduler>
void schedule_stream(sim::Simulator& simulator, Scheduler& scheduler,
                     const std::vector<StreamOp>& ops) {
  for (const auto& op : ops) {
    simulator.schedule_at(op.at, [&scheduler, &op] {
      switch (op.kind) {
        case StreamOp::kSubmit: scheduler.submit(op.job); break;
        case StreamOp::kSetPriority: scheduler.table.priorities[op.user] = op.value; break;
        case StreamOp::kNegateAll:
          for (auto& entry : scheduler.table.priorities) entry.second = -entry.second;
          break;
        case StreamOp::kReschedule: scheduler.reschedule(); break;
      }
    });
  }
}

/// A seeded stream built to hit every tie-break and the early exit:
/// integer submit times (equal submit times), a small priority pool with
/// both signs (equal priorities, reorderings), explicit ids colliding with
/// each other and with assigned ones, 0-core jobs and jobs wider than the
/// cluster, and enough work on a tiny cluster to build deep queues.
std::vector<StreamOp> random_stream(util::Rng& rng, int total_cores,
                                    std::map<std::string, double>& initial) {
  static constexpr double kPool[] = {-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0};
  const auto pick_priority = [&rng] { return kPool[rng.uniform_int(0, 6)]; };
  const int users = static_cast<int>(rng.uniform_int(1, 5));
  const auto pick_user = [&rng, users] {
    return "u" + std::to_string(rng.uniform_int(0, users - 1));
  };
  for (int u = 0; u < users; ++u) initial["u" + std::to_string(u)] = pick_priority();

  const int core_pool[] = {0, 1, 1, 1, 2, 3, total_cores, total_cores + 1};
  std::vector<StreamOp> ops(static_cast<std::size_t>(rng.uniform_int(20, 150)));
  for (auto& op : ops) {
    op.at = static_cast<double>(rng.uniform_int(0, 40));
    const auto roll = rng.uniform_int(0, 99);
    if (roll < 70) {
      op.kind = StreamOp::kSubmit;
      op.job.system_user = pick_user();
      op.job.cores = core_pool[rng.uniform_int(0, 7)];
      op.job.duration = static_cast<double>(rng.uniform_int(0, 10));
      if (rng.uniform_int(0, 9) < 3) op.job.id = static_cast<JobId>(rng.uniform_int(1, 6));
    } else if (roll < 85) {
      op.kind = StreamOp::kSetPriority;
      op.user = pick_user();
      op.value = pick_priority();
    } else if (roll < 92) {
      op.kind = StreamOp::kNegateAll;
    } else {
      op.kind = StreamOp::kReschedule;
    }
  }
  return ops;
}

std::string describe(const StartRecord& start) {
  return "t=" + std::to_string(start.time) + " id=" + std::to_string(start.id) + " " +
         start.user + " p=" + std::to_string(start.priority);
}

void check_stream_against_reference(bool backfill, const std::vector<StreamOp>& ops,
                                    const std::map<std::string, double>& initial,
                                    int nodes, int cores_per_node, double interval) {
  SchedulerConfig config;
  config.backfill = backfill;
  config.reprioritize_interval = interval;
  // Wide jobs can stay queued for ever, so both runs stop at a horizon.
  constexpr double kHorizon = 400.0;

  sim::Simulator reference_sim;
  ReferenceScheduler reference(reference_sim, Cluster("c", nodes, cores_per_node), config);
  reference.table.priorities = initial;
  schedule_stream(reference_sim, reference, ops);
  reference_sim.run_until(kHorizon);

  sim::Simulator simulator;
  PricedScheduler scheduler(simulator, Cluster("c", nodes, cores_per_node), config);
  scheduler.table.priorities = initial;
  obs::Tracer tracer;
  tracer.enable();
  scheduler.attach_observability(obs::Observability{nullptr, &tracer}, "c");
  schedule_stream(simulator, scheduler, ops);
  simulator.run_until(kHorizon);

  std::vector<StartRecord> starts;
  for (const auto& event : tracer.events()) {
    if (event.kind != obs::EventKind::kSchedulerDecision) continue;
    starts.push_back({event.time, event.id, event.detail, event.value});
  }
  const std::string mode = backfill ? "backfill: " : "no backfill: ";
  for (std::size_t i = 0; i < std::min(starts.size(), reference.starts.size()); ++i) {
    testing::require(starts[i] == reference.starts[i],
                     mode + "start #" + std::to_string(i) + " is " + describe(starts[i]) +
                         ", reference " + describe(reference.starts[i]));
  }
  testing::require(starts.size() == reference.starts.size(),
                   mode + std::to_string(starts.size()) + " starts, reference " +
                       std::to_string(reference.starts.size()));
  testing::require(scheduler.table.calls == reference.table.calls,
                   mode + "priority calls diverged");
  testing::require(scheduler.pending_count() == reference.pending_count(),
                   mode + "pending counts diverged");
}

TEST(SchedulerDifferential, IncrementalQueueMatchesWholeQueueStableSort) {
  // Replay one trial with AEQUUS_PROPERTY_SEED=<seed>.
  const auto outcome = testing::run_property(
      "incremental_queue_vs_stable_sort", 200, 0x5c4ed0e1ULL, [](std::uint64_t seed) {
        util::Rng rng(seed);
        const int nodes = static_cast<int>(rng.uniform_int(1, 3));
        const int cores_per_node = static_cast<int>(rng.uniform_int(1, 2));
        const double interval = static_cast<double>(rng.uniform_int(1, 6));
        std::map<std::string, double> initial;
        const auto ops = random_stream(rng, nodes * cores_per_node, initial);
        for (const bool backfill : {false, true}) {
          check_stream_against_reference(backfill, ops, initial, nodes, cores_per_node, interval);
        }
      });
  EXPECT_TRUE(outcome.passed) << outcome.summary();
}

TEST(JobModel, UsageAndWaitTime) {
  Job job = make_job("u", 100.0, 4);
  job.submit_time = 10.0;
  EXPECT_DOUBLE_EQ(job.usage(), 400.0);
  EXPECT_DOUBLE_EQ(job.wait_time(25.0), 15.0);
  job.start_time = 20.0;
  EXPECT_DOUBLE_EQ(job.wait_time(99.0), 10.0);
  EXPECT_EQ(to_string(JobState::kPending), "pending");
  EXPECT_EQ(to_string(JobState::kRunning), "running");
  EXPECT_EQ(to_string(JobState::kCompleted), "completed");
}

}  // namespace
}  // namespace aequus::rms
