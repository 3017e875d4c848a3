#include "testbed/experiment.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace aequus::testbed {

double ExperimentResult::priority_convergence_time(double epsilon, double until) const {
  std::map<std::string, double> targets;
  for (const auto& [name, series] : priorities.all()) {
    (void)series;
    targets[name] = core::kNeutralFactor;  // percental balance point
  }
  return convergence_time(priorities, targets, epsilon, until);
}

Experiment::Experiment(const workload::Scenario& scenario, ExperimentConfig config)
    : scenario_(scenario), config_(std::move(config)), bus_(simulator_), rng_(config_.seed) {
  bus_.set_remote_latency(config_.bus_remote_latency);
  if (config_.faults.active()) bus_.set_fault_plan(config_.faults);
  // Trace ids derive from the experiment seed, so span trees are
  // bit-identical for the same (scenario, seed) at any sweep thread
  // count. The drop counter is registered unconditionally to keep the
  // snapshot key set uniform across traced and untraced tasks.
  tracer_.seed_trace_ids(config_.seed);
  tracer_.set_dropped_counter(&registry_.counter("trace.dropped_events"));
  offload_counter_ = &registry_.counter("experiment.jobs_offloaded");
  // Attach before any site binds so every endpoint registers its metrics
  // in the experiment registry (handles must never be re-registered after
  // traffic starts flowing).
  const obs::Observability observability{&registry_, &tracer_};
  bus_.attach_observability(observability);

  std::vector<std::string> site_names;
  for (int i = 0; i < scenario_.cluster_count; ++i) {
    SiteSpec spec;
    spec.name = util::format("site%d", i);
    spec.hosts = scenario_.hosts_per_cluster;
    spec.cores_per_host = 1;
    const auto override_it = config_.site_overrides.find(i);
    if (override_it != config_.site_overrides.end()) {
      const SiteSpec& o = override_it->second;
      spec.rm = o.rm;
      spec.participation = o.participation;
      if (o.hosts > 0) spec.hosts = o.hosts;
      if (o.cores_per_host > 0) spec.cores_per_host = o.cores_per_host;
    }
    site_names.push_back(spec.name);
    sites_.push_back(std::make_unique<ClusterSite>(simulator_, bus_, spec, config_.timings,
                                                   config_.fairshare, observability,
                                                   config_.usage_batching));
  }
  for (auto& site : sites_) site->set_peer_sites(site_names);

  install_policy();
  bind_name_resolver();
}

void Experiment::install_policy() {
  core::PolicyTree policy;
  for (const auto& [user, share] : scenario_.policy_shares) {
    policy.set_share("/" + user, share);
  }
  for (auto& site : sites_) site->set_policy(policy);
}

void Experiment::bind_name_resolver() {
  // "A unified name resolution service used by all clusters is co-hosted
  // on the job submission host." Every site's IRS is configured to call
  // this endpoint with the minimalist JSON protocol.
  bus_.bind("subhost.nameresolver", [](const json::Value& query) -> json::Value {
    const auto grid_user = grid_user_for(query.get_string("system_user"));
    json::Object reply;
    if (grid_user) {
      reply["grid_user"] = *grid_user;
    } else {
      reply["unknown"] = true;
    }
    return json::Value(std::move(reply));
  });
  for (auto& site : sites_) {
    site->aequus().irs().set_endpoint("subhost.nameresolver");
  }
}

std::size_t Experiment::apply_offloads(std::size_t index, double now) {
  for (const auto& rule : config_.offloads) {
    if (rule.to_site < 0 || static_cast<std::size_t>(rule.to_site) >= sites_.size()) continue;
    if (rule.from_site >= 0 && static_cast<std::size_t>(rule.from_site) != index) continue;
    if (now < rule.start || now >= rule.end) continue;
    if (rule.fraction < 1.0 && !rng_.bernoulli(rule.fraction)) continue;
    offload_counter_->inc();
    return static_cast<std::size_t>(rule.to_site);
  }
  return index;
}

void Experiment::schedule_submissions() {
  // Each event captures only the record's position (small enough for
  // std::function's inline storage) and reads the record when it fires;
  // the trace outlives the run. The events are posted without cancel
  // handles: run() closes submissions with one flag instead.
  const auto& records = scenario_.trace.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    simulator_.post_at(records[i].submit, [this, i] {
      if (submissions_closed_) return;
      const workload::TraceRecord& record = scenario_.trace.records()[i];
      std::size_t index;
      if (config_.dispatch == DispatchPolicy::kRoundRobin) {
        index = round_robin_next_++ % sites_.size();
      } else {
        index = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(sites_.size()) - 1));
      }
      if (!config_.offloads.empty()) index = apply_offloads(index, record.submit);
      rms::Job job;
      job.system_user = system_account_for(record.user);
      job.duration = record.duration;
      job.cores = record.cores;
      sites_[index]->submit(std::move(job));
    });
  }
}

void Experiment::schedule_sampling(ExperimentResult& result) {
  tasks_.push_back(simulator_.schedule_periodic(
      config_.sample_interval, config_.sample_interval, [this, &result] {
        const double now = simulator_.now();
        // Cumulative usage shares.
        for (const auto& [user, share] : scenario_.policy_shares) {
          (void)share;
          const auto it = completed_usage_.find(user);
          const double usage = it != completed_usage_.end() ? it->second : 0.0;
          const double fraction =
              total_completed_usage_ > 0.0 ? usage / total_completed_usage_ : 0.0;
          result.usage_shares.series(user).add(now, fraction);
        }
        // Global priorities as pre-calculated by the first site's FCS.
        auto& reference_fcs = sites_.front()->aequus().fcs();
        for (const auto& [user, share] : scenario_.policy_shares) {
          (void)share;
          result.priorities.series(user).add(now, reference_fcs.factor_for(user));
        }
        // Optional per-site priorities.
        if (config_.record_per_site) {
          for (auto& site : sites_) {
            for (const auto& [user, share] : scenario_.policy_shares) {
              (void)share;
              result.per_site.series(site->name() + "/" + user)
                  .add(now, site->aequus().fcs().factor_for(user));
            }
          }
        }
        // Instantaneous utilization.
        int busy = 0;
        int total = 0;
        for (const auto& site : sites_) {
          busy += site->rm().cluster().busy_cores();
          total += site->rm().cluster().total_cores();
        }
        result.utilization.series("total").add(
            now, total > 0 ? static_cast<double>(busy) / total : 0.0);
        for (const auto& hook : tick_hooks_) hook(now);
      }));
}

ExperimentResult Experiment::run() {
  ExperimentResult result;

  // Track completions globally (ground truth for usage-share series).
  for (auto& site : sites_) {
    site->rm().add_completion_listener([this, &result](const rms::Job& job) {
      const auto grid_user = grid_user_for(job.system_user);
      const std::string user = grid_user ? *grid_user : job.system_user;
      completed_usage_[user] += job.usage();
      total_completed_usage_ += job.usage();
      ++completed_jobs_;
      // job.priority still holds the value the job was sorted by when it
      // was started (no recompute happens after start).
      result.start_priorities.series(user).add(job.start_time, job.priority);
      result.waits.series(user).add(job.start_time, job.start_time - job.submit_time);
    });
  }

  schedule_submissions();
  schedule_sampling(result);

  const auto [first_submit, last_activity] = scenario_.trace.timespan();
  (void)first_submit;
  const double horizon = last_activity + config_.drain_seconds;

  // Run until all submitted jobs have completed (bounded by a generous
  // horizon multiple so a wedged experiment still terminates).
  const double hard_stop = horizon * 20.0 + 86400.0;
  double until = horizon;
  while (true) {
    simulator_.run_until(until);
    if (completed_jobs_ >= scenario_.trace.size()) break;
    if (until >= hard_stop) {
      AEQ_WARN("experiment") << scenario_.name << ": " << completed_jobs_ << "/"
                             << scenario_.trace.size() << " jobs completed at hard stop";
      break;
    }
    until = std::min(until + horizon, hard_stop);
  }

  for (auto& task : tasks_) task.cancel();
  submissions_closed_ = true;

  result.jobs_submitted = scenario_.trace.size();
  result.jobs_completed = completed_jobs_;
  result.makespan = simulator_.now();
  for (const auto& [user, usage] : completed_usage_) {
    result.final_usage_share[user] =
        total_completed_usage_ > 0.0 ? usage / total_completed_usage_ : 0.0;
  }
  double utilization_sum = 0.0;
  for (const auto& site : sites_) {
    utilization_sum += site->rm().cluster().utilization(scenario_.duration_seconds);
  }
  result.mean_utilization = utilization_sum / static_cast<double>(sites_.size());
  result.rates = submission_rates(scenario_.trace.arrival_times());
  result.bus = bus_.stats();

  // Headline metrics land in the registry so benches can derive their
  // numbers from the snapshot (same values as the sweep's scalar metrics:
  // identical inputs, identical arithmetic, bit-identical results).
  registry_.counter("experiment.jobs_submitted").inc(result.jobs_submitted);
  registry_.counter("experiment.jobs_completed").inc(result.jobs_completed);
  registry_.gauge("experiment.makespan_s").set(result.makespan);
  registry_.gauge("experiment.mean_utilization").set(result.mean_utilization);
  const double convergence =
      result.priority_convergence_time(config_.convergence_epsilon, scenario_.duration_seconds);
  registry_.gauge("experiment.convergence_time_s").set(convergence);
  registry_.gauge("experiment.converged").set(convergence >= 0.0 ? 1.0 : 0.0);

  result.obs = registry_.snapshot();
  result.trace = tracer_.take();
  return result;
}

}  // namespace aequus::testbed
