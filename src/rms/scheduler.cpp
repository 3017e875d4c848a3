#include "rms/scheduler.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace aequus::rms {

SchedulerBase::SchedulerBase(sim::Simulator& simulator, Cluster cluster, SchedulerConfig config)
    : simulator_(simulator), cluster_(std::move(cluster)), config_(config) {
  site_label_ = cluster_.name();
}

void SchedulerBase::set_fairshare_provider(FairshareProvider provider) {
  fairshare_provider_ = std::move(provider);
}

core::FairshareSnapshotPtr SchedulerBase::current_fairshare() const {
  return fairshare_provider_ ? fairshare_provider_() : nullptr;
}

void SchedulerBase::ensure_reprioritize_scheduled() {
  // Periodic priority sweeps run only while jobs wait, so an idle
  // scheduler leaves the event queue drainable.
  if (reprioritize_scheduled_ || index_.empty()) return;
  reprioritize_scheduled_ = true;
  reprioritize_handle_ =
      simulator_.schedule_after(config_.reprioritize_interval, [this] {
        reprioritize_scheduled_ = false;
        reschedule();
        ensure_reprioritize_scheduled();
      });
}

JobId SchedulerBase::submit(Job job) {
  if (job.id == 0) job.id = next_id_++;
  else next_id_ = std::max(next_id_, job.id + 1);
  job.state = JobState::kPending;
  job.submit_time = simulator_.now();
  job.priority =
      compute_priority(PriorityContext{job, simulator_.now(), current_fairshare(), site_label_});
  const JobId id = job.id;
  auto slot = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.push_back(std::move(job));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(job);
  }
  const Job& queued = slots_[slot];
  const DispatchKey key{queued.priority, queued.submit_time, id, next_rank_++, slot};
  index_.insert(std::lower_bound(index_.begin(), index_.end(), key, dispatches_after), key);
  min_pending_cores_ = std::min(min_pending_cores_, queued.cores);
  ++stats_.submitted;
  obs::bump(submitted_counter_);
  schedule_pass();
  ensure_reprioritize_scheduled();
  return id;
}

void SchedulerBase::add_completion_listener(CompletionListener listener) {
  listeners_.push_back(std::move(listener));
}

void SchedulerBase::attach_observability(obs::Observability obs, const std::string& site) {
  obs_ = obs;
  obs_site_ = site;
  site_label_ = site;
  if (obs_.registry != nullptr) {
    const std::string prefix = "rm." + site + ".";
    submitted_counter_ = &obs_.registry->counter(prefix + "submitted");
    started_counter_ = &obs_.registry->counter(prefix + "started");
    completed_counter_ = &obs_.registry->counter(prefix + "completed");
    // Queue waits span sub-second dispatches to multi-hour backlogs.
    wait_histogram_ = &obs_.registry->histogram(prefix + "wait_s",
                                                obs::HistogramSpec{0.1, 2.0, 24});
  }
}

void SchedulerBase::reschedule() {
  const double now = simulator_.now();
  // Root span of the periodic priority sweep: fairshare lookups the sweep
  // performs (client cache hits/misses, IRS calls) nest under it.
  obs::SpanContext span;
  if (obs_.tracer != nullptr && obs_.tracer->enabled()) {
    span = obs_.tracer->begin_span(now, obs_site_, "rm", "reprioritize:" + cluster_.name());
  }
  obs::SpanScope scope(obs_.tracer, span);
  // One snapshot for the whole sweep: every pending job is priced against
  // the same fairshare generation. Jobs are priced in dispatch order (the
  // order of the policy's IRS lookups on identity-cache misses), and each
  // key is re-ranked as it is walked, so full ties keep this order.
  const core::FairshareSnapshotPtr fairshare = current_fairshare();
  for (auto key = index_.rbegin(); key != index_.rend(); ++key) {
    Job& job = slots_[key->slot];
    job.priority = compute_priority(PriorityContext{job, now, fairshare, site_label_});
    key->priority = job.priority;
    key->rank = next_rank_++;
  }
  std::sort(index_.begin(), index_.end(), dispatches_after);
  schedule_pass();
  if (span.valid() && obs_.tracer != nullptr) {
    obs_.tracer->end_span(simulator_.now(), span, obs_site_, "rm", {},
                          static_cast<double>(index_.size()));
  }
}

bool SchedulerBase::dispatches_after(const DispatchKey& a, const DispatchKey& b) noexcept {
  // Highest priority first; ties dispatch FIFO by submit time, then by
  // job id so externally assigned ids cannot jump jobs submitted earlier
  // in the same instant, then in previous queue order.
  if (a.priority != b.priority) return a.priority < b.priority;
  if (a.submit_time != b.submit_time) return a.submit_time > b.submit_time;
  if (a.id != b.id) return a.id > b.id;
  return a.rank > b.rank;
}

void SchedulerBase::schedule_pass() {
  if (index_.empty()) return;
  // Walk from the dispatch end; `kept` counts the walked keys that stay
  // queued, packed against the back so one erase closes the gap.
  std::size_t next = index_.size();
  std::size_t kept = 0;
  int min_kept_cores = std::numeric_limits<int>::max();
  while (next > 0 && cluster_.free_cores() >= min_pending_cores_) {
    const DispatchKey key = index_[--next];
    Job& job = slots_[key.slot];
    if (!cluster_.can_allocate(job.cores)) {
      if (!config_.backfill) {
        ++next;  // strict priority order: nothing passes a blocked job
        break;
      }
      min_kept_cores = std::min(min_kept_cores, job.cores);
      index_[index_.size() - ++kept] = key;
      continue;
    }
    free_slots_.push_back(key.slot);
    start_job(std::move(job));
  }
  index_.erase(index_.begin() + static_cast<std::ptrdiff_t>(next),
               index_.end() - static_cast<std::ptrdiff_t>(kept));
  // A walk that reached the front saw every pending job.
  if (next == 0) min_pending_cores_ = min_kept_cores;
  if (index_.empty() && reprioritize_scheduled_) {
    reprioritize_handle_.cancel();
    reprioritize_scheduled_ = false;
  }
}

void SchedulerBase::start_job(Job job) {
  const double now = simulator_.now();
  cluster_.allocate(job.cores, now);
  job.state = JobState::kRunning;
  job.start_time = now;
  job.end_time = now + job.duration;
  ++running_;
  ++stats_.started;
  stats_.total_wait_time += now - job.submit_time;
  obs::bump(started_counter_);
  if (wait_histogram_ != nullptr) wait_histogram_->record(now - job.submit_time);
  if (obs_.tracer != nullptr && obs_.tracer->enabled()) {
    obs_.tracer->record(now, obs::EventKind::kSchedulerDecision, obs_site_, cluster_.name(),
                        job.system_user, job.priority, job.id);
  }
  AEQ_TRACE("rms") << cluster_.name() << " start job " << job.id << " user "
                   << job.system_user;
  simulator_.post_at(job.end_time,
                     [this, job = std::move(job)]() mutable { finish_job(std::move(job)); });
}

void SchedulerBase::finish_job(Job job) {
  const double now = simulator_.now();
  cluster_.release(job.cores, now);
  job.state = JobState::kCompleted;
  job.end_time = now;
  --running_;
  ++stats_.completed;
  obs::bump(completed_counter_);
  local_usage_[job.system_user] += job.usage();
  // Root span of the usage propagation chain: everything the completion
  // triggers — jobcomp plugins, identity resolution, the usage report
  // send, the follow-up scheduling pass — nests under it, so one job
  // completion yields one trace tree the analyzer can walk end to end.
  obs::SpanContext span;
  if (obs_.tracer != nullptr && obs_.tracer->enabled()) {
    span = obs_.tracer->begin_span(now, obs_site_, "rm", "jobcomp:" + cluster_.name());
  }
  {
    obs::SpanScope scope(obs_.tracer, span);
    on_job_completed(job);
    for (const auto& listener : listeners_) listener(job);
    schedule_pass();
  }
  if (span.valid() && obs_.tracer != nullptr) {
    obs_.tracer->end_span(simulator_.now(), span, obs_site_, "rm", job.system_user,
                          static_cast<double>(job.id));
  }
}

}  // namespace aequus::rms
