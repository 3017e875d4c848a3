// Deterministic discrete-event simulation engine.
//
// The paper's testbed ran seven physical machines hosting 240 virtual
// hosts with idle-wait jobs; we substitute virtual time. Every component
// of the integrated system (schedulers, Aequus services, the service bus,
// the submission host) runs on one Simulator instance, so an experiment
// is a single-threaded, perfectly reproducible event program.
//
// Ordering guarantee: events fire in (time, insertion sequence) order, so
// two events at the same timestamp run in the order they were scheduled.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace aequus::sim {

/// Simulated time in seconds.
using Time = double;

/// Cancellation token for scheduled events. Destroying the handle does not
/// cancel; call cancel() explicitly.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event (or the next firing of a periodic task) from running.
  void cancel() noexcept {
    if (alive_) *alive_ = false;
  }

  [[nodiscard]] bool active() const noexcept { return alive_ && *alive_; }

 private:
  friend class Simulator;
  explicit EventHandle(std::shared_ptr<bool> alive) : alive_(std::move(alive)) {}
  std::shared_ptr<bool> alive_;
};

/// Single-threaded event-driven virtual-time executor.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `action` at absolute time `at` (clamped to now for past times).
  EventHandle schedule_at(Time at, std::function<void()> action);

  /// Schedule `action` after `delay` seconds (delay < 0 treated as 0).
  EventHandle schedule_after(Time delay, std::function<void()> action);

  /// Schedule `action` every `period` seconds, first firing at
  /// `first_at`. The action keeps firing until the handle is cancelled or
  /// the simulation ends. Requires period > 0.
  EventHandle schedule_periodic(Time first_at, Time period, std::function<void()> action);

  /// Execute the next pending event. Returns false when the queue is empty.
  bool step();

  /// Run events until the queue is empty or the next event is later than
  /// `limit`; afterwards now() == min(limit, last event time fired) is
  /// advanced to `limit` exactly.
  void run_until(Time limit);

  /// Run until the event queue drains completely.
  void run_all();

  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Event {
    Time at = 0;
    std::uint64_t sequence = 0;
    std::function<void()> action;
    std::shared_ptr<bool> alive;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.sequence > b.sequence;
    }
  };

  EventHandle push(Time at, std::function<void()> action);
  /// Heap-insert `event` (min-heap on (at, sequence) via Later).
  void enqueue(Event event);
  void push_periodic(Time at, Time period, std::shared_ptr<std::function<void()>> action,
                     std::shared_ptr<bool> alive);

  Time now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
  /// Binary min-heap maintained with std::push_heap/std::pop_heap, so
  /// step() can move the earliest event out instead of copying its
  /// closure (and every payload the closure captured). (at, sequence) is
  /// a total order, so the firing order is fully determined.
  std::vector<Event> queue_;
};

}  // namespace aequus::sim
