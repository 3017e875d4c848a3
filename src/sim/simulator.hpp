// Deterministic discrete-event simulation engine.
//
// The paper's testbed ran seven physical machines hosting 240 virtual
// hosts with idle-wait jobs; we substitute virtual time. Every component
// of the integrated system (schedulers, Aequus services, the service bus,
// the submission host) runs on one Simulator instance, so an experiment
// is a single-threaded, perfectly reproducible event program.
//
// Ordering guarantee: events fire in (time, insertion sequence) order, so
// two events at the same timestamp run in the order they were scheduled,
// whichever schedule_* or post_* call inserted them.
//
// Storage (DESIGN.md §6m): the heap holds only trivially copyable
// {at, sequence, slot} keys, so a sift moves 24 bytes, never a closure.
// Each event's action, its optional cancel flag and its period live in a
// slot pool; a slot returns to a free list when its event fires or is
// popped cancelled, and the next event reuses it. post_at/post_after
// events carry no cancel flag and so allocate nothing beyond what their
// closure needs (nothing, for a closure that fits std::function's inline
// buffer); schedule_* events allocate their shared EventHandle flag.
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
/// cancel; call cancel() explicitly. Cancelling after the event fired is a
/// no-op.
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

  /// Fire-and-forget schedule_at: same ordering, no cancel handle, so no
  /// allocation for the token.
  void post_at(Time at, std::function<void()> action);

  /// Fire-and-forget schedule_after.
  void post_after(Time delay, std::function<void()> action);

  /// Execute the next pending event. Returns false when the queue is empty.
  bool step();

  /// Run events until the queue is empty or the next event is later than
  /// `limit`; afterwards now() == min(limit, last event time fired) is
  /// advanced to `limit` exactly.
  void run_until(Time limit);

  /// Run until the event queue drains completely.
  void run_all();

  /// Queued events, cancelled ones included until they are popped.
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }
  /// Event slots allocated so far: the high-water mark of queued events,
  /// since a fired or cancelled event's slot is reused.
  [[nodiscard]] std::size_t slot_count() const noexcept { return slots_.size(); }

 private:
  /// Heap entry. (at, sequence) is a total order, so the firing order is
  /// fully determined; `slot` indexes slots_.
  struct Key {
    Time at = 0;
    std::uint64_t sequence = 0;
    std::uint32_t slot = 0;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.sequence > b.sequence;
    }
  };
  /// What an event runs. `alive` is null for post_* events; `period` is
  /// 0 except for periodic tasks, which re-arm after each firing.
  struct Slot {
    std::function<void()> action;
    std::shared_ptr<bool> alive;
    Time period = 0.0;
  };

  /// Queue `action` at max(at, now) in a free (or new) slot.
  void enqueue(Time at, std::function<void()> action, std::shared_ptr<bool> alive,
               Time period);
  /// Pop the earliest key and return its slot to the free list.
  void pop_cancelled();
  [[nodiscard]] bool cancelled(const Key& key) const noexcept {
    const Slot& slot = slots_[key.slot];
    return slot.alive != nullptr && !*slot.alive;
  }

  Time now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
  /// Binary min-heap (std::push_heap/std::pop_heap with Later).
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace aequus::sim
