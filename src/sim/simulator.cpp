#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>

namespace aequus::sim {

void Simulator::enqueue(Time at, std::function<void()> action, std::shared_ptr<bool> alive,
                        Time period) {
  std::uint32_t index;
  if (free_slots_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.action = std::move(action);
  slot.alive = std::move(alive);
  slot.period = period;
  heap_.push_back(Key{std::max(at, now_), next_sequence_++, index});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventHandle Simulator::schedule_at(Time at, std::function<void()> action) {
  auto alive = std::make_shared<bool>(true);
  EventHandle handle(alive);
  enqueue(at, std::move(action), std::move(alive), 0.0);
  return handle;
}

EventHandle Simulator::schedule_after(Time delay, std::function<void()> action) {
  return schedule_at(now_ + std::max(delay, 0.0), std::move(action));
}

EventHandle Simulator::schedule_periodic(Time first_at, Time period,
                                         std::function<void()> action) {
  if (period <= 0.0) throw std::invalid_argument("schedule_periodic: period must be > 0");
  auto alive = std::make_shared<bool>(true);
  EventHandle handle(alive);
  enqueue(first_at, std::move(action), std::move(alive), period);
  return handle;
}

void Simulator::post_at(Time at, std::function<void()> action) {
  enqueue(at, std::move(action), nullptr, 0.0);
}

void Simulator::post_after(Time delay, std::function<void()> action) {
  enqueue(now_ + std::max(delay, 0.0), std::move(action), nullptr, 0.0);
}

void Simulator::pop_cancelled() {
  const std::uint32_t index = heap_.front().slot;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  Slot& slot = slots_[index];
  slot.action = nullptr;
  slot.alive.reset();
  free_slots_.push_back(index);
}

bool Simulator::step() {
  while (!heap_.empty()) {
    if (cancelled(heap_.front())) {
      pop_cancelled();
      continue;
    }
    const Key key = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    // Move the event out and free its slot before running it: the action
    // may schedule more events (growing slots_, or reusing this slot).
    Slot& slot = slots_[key.slot];
    std::function<void()> action = std::move(slot.action);
    slot.action = nullptr;
    std::shared_ptr<bool> alive = std::move(slot.alive);
    const Time period = slot.period;
    free_slots_.push_back(key.slot);
    now_ = key.at;
    ++executed_;
    action();
    // A periodic task re-arms after its firing (so with a later sequence
    // than anything the firing scheduled), unless it was cancelled.
    if (period > 0.0 && *alive) {
      enqueue(key.at + period, std::move(action), std::move(alive), period);
    }
    return true;
  }
  return false;
}

void Simulator::run_until(Time limit) {
  while (!heap_.empty()) {
    if (cancelled(heap_.front())) {
      pop_cancelled();
      continue;
    }
    if (heap_.front().at > limit) break;
    step();
  }
  now_ = std::max(now_, limit);
}

void Simulator::run_all() {
  while (step()) {
  }
}

}  // namespace aequus::sim
