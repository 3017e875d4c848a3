#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>

namespace aequus::sim {

EventHandle Simulator::push(Time at, std::function<void()> action) {
  Event event;
  event.at = std::max(at, now_);
  event.sequence = next_sequence_++;
  event.action = std::move(action);
  event.alive = std::make_shared<bool>(true);
  EventHandle handle(event.alive);
  enqueue(std::move(event));
  return handle;
}

void Simulator::enqueue(Event event) {
  queue_.push_back(std::move(event));
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

EventHandle Simulator::schedule_at(Time at, std::function<void()> action) {
  return push(at, std::move(action));
}

EventHandle Simulator::schedule_after(Time delay, std::function<void()> action) {
  return push(now_ + std::max(delay, 0.0), std::move(action));
}

EventHandle Simulator::schedule_periodic(Time first_at, Time period,
                                         std::function<void()> action) {
  if (period <= 0.0) throw std::invalid_argument("schedule_periodic: period must be > 0");
  auto alive = std::make_shared<bool>(true);
  push_periodic(first_at, period,
                std::make_shared<std::function<void()>>(std::move(action)), alive);
  return EventHandle(alive);
}

void Simulator::push_periodic(Time at, Time period,
                              std::shared_ptr<std::function<void()>> action,
                              std::shared_ptr<bool> alive) {
  Event event;
  event.at = std::max(at, now_);
  event.sequence = next_sequence_++;
  event.alive = alive;
  const Time scheduled_at = event.at;
  event.action = [this, scheduled_at, period, action, alive] {
    (*action)();
    if (*alive) push_periodic(scheduled_at + period, period, action, alive);
  };
  enqueue(std::move(event));
}

bool Simulator::step() {
  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Event event = std::move(queue_.back());
    queue_.pop_back();
    if (!*event.alive) continue;  // cancelled
    now_ = event.at;
    ++executed_;
    event.action();
    return true;
  }
  return false;
}

void Simulator::run_until(Time limit) {
  while (!queue_.empty()) {
    const Event& next = queue_.front();
    if (!*next.alive) {
      std::pop_heap(queue_.begin(), queue_.end(), Later{});
      queue_.pop_back();
      continue;
    }
    if (next.at > limit) break;
    step();
  }
  now_ = std::max(now_, limit);
}

void Simulator::run_all() {
  while (step()) {
  }
}

}  // namespace aequus::sim
