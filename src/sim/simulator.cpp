#include "sim/simulator.hpp"

#include "util/error.hpp"

namespace wavm3::sim {

EventId Simulator::schedule_at(double at, Callback fn) {
  WAVM3_REQUIRE(at >= now_, "cannot schedule into the past");
  WAVM3_REQUIRE(static_cast<bool>(fn), "callback must be callable");
  auto ev = std::make_shared<Event>();
  ev->time = at;
  ev->seq = next_seq_++;
  ev->id = next_id_++;
  ev->fn = std::move(fn);
  queue_.push(ev);
  live_.emplace(ev->id, ev);
  ++pending_count_;
  return ev->id;
}

EventId Simulator::schedule_in(double delay, Callback fn) {
  WAVM3_REQUIRE(delay >= 0.0, "delay must be nonnegative");
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  const auto it = live_.find(id);
  if (it == live_.end()) return false;
  const auto ev = it->second.lock();
  live_.erase(it);
  if (!ev || ev->cancelled) return false;
  ev->cancelled = true;
  --pending_count_;
  return true;
}

std::shared_ptr<Simulator::Event> Simulator::pop_next() {
  while (!queue_.empty()) {
    auto ev = queue_.top();
    queue_.pop();
    if (ev->cancelled) continue;
    live_.erase(ev->id);
    --pending_count_;
    return ev;
  }
  return nullptr;
}

bool Simulator::step() {
  const auto ev = pop_next();
  if (!ev) return false;
  WAVM3_ASSERT(ev->time >= now_, "event queue time went backwards");
  now_ = ev->time;
  ++executed_;
  ev->fn();
  return true;
}

void Simulator::run_until(double until) {
  WAVM3_REQUIRE(until >= now_, "run_until target is in the past");
  while (!queue_.empty()) {
    // Peek the earliest non-cancelled event.
    auto top = queue_.top();
    if (top->cancelled) {
      queue_.pop();
      continue;
    }
    if (top->time > until) break;
    step();
  }
  now_ = until;
}

std::size_t Simulator::run_to_completion(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  WAVM3_REQUIRE(pending_events() == 0 || n < max_events,
                "run_to_completion hit the event cap; likely a runaway periodic task");
  return n;
}

void Simulator::PeriodicHandle::cancel() {
  if (alive_) *alive_ = false;
}

namespace {

/// One firing of a periodic callback; reschedules a copy of itself
/// while the handle is alive. Only queued events own a tick (it must
/// not own itself), so the callback is freed once the tick stops
/// rescheduling or the simulator is destroyed.
struct PeriodicTick {
  Simulator* sim;
  std::shared_ptr<bool> alive;
  double period;
  std::shared_ptr<Simulator::Callback> fn;

  void operator()() const {
    if (!*alive) return;
    (*fn)();
    if (!*alive) return;
    sim->schedule_in(period, *this);
  }
};

}  // namespace

Simulator::PeriodicHandle Simulator::schedule_periodic(double start, double period, Callback fn) {
  WAVM3_REQUIRE(period > 0.0, "period must be positive");
  PeriodicHandle handle;
  handle.alive_ = std::make_shared<bool>(true);
  schedule_at(start, PeriodicTick{this, handle.alive_, period,
                                  std::make_shared<Callback>(std::move(fn))});
  return handle;
}

}  // namespace wavm3::sim
