// Discrete-event simulation core.
//
// A Simulator owns a time-ordered event queue. Components schedule
// callbacks at absolute times or after delays; ties are broken by
// insertion order so runs are fully deterministic. Continuous processes
// (data transfer, page dirtying) are handled analytically between events
// by the components themselves; the core only sequences callbacks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

namespace wavm3::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
using EventId = std::uint64_t;

/// Invalid event handle.
inline constexpr EventId kInvalidEvent = 0;

/// Time-ordered event executor.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time in seconds.
  double now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now). Returns a handle.
  EventId schedule_at(double at, Callback fn);

  /// Schedules `fn` after `delay` seconds (>= 0).
  EventId schedule_in(double delay, Callback fn);

  /// Cancels a pending event; returns false when already fired/cancelled.
  bool cancel(EventId id);

  /// Runs events until the queue empties or the next event is past
  /// `until`; the clock then advances to exactly `until`.
  void run_until(double until);

  /// Runs until the queue is empty (or `max_events` processed).
  /// Returns the number of events executed.
  std::size_t run_to_completion(std::size_t max_events = 10'000'000);

  /// Executes the single next event, if any. Returns false on empty queue.
  bool step();

  /// Number of events currently pending.
  std::size_t pending_events() const { return pending_count_; }

  /// Total events executed since construction.
  std::uint64_t executed_events() const { return executed_; }

  /// Registers a periodic callback with fixed `period`, starting at
  /// `start` (absolute). The callback keeps rescheduling itself until
  /// cancelled via the returned handle (see PeriodicHandle).
  class PeriodicHandle {
   public:
    PeriodicHandle() = default;
    /// Stops future firings. Safe to call multiple times.
    void cancel();

   private:
    friend class Simulator;
    std::shared_ptr<bool> alive_;
  };

  PeriodicHandle schedule_periodic(double start, double period, Callback fn);

 private:
  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  // insertion order for deterministic ties
    EventId id = kInvalidEvent;
    Callback fn;
    bool cancelled = false;
  };

  struct EventCompare {
    bool operator()(const std::shared_ptr<Event>& a, const std::shared_ptr<Event>& b) const {
      if (a->time != b->time) return a->time > b->time;  // min-heap on time
      return a->seq > b->seq;
    }
  };

  std::shared_ptr<Event> pop_next();

  double now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t pending_count_ = 0;
  std::priority_queue<std::shared_ptr<Event>, std::vector<std::shared_ptr<Event>>, EventCompare>
      queue_;
  // id -> event lookup for cancellation; entries removed lazily.
  std::unordered_map<EventId, std::weak_ptr<Event>> live_;
};

}  // namespace wavm3::sim
