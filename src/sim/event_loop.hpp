// Discrete-event loop with a virtual clock. Single-threaded: every event
// handler runs to completion before time advances to the next event. This
// is what lets a simulated cluster run faithfully on any host.
//
// The pending set is a binary min-heap of small (at, seq, slot) keys; the
// handlers live in a slot pool with a free list, so a sift moves 24 bytes
// and never a std::function. Enqueue and dequeue are O(log n) and the
// earliest timestamp is O(1). Ordering is strict (at, seq): two runs that
// schedule the same events in the same order execute them identically,
// the property every determinism/golden-trace test rests on.
//
// Exploration hook: events carry an EventTag (internal timer vs message
// delivery, plus the acted-on site). When a chooser is installed, the
// loop exposes the set of deliveries that could plausibly run next (any
// delivery within `window` of the earliest pending event, modeling
// variable network delay) and lets the chooser pick — the systematic
// interleaving exploration of sdvm-chaos --explore is built on this.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.hpp"
#include "common/types.hpp"

namespace sdvm::sim {

/// Classification of a pending event, used only by exploration mode.
struct EventTag {
  enum class Kind : std::uint8_t {
    kInternal = 0,  // site timer / pump: fires in timestamp order
    kDelivery,      // network message delivery: reorderable within window
  };
  Kind kind = Kind::kInternal;
  std::uint32_t actor = 0;  // site slot the event acts on (dest for deliveries)
};

/// Exploration hook: picks which of the currently enabled events runs
/// next. `enabled` is sorted by (at, seq) and has at least two entries.
class EventChooser {
 public:
  struct Choice {
    Nanos at = 0;
    std::uint64_t seq = 0;
    EventTag tag;
  };
  virtual ~EventChooser() = default;
  virtual std::size_t choose(const std::vector<Choice>& enabled) = 0;
};

class EventLoop {
 public:
  void schedule(Nanos delay, std::function<void()> fn) {
    schedule_tagged(delay, EventTag{}, std::move(fn));
  }
  void schedule_tagged(Nanos delay, EventTag tag, std::function<void()> fn);

  /// Runs one event; returns false when the queue is empty.
  bool step();

  /// Runs until `pred()` is true or virtual `deadline` passes (deadline <0
  /// = unbounded). Returns whether the predicate was met.
  bool run_until(const std::function<bool()>& pred, Nanos deadline = -1);

  /// Advances exactly `duration` of virtual time, draining due events.
  void run_for(Nanos duration);

  [[nodiscard]] Nanos now() const { return clock_.now(); }
  [[nodiscard]] VirtualClock& clock() { return clock_; }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  /// Events executed since construction (the simscale bench's numerator).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Installs (or clears, with nullptr) the exploration chooser. Deliveries
  /// within `window` of the earliest pending event become a choice point
  /// when more than one event is enabled. The chooser is only consulted on
  /// genuine branches; pure timer steps run in timestamp order.
  void set_chooser(EventChooser* chooser, Nanos window) {
    chooser_ = chooser;
    window_ = window;
  }

 private:
  /// Heap entry: the ordering key plus the pool slot of its payload.
  struct Key {
    Nanos at = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  struct Event {
    EventTag tag;
    std::function<void()> fn;
  };

  /// Heap index of the event the installed chooser picks.
  std::size_t pick_explored() const;
  /// Removes heap entry `i` and returns its key.
  Key take(std::size_t i);

  VirtualClock clock_;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;

  std::vector<Key> heap_;  // min-heap on (at, seq)
  std::vector<Event> pool_;
  std::vector<std::uint32_t> free_slots_;

  EventChooser* chooser_ = nullptr;
  Nanos window_ = 0;
};

}  // namespace sdvm::sim
