#include "sim/event_loop.hpp"

#include <algorithm>

namespace sdvm::sim {

namespace {

// Strict (at, seq) order, reversed: std::*_heap build max-heaps, so
// ordering by "later" puts the earliest event on top.
template <typename K>
bool later(const K& a, const K& b) {
  return a.at != b.at ? a.at > b.at : a.seq > b.seq;
}

}  // namespace

void EventLoop::schedule_tagged(Nanos delay, EventTag tag,
                                std::function<void()> fn) {
  auto slot = static_cast<std::uint32_t>(pool_.size());
  if (free_slots_.empty()) {
    pool_.push_back(Event{tag, std::move(fn)});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    pool_[slot] = Event{tag, std::move(fn)};
  }
  heap_.push_back(Key{clock_.now() + std::max<Nanos>(delay, 0), ++seq_, slot});
  std::push_heap(heap_.begin(), heap_.end(), later<Key>);
}

EventLoop::Key EventLoop::take(std::size_t i) {
  Key k = heap_[i];
  if (i == 0) {
    std::pop_heap(heap_.begin(), heap_.end(), later<Key>);
    heap_.pop_back();
  } else {
    // Only exploration removes from the middle, on small clusters.
    heap_[i] = heap_.back();
    heap_.pop_back();
    std::make_heap(heap_.begin(), heap_.end(), later<Key>);
  }
  return k;
}

std::size_t EventLoop::pick_explored() const {
  const Nanos horizon = heap_.front().at + window_;

  // Enabled: every delivery within the window (its arrival may be delayed
  // past competitors), plus the earliest internal timer if due within the
  // window (timers cannot be reordered among themselves).
  std::vector<std::size_t> enabled;
  std::size_t first_internal = heap_.size();
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Key& k = heap_[i];
    if (pool_[k.slot].tag.kind == EventTag::Kind::kDelivery) {
      if (k.at <= horizon) enabled.push_back(i);
    } else if (first_internal == heap_.size() ||
               later(heap_[first_internal], k)) {
      first_internal = i;
    }
  }
  if (first_internal != heap_.size() &&
      heap_[first_internal].at <= horizon) {
    enabled.push_back(first_internal);
  }
  if (enabled.size() <= 1) return 0;

  // Deterministic presentation order: (at, seq).
  std::sort(enabled.begin(), enabled.end(), [&](std::size_t a, std::size_t b) {
    return later(heap_[b], heap_[a]);
  });
  std::vector<EventChooser::Choice> choices;
  choices.reserve(enabled.size());
  for (std::size_t i : enabled) {
    const Key& k = heap_[i];
    choices.push_back(EventChooser::Choice{k.at, k.seq, pool_[k.slot].tag});
  }
  std::size_t picked = chooser_->choose(choices);
  return enabled[picked < enabled.size() ? picked : 0];
}

bool EventLoop::step() {
  if (heap_.empty()) return false;
  const Key k = take(chooser_ != nullptr ? pick_explored() : 0);
  // Move the handler out first: it may schedule, which can grow the pool.
  std::function<void()> fn = std::move(pool_[k.slot].fn);
  pool_[k.slot].fn = nullptr;
  free_slots_.push_back(k.slot);
  // An explored (delayed) delivery may carry a timestamp behind the clock.
  clock_.advance_to(std::max(clock_.now(), k.at));
  ++executed_;
  if (fn) fn();
  return true;
}

bool EventLoop::run_until(const std::function<bool()>& pred, Nanos deadline) {
  while (!pred()) {
    if (heap_.empty()) return false;
    if (deadline >= 0 && heap_.front().at > deadline) {
      clock_.advance_to(deadline);
      return false;
    }
    step();
  }
  return true;
}

void EventLoop::run_for(Nanos duration) {
  Nanos deadline = clock_.now() + duration;
  while (!heap_.empty() && heap_.front().at <= deadline) step();
  clock_.advance_to(deadline);
}

}  // namespace sdvm::sim
