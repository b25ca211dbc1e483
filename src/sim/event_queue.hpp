#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace pisces::sim {

/// Time-ordered queue of simulation events. Events at the same tick fire in
/// insertion order (a stable tiebreak is essential for determinism).
///
/// Two stores back the queue:
///  - A binary heap (std::push_heap/std::pop_heap on a std::vector) for
///    events at future ticks. An explicit heap rather than
///    std::priority_queue: pop() moves the action out of the popped element
///    directly, with no const_cast of top() needed.
///  - A FIFO fast path for events scheduled *at the tick currently being
///    processed* — the dominant wake/resume pattern, where a process is
///    rescheduled at `now` once per handoff. These skip the O(log n)
///    push_heap/pop_heap churn entirely. The FIFO is a ring that keeps
///    its slots between ticks, so steady-state pushes never allocate (a
///    std::deque frees and reallocates a chunk every few events).
///
/// Ordering stays exact: every event carries a global sequence number and
/// pop() always removes the (tick, seq)-minimum of both stores. The FIFO
/// only ever holds events for a single tick (the one last popped); if the
/// clock moves past them — only possible when a caller pushes a tick below
/// the current one, which the Engine never does — they are spilled back
/// into the heap before the tick advances.
class EventQueue {
 public:
  using Action = std::function<void()>;

  void push(Tick at, Action action) {
    if (has_current_ && at == current_tick_) {
      fifo_.push_back(Event{at, next_seq_++, std::move(action)});
      return;
    }
    heap_.push_back(Event{at, next_seq_++, std::move(action)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  [[nodiscard]] bool empty() const { return heap_.empty() && fifo_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size() + fifo_.size(); }

  /// Tick of the earliest pending event. Queue must be non-empty.
  [[nodiscard]] Tick next_tick() const {
    if (fifo_.empty()) return heap_.front().at;
    if (heap_.empty()) return fifo_.front().at;
    return std::min(heap_.front().at, fifo_.front().at);
  }

  /// The clock moved to `at` without a pop (Engine::try_advance advanced a
  /// sleep in place). Valid only when no event is due at or before `at`, so
  /// the FIFO is empty; later pushes at `at` take the same-tick fast path.
  void advance_to(Tick at) {
    assert(empty() || next_tick() > at);
    current_tick_ = at;
    has_current_ = true;
  }

  /// Remove and return the earliest event's action. Queue must be non-empty.
  Action pop(Tick* at = nullptr) {
    Event event = pop_min();
    if (!has_current_ || event.at != current_tick_) {
      // The clock is moving: any fast-path leftovers belong to an older
      // tick (possible only with out-of-order pushes) — return them to the
      // heap so future pops still see the exact (tick, seq) order.
      spill_fifo();
      current_tick_ = event.at;
      has_current_ = true;
    }
    if (at != nullptr) *at = event.at;
    return std::move(event.action);
  }

 private:
  struct Event {
    Tick at;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// FIFO on a power-of-two ring of reused slots; grows by doubling.
  class Ring {
   public:
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] const Event& front() const { return slots_[head_]; }
    void push_back(Event e) {
      if (size_ == slots_.size()) grow();
      slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(e);
      ++size_;
    }
    Event take_front() {
      Event e = std::move(slots_[head_]);
      head_ = (head_ + 1) & (slots_.size() - 1);
      --size_;
      return e;
    }

   private:
    void grow() {
      std::vector<Event> bigger(std::max<std::size_t>(8, slots_.size() * 2));
      for (std::size_t i = 0; i < size_; ++i) {
        bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
      }
      slots_ = std::move(bigger);
      head_ = 0;
    }

    std::vector<Event> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  Event pop_min() {
    bool from_fifo;
    if (fifo_.empty()) {
      from_fifo = false;
    } else if (heap_.empty()) {
      from_fifo = true;
    } else {
      const Event& f = fifo_.front();
      const Event& h = heap_.front();
      from_fifo = f.at < h.at || (f.at == h.at && f.seq < h.seq);
    }
    if (from_fifo) {
      return fifo_.take_front();
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event event = std::move(heap_.back());
    heap_.pop_back();
    return event;
  }

  void spill_fifo() {
    while (!fifo_.empty()) {
      heap_.push_back(fifo_.take_front());
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
  }

  std::vector<Event> heap_;
  Ring fifo_;  ///< events at current_tick_, in seq order
  Tick current_tick_ = 0;
  bool has_current_ = false;
  std::uint64_t next_seq_ = 0;
};

}  // namespace pisces::sim
