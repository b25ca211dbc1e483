#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"

namespace pisces::sim {

/// Every process body runs as a user-level fiber on the engine's host
/// thread; there is no other substrate. The one-value enum, the Engine
/// constructor argument and backend() stay only because the host-time
/// benchmark (perfbench/) names them; they go when that benchmark changes.
enum class Backend { fibers };

/// Discrete-event simulation engine: a virtual clock, a time-ordered event
/// queue, and a set of cooperative processes. This is the substrate on which
/// the FLEX/32 machine model and the MMOS kernel are built.
///
/// Determinism contract: events at equal ticks fire in schedule order; only
/// one process body runs at a time; virtual time advances only between
/// events, or inside a sleep whose resume would be the next event (see
/// try_advance). Given the same inputs, a simulation always produces the
/// same trace.
///
/// An Engine and all its processes run on one host thread: process bodies
/// are fibers switched in and out by the thread that calls run().
class Engine {
 public:
  explicit Engine(Backend backend = Backend::fibers);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Backend backend() const { return Backend::fibers; }
  [[nodiscard]] Tick now() const { return now_; }

  /// Schedule `action` to run at absolute tick `at` (>= now).
  void schedule(Tick at, EventQueue::Action action);
  /// Schedule `action` to run `delay` ticks from now.
  void schedule_in(Tick delay, EventQueue::Action action) {
    schedule(now_ + delay, std::move(action));
  }

  /// Create a process. The body does not start running until wake() is
  /// called on it. The returned reference stays valid for the Engine's
  /// lifetime (finished processes are reaped down to a tombstone, but the
  /// object itself is never destroyed early).
  Process& spawn(std::string name, Process::Body body);

  /// Wake a blocked (or not-yet-started) process at the current tick.
  /// No-op if the process is runnable, running, or finished — callers use
  /// condition-recheck loops, so a redundant wake is harmless.
  void wake(Process& p);

  /// Request that a process unwind and finish. A blocked process is woken
  /// immediately; a running/runnable one unwinds at its next blocking call.
  void kill(Process& p);

  /// Run until the event queue is empty. Returns the final tick.
  Tick run();
  /// Run events with tick <= `limit`. Returns the tick reached. While it
  /// runs, `limit` is the horizon for try_advance().
  Tick run_until(Tick limit);
  /// Fire a single event if one is pending. Returns false when idle.
  bool step();

  /// Processes currently blocked with no pending event to wake them — a
  /// non-empty result after run() indicates deadlock (or tasks waiting for
  /// external input).
  [[nodiscard]] std::vector<const Process*> blocked_processes() const;

  /// Force-unwind every live process (their blocking calls throw
  /// ProcessKilled) and release their stacks. Called automatically
  /// by the destructor; call it earlier when higher-level objects referenced
  /// by process bodies are destroyed before the Engine. Idempotent. After
  /// shutdown, schedule() becomes a no-op and exit callbacks do not run.
  void shutdown_processes();

  /// Move finished processes out of the live set so scans stay proportional
  /// to live processes. Their heavy state (stack, body storage) was
  /// already released when the body finished; what remains is a small
  /// tombstone kept alive so references returned by spawn() stay valid.
  /// Runs automatically every few hundred finishes during run(); public so
  /// long-lived sessions with dynamic task churn can force it at a barrier.
  void reap_finished();

  /// Events dispatched. A sleep advanced in place by try_advance() is not
  /// an event and is not counted.
  [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }
  /// Events still queued (0 after run() unless run_until stopped early).
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::size_t live_process_count() const { return live_count_; }
  /// Finished processes already moved to the tombstone list.
  [[nodiscard]] std::size_t reaped_process_count() const {
    return tombstones_.size();
  }

 private:
  friend class Process;

  /// Called from a sleeping process body: when `at` is within the run
  /// horizon and no queued event is due at or before it, the sleeper's
  /// resume would be the very next event dispatched, so the clock moves to
  /// `at` in place and true is returned (no event, no context switch).
  /// Returns false, changing nothing, when the sleep must be scheduled.
  bool try_advance(Tick at);
  /// Called from a process body that threw (other than ProcessKilled): the
  /// exception is stashed and rethrown from the run loop.
  void note_failure(std::exception_ptr e) { failure_ = std::move(e); }
  /// Bookkeeping when a body finishes (any path).
  void on_process_finished();

  /// Batch size for automatic reaping: big enough that the move is
  /// amortized, small enough that churny sessions stay flat.
  static constexpr std::size_t kReapBatch = 256;

  fiber::Context host_ctx_;  ///< the engine loop's own context
  Tick now_ = 0;
  Tick horizon_ = kForever;  ///< run_until's limit while it runs
  bool shutting_down_ = false;
  EventQueue queue_;
  std::vector<std::unique_ptr<Process>> processes_;   ///< live + not yet reaped
  std::vector<std::unique_ptr<Process>> tombstones_;  ///< finished, reaped
  std::size_t live_count_ = 0;
  std::size_t unreaped_finished_ = 0;
  std::uint64_t next_process_id_ = 1;
  std::uint64_t events_fired_ = 0;
  std::exception_ptr failure_;
};

}  // namespace pisces::sim
