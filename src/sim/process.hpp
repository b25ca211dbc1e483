#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/time.hpp"

namespace pisces::sim {

class Engine;

namespace detail {
/// The fiber a started body runs on: its stack and saved context.
struct Fiber;
}  // namespace detail

/// Thrown out of a blocking call when the process has been killed; the body
/// wrapper catches it to unwind the process's stack. User code must never
/// swallow this type (catch(...) blocks in task bodies must rethrow).
struct ProcessKilled {};

/// A cooperatively scheduled simulated process.
///
/// The Engine enforces a strict one-runnable-at-a-time handshake: at any
/// instant either the engine loop or exactly one process body is executing.
/// Virtual time only advances in the engine loop (or in a process's own
/// sleep when nothing else is due first), so process bodies see a
/// consistent `engine().now()` and the whole simulation is deterministic.
/// Every body runs as a user-level fiber on the thread that calls run().
///
/// Stacks are lazy: no fiber stack exists until the first time the body
/// actually runs, and it is released as soon as the body finishes.
class Process {
 public:
  using Body = std::function<void(Process&)>;

  enum class State {
    created,   ///< spawned, body not yet started
    blocked,   ///< waiting for a wake or timeout
    runnable,  ///< resume event scheduled but not yet fired
    running,   ///< body currently executing
    finished,  ///< body returned or process killed
  };

  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] bool killed() const { return kill_requested_; }

  // ---- Calls below are valid only from inside this process's body. ----

  /// Block until another process/event wakes this one. Throws ProcessKilled
  /// if the process is killed while waiting.
  void wait() { (void)wait_until(kForever); }

  /// Block until woken or until virtual time `deadline`. Returns true if the
  /// deadline fired first (timeout), false if explicitly woken.
  bool wait_until(Tick deadline);

  /// Yield and resume at time `at` (>= now). Other processes run meanwhile.
  /// When no event is due at or before `at` (and `at` is within the run
  /// horizon), the clock advances in place without yielding.
  void sleep_until(Tick at);

 private:
  friend class Engine;

  Process(Engine& engine, std::uint64_t id, std::string name, Body body);

  /// Fiber entry point: runs the body with the kill/failure wrapper, marks
  /// the process finished, and switches back to the engine for good.
  static void fiber_main(void* self);
  /// Engine side: hand control to the body; returns when the process
  /// blocks, yields, or finishes. Creates the fiber on first use and frees
  /// its stack once the body has finished.
  void run_slice();
  /// Process side: hand control back to the engine loop.
  void switch_to_engine();
  /// Schedule a resume event for a blocked process. `timeout` distinguishes
  /// a deadline expiry from an explicit wake.
  void schedule_resume(Tick at, bool timeout, std::uint64_t epoch);
  /// Mark finished and release per-process resources kept for the body.
  void finish();

  Engine& engine_;
  const std::uint64_t id_;
  const std::string name_;
  Body body_;
  State state_ = State::created;

  std::unique_ptr<detail::Fiber> fiber_;  ///< null until started

  std::uint64_t wait_epoch_ = 0;  ///< invalidates stale resume events
  bool timed_out_ = false;        ///< result of the last wait_until
  bool kill_requested_ = false;
};

}  // namespace pisces::sim
