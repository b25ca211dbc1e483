#include "sim/process.hpp"

#include <cstdlib>
#include <type_traits>

#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace pisces::sim {

/// Heap-pinned: `ctx` must not move after fiber::make().
struct detail::Fiber {
  fiber::Stack stack{fiber::kStackBytes};
  fiber::Context ctx;
};

Process::Process(Engine& engine, std::uint64_t id, std::string name, Body body)
    : engine_(engine), id_(id), name_(std::move(name)), body_(std::move(body)) {}

Process::~Process() = default;

void Process::fiber_main(void* self_v) {
  auto* self = static_cast<Process*>(self_v);
  if (!self->kill_requested_) {
    try {
      self->body_(*self);
    } catch (const ProcessKilled&) {
      // Normal kill unwind.
    } catch (...) {
      self->engine_.note_failure(std::current_exception());
    }
  }
  self->finish();
  // The body has fully unwound; this fiber is never resumed again, so the
  // dying switch lets ASan retire its fake stack and run_slice free the
  // real one.
  fiber::switch_to(self->fiber_->ctx, self->engine_.host_ctx_,
                   /*from_dying=*/true);
  std::abort();  // unreachable: nothing switches back into a dead fiber
}

void Process::finish() {
  body_ = nullptr;  // release any captured state promptly
  state_ = State::finished;
  engine_.on_process_finished();
}

void Process::run_slice() {
  if (state_ == State::finished) return;
  if (fiber_ == nullptr) {
    if (kill_requested_) {
      // Killed before the body ever started: no stack is needed, the
      // process goes straight to finished.
      finish();
      return;
    }
    fiber_ = std::make_unique<detail::Fiber>();
    fiber::make(fiber_->ctx, fiber_->stack, &Process::fiber_main, this);
  }
  state_ = State::running;
  fiber::switch_to(engine_.host_ctx_, fiber_->ctx);
  // Once the body has finished its stack is dead weight; drop it now rather
  // than at reap time so churny workloads stay flat.
  if (state_ == State::finished) fiber_.reset();
}

void Process::switch_to_engine() {
  fiber::switch_to(fiber_->ctx, engine_.host_ctx_);
}

bool Process::wait_until(Tick deadline) {
  if (kill_requested_) throw ProcessKilled{};
  const std::uint64_t epoch = ++wait_epoch_;
  timed_out_ = false;
  state_ = State::blocked;
  if (deadline != kForever) schedule_resume(deadline, /*timeout=*/true, epoch);
  switch_to_engine();
  if (kill_requested_) throw ProcessKilled{};
  return timed_out_;
}

void Process::sleep_until(Tick at) {
  if (kill_requested_) throw ProcessKilled{};
  // Nothing can run before the wake tick: advance the clock in place.
  if (engine_.try_advance(at)) return;
  const std::uint64_t epoch = ++wait_epoch_;
  timed_out_ = false;
  state_ = State::blocked;
  schedule_resume(at, /*timeout=*/false, epoch);
  switch_to_engine();
  if (kill_requested_) throw ProcessKilled{};
}

void Process::schedule_resume(Tick at, bool timeout, std::uint64_t epoch) {
  // The timeout flag rides in the epoch's low bit: with just `this` and one
  // word captured, std::function stores the closure inline (no malloc).
  auto resume = [this, tagged = (epoch << 1) | std::uint64_t{timeout}] {
    if ((tagged >> 1) != wait_epoch_) return;  // stale: the wait already ended
    if (state_ != State::blocked && state_ != State::runnable &&
        state_ != State::created) {
      return;
    }
    timed_out_ = (tagged & 1) != 0;
    run_slice();
  };
  static_assert(sizeof(resume) <= 2 * sizeof(void*) &&
                    std::is_trivially_copyable_v<decltype(resume)>,
                "resume closure must fit std::function's inline buffer");
  engine_.schedule(at, std::move(resume));
}

}  // namespace pisces::sim
