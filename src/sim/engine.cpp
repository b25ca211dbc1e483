#include "sim/engine.hpp"

#include <algorithm>

namespace pisces::sim {

Engine::Engine(Backend /*backend*/) { fiber::capture_host(host_ctx_); }

Engine::~Engine() { shutdown_processes(); }

void Engine::shutdown_processes() {
  shutting_down_ = true;
  // Unwind every live process. Each run_slice hands the body one turn: a
  // never-started body goes straight to finished; a blocked/runnable body
  // throws ProcessKilled from its wait. Index loop: a destructor running
  // inside an unwinding body may spawn (which appends to processes_).
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    Process& p = *processes_[i];
    while (p.state_ != Process::State::finished) {
      p.kill_requested_ = true;
      p.run_slice();
    }
  }
}

void Engine::schedule(Tick at, EventQueue::Action action) {
  if (shutting_down_) return;
  queue_.push(std::max(at, now_), std::move(action));
}

Process& Engine::spawn(std::string name, Process::Body body) {
  processes_.push_back(std::unique_ptr<Process>(
      new Process(*this, next_process_id_++, std::move(name), std::move(body))));
  ++live_count_;
  return *processes_.back();
}

void Engine::wake(Process& p) {
  if (p.state_ == Process::State::blocked || p.state_ == Process::State::created) {
    p.state_ = Process::State::runnable;
    p.schedule_resume(now_, /*timeout=*/false, p.wait_epoch_);
  }
}

void Engine::kill(Process& p) {
  if (p.state_ == Process::State::finished) return;
  p.kill_requested_ = true;
  if (p.state_ == Process::State::blocked || p.state_ == Process::State::created) {
    // Wake it so the kill takes effect now rather than at an arbitrary
    // future wake.
    p.state_ = Process::State::runnable;
    p.schedule_resume(now_, /*timeout=*/false, p.wait_epoch_);
  }
  // A runnable or running process unwinds at its next blocking call.
}

void Engine::on_process_finished() {
  --live_count_;
  ++unreaped_finished_;
}

bool Engine::step() {
  if (queue_.empty()) return false;
  Tick at = 0;
  EventQueue::Action action = queue_.pop(&at);
  now_ = std::max(now_, at);
  ++events_fired_;
  action();
  if (unreaped_finished_ >= kReapBatch) reap_finished();
  if (failure_) {
    std::exception_ptr e = failure_;
    failure_ = nullptr;
    std::rethrow_exception(e);
  }
  return true;
}

Tick Engine::run() {
  while (step()) {
  }
  return now_;
}

Tick Engine::run_until(Tick limit) {
  // The horizon bounds try_advance so a sleep never carries the clock past
  // `limit`; it is restored even when step() rethrows a body failure.
  struct HorizonScope {
    Tick& horizon;
    Tick saved;
    ~HorizonScope() { horizon = saved; }
  } scope{horizon_, horizon_};
  horizon_ = limit;
  while (!queue_.empty() && queue_.next_tick() <= limit) {
    step();
  }
  return now_;
}

bool Engine::try_advance(Tick at) {
  at = std::max(at, now_);
  if (at > horizon_ || (!queue_.empty() && queue_.next_tick() <= at)) {
    return false;
  }
  now_ = at;
  queue_.advance_to(at);
  return true;
}

void Engine::reap_finished() {
  if (unreaped_finished_ == 0) return;
  std::size_t dest = 0;
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    if (processes_[i]->state() == Process::State::finished) {
      tombstones_.push_back(std::move(processes_[i]));
    } else {
      if (dest != i) processes_[dest] = std::move(processes_[i]);
      ++dest;
    }
  }
  processes_.resize(dest);
  unreaped_finished_ = 0;
}

std::vector<const Process*> Engine::blocked_processes() const {
  std::vector<const Process*> out;
  for (const auto& p : processes_) {
    if (p->state() == Process::State::blocked) out.push_back(p.get());
  }
  return out;
}

}  // namespace pisces::sim
