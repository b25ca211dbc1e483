#pragma once

// The public runtime calls the workloads' task bodies make, wrapped so the
// traced run can span them. Calls<false> forwards straight to the runtime
// and keeps no span state at all; Calls<true> opens a span around each call
// and records the message types, sizes and argument vectors the replay
// micro-timings reuse.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "spans.hpp"

namespace perfbench {

namespace rt = pisces::rt;

/// Message traffic the traced run saw leaving the task bodies, kept for the
/// replays (capped: the replays only need a representative sample).
struct Recorded {
  static constexpr std::size_t kCap = 4096;
  std::vector<std::string> types;
  std::vector<std::size_t> bytes;
  std::vector<std::vector<rt::Value>> args;

  void note(const std::string& type, const std::vector<rt::Value>& a) {
    if (types.size() >= kCap) return;
    types.push_back(type);
    bytes.push_back(rt::Message::kHeaderBytes + rt::encoded_args_size(a));
    args.push_back(a);
  }
};

template <bool kTraced>
class Scope {
 public:
  Scope(SpanLog*, SpanName, rt::TaskId, pisces::mmos::Proc&, std::int64_t) {}
};

template <>
class Scope<true> {
 public:
  Scope(SpanLog* log, SpanName name, rt::TaskId task, pisces::mmos::Proc& proc,
        std::int64_t op)
      : log_(log), handle_(log->open(name, task, proc, op)) {}
  ~Scope() { log_->close(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::size_t handle_;
};

template <bool kTraced>
class Calls {
 public:
  Calls(SpanLog* log, Recorded* rec) : log_(log), rec_(rec) {}

  bool send(rt::TaskContext& c, std::int64_t op, rt::Dest d, std::string type,
            std::vector<rt::Value> args = {}) {
    if constexpr (kTraced) rec_->note(type, args);
    Scope<kTraced> s(log_, SpanName::send, c.self(), c.proc(), op);
    return c.send(d, std::move(type), std::move(args));
  }
  rt::AcceptResult accept(rt::TaskContext& c, std::int64_t op, rt::AcceptSpec spec) {
    Scope<kTraced> s(log_, SpanName::accept, c.self(), c.proc(), op);
    return c.accept(std::move(spec));
  }
  void initiate(rt::TaskContext& c, std::int64_t op, rt::Where w, std::string type,
                std::vector<rt::Value> args = {}) {
    if constexpr (kTraced) rec_->note("_INITIATE", args);
    Scope<kTraced> s(log_, SpanName::initiate, c.self(), c.proc(), op);
    c.initiate(w, std::move(type), std::move(args));
  }
  int broadcast(rt::TaskContext& c, std::int64_t op, std::string type,
                std::vector<rt::Value> args = {}) {
    if constexpr (kTraced) rec_->note(type, args);
    Scope<kTraced> s(log_, SpanName::broadcast, c.self(), c.proc(), op);
    return c.broadcast(std::move(type), std::move(args));
  }
  rt::Matrix window_read(rt::TaskContext& c, std::int64_t op, const rt::Window& w) {
    if constexpr (kTraced) {
      rec_->note("_WINREPLY", {rt::Value(std::int64_t{0}),
                               rt::Value(std::vector<double>(w.elements()))});
    }
    Scope<kTraced> s(log_, SpanName::window_read, c.self(), c.proc(), op);
    return c.window_read(w);
  }
  void window_write(rt::TaskContext& c, std::int64_t op, const rt::Window& w,
                    const rt::Matrix& m) {
    if constexpr (kTraced) {
      rec_->note("_WINWRITE", {rt::Value(std::int64_t{0}), rt::Value(w),
                               rt::Value(m.data())});
    }
    Scope<kTraced> s(log_, SpanName::window_write, c.self(), c.proc(), op);
    c.window_write(w, m);
  }

  // Force members share their task's id; the caller passes it in.
  void presched(rt::ForceContext& f, rt::TaskId task, std::int64_t op,
                std::int64_t lo, std::int64_t hi, std::int64_t step,
                const std::function<void(std::int64_t)>& body) {
    Scope<kTraced> s(log_, SpanName::presched, task, f.proc(), op);
    f.presched(lo, hi, step, body);
  }
  void barrier(rt::ForceContext& f, rt::TaskId task, std::int64_t op) {
    Scope<kTraced> s(log_, SpanName::barrier, task, f.proc(), op);
    f.barrier();
  }
  double allreduce(rt::ForceContext& f, rt::TaskId task, std::int64_t op,
                   rt::ForceContext::ReduceOp reduce, double value) {
    Scope<kTraced> s(log_, SpanName::allreduce, task, f.proc(), op);
    return f.allreduce(reduce, value);
  }

 private:
  SpanLog* log_;
  Recorded* rec_;
};

}  // namespace perfbench
