#pragma once

// Span recording for the traced run. Spans are taken from outside the
// simulator: one span per Engine::step() fired by the benchmark's own loop,
// and one span per public runtime call made from the benchmark's task
// bodies. Everything stays in memory until the instance ends; the untraced
// run never constructs a SpanLog (see Calls<false> in workloads.hpp).

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "mmos/proc.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What a span covers. `step` is one Engine::step(); the rest are the
/// TaskContext / ForceContext calls the workloads make.
enum class SpanName : std::uint8_t {
  step,
  send,
  accept,
  initiate,
  broadcast,
  window_read,
  window_write,
  presched,
  barrier,
  allreduce,
};
inline constexpr std::size_t kSpanNames = 10;
const char* span_name(SpanName n);

struct Span {
  std::int64_t start = 0;   ///< ns, relative to the instance start
  std::int64_t end = 0;
  std::int64_t parent = -1; ///< index of the causing span (-1 for steps)
  std::int64_t op = -1;     ///< workload op the call belongs to (-1: none)
  pisces::rt::TaskId task{};
  SpanName name = SpanName::step;
};

/// Collects spans for one traced instance and derives self times online.
///
/// A call span opened on task fiber F covers every step fired while F was
/// switched out. Its self time is its duration minus the steps that resumed
/// other work, minus the self time of calls nested inside it. A step counts
/// as F's own when F's Proc gained CPU ticks during it (every resume from a
/// COMPUTE charge does); the step that opens or closes the call counts for
/// the part after the open / before the close.
class SpanLog {
 public:
  /// Start a new instance: drop the previous instance's spans.
  void reset();

  void begin_step();
  void end_step(std::size_t pending_events, std::size_t heap_live_blocks);

  /// Open a call span on the fiber running `proc`; returns its handle.
  std::size_t open(SpanName name, pisces::rt::TaskId task,
                   pisces::mmos::Proc& proc, std::int64_t op);
  void close(std::size_t handle);

  /// Per-name self times (ns) of this instance; index by SpanName. For
  /// `step`, the step's duration minus the parts claimed by call spans.
  [[nodiscard]] const std::array<std::vector<std::int64_t>, kSpanNames>&
  self_ns() const {
    return self_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double mean_queue_depth() const;
  [[nodiscard]] double mean_heap_live_blocks() const;

  /// Tab-separated dump: id, parent, name, start_ns, end_ns, task, op.
  void write_tsv(std::ostream& os) const;

 private:
  struct Open {
    std::size_t span = 0;
    pisces::mmos::Proc* proc = nullptr;
    pisces::sim::Tick cpu = 0;     ///< proc CPU ticks at the last check
    std::size_t opened_step = 0;   ///< step index the call opened in
    std::int64_t self = 0;         ///< own time so far
    std::int64_t children = 0;     ///< self time of nested calls
    bool top = true;               ///< no enclosing call on this fiber
  };

  std::int64_t origin_ = 0;
  std::size_t step_index_ = 0;
  std::size_t step_span_ = 0;
  std::int64_t step_start_ = 0;
  std::int64_t claimed_ = 0;  ///< ns of the current step claimed by calls
  std::vector<Span> spans_;
  std::vector<Open> open_;
  std::array<std::vector<std::int64_t>, kSpanNames> self_;
  double depth_sum_ = 0;
  double heap_blocks_sum_ = 0;
  std::size_t depth_samples_ = 0;
};

}  // namespace perfbench
