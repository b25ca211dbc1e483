#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/event.hpp"
#include "trace/sink.hpp"

namespace pisces::trace {

/// Event-trace controller: "Tracing may be turned on and off for each type
/// of event and each task" (Section 12). Per-task settings override the
/// per-kind defaults; counters are kept for every kind regardless of
/// filtering so system statistics stay cheap.
class Tracer {
 public:
  /// Enable/disable a kind globally (default: all off).
  void set_kind(EventKind k, bool on) { kind_on_[index(k)] = on; }
  void set_all(bool on) { kind_on_.fill(on); }

  /// Per-task override for one kind; clear_task removes all overrides.
  void set_task(rt::TaskId task, EventKind k, bool on) {
    task_overrides_[task][index(k)] = on;
  }
  void clear_task(rt::TaskId task) { task_overrides_.erase(task); }

  [[nodiscard]] bool enabled(EventKind k, rt::TaskId task) const {
    auto it = task_overrides_.find(task);
    if (it != task_overrides_.end() && it->second[index(k)].has_value()) {
      return *it->second[index(k)];
    }
    return kind_on_[index(k)];
  }

  /// Sinks receive records that pass the filter. The Tracer keeps a
  /// non-owning pointer; the sink must outlive it.
  void add_sink(Sink* sink) { sinks_.push_back(sink); }

  void record(Record r) {
    if (tally(r.kind, r.task)) emit(r);
  }
  /// As record(), from the fields: the record is built only when a sink
  /// will take it.
  void record(EventKind kind, sim::Tick at, rt::TaskId task, rt::TaskId other,
              int pe, std::uint64_t seq, const std::string& info) {
    if (tally(kind, task)) emit(Record{kind, at, pe, task, other, seq, info});
  }

  /// The first half of record(): count one event of kind `k` for `task`
  /// and say whether a sink will take its record. A caller that gets false
  /// need not build the record at all.
  [[nodiscard]] bool tally(EventKind k, rt::TaskId task) {
    ++counts_[index(k)];
    return !sinks_.empty() && enabled(k, task);
  }
  /// The second half: hand a record that tally() admitted to every sink.
  void emit(const Record& r) {
    for (Sink* s : sinks_) s->emit(r);
  }

  /// Total events of a kind observed (filtered or not).
  [[nodiscard]] std::uint64_t count(EventKind k) const { return counts_[index(k)]; }

 private:
  static std::size_t index(EventKind k) { return static_cast<std::size_t>(k); }

  std::array<bool, kEventKindCount> kind_on_{};
  std::array<std::uint64_t, kEventKindCount> counts_{};
  std::map<rt::TaskId, std::array<std::optional<bool>, kEventKindCount>>
      task_overrides_;
  std::vector<Sink*> sinks_;
};

}  // namespace pisces::trace
