#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "core/msg_queue.hpp"
#include "flex/interconnect.hpp"
#include "flex/machine.hpp"
#include "flex/shared_heap.hpp"
#include "mmos/kernel.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "trace/tracer.hpp"

namespace perfbench {

namespace {

namespace flex = pisces::flex;
namespace mmos = pisces::mmos;
namespace sim = pisces::sim;
namespace trace = pisces::trace;

/// Median ns per call over batches; `batch()` runs some calls and returns
/// how many. At least 3 batches run, more while the budget lasts.
template <class Batch>
double ns_per_call(double budget_s, Batch&& batch) {
  std::vector<double> per;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  do {
    const std::int64_t t0 = now_ns();
    const std::int64_t calls = batch();
    per.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(calls));
  } while (per.size() < 3 || (now_ns() < deadline && per.size() < 41));
  std::nth_element(per.begin(), per.begin() + static_cast<std::ptrdiff_t>(per.size() / 2),
                   per.end());
  return per[per.size() / 2];
}

std::size_t depth_of(double mean) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(mean)));
}

/// Keeps a computed value alive so the replay loop is not optimised away.
volatile std::size_t g_sink = 0;

}  // namespace

ReplayResults run_replays(const ReplayInputs& in, double budget_s) {
  const double each = budget_s / 10.0;
  const Recorded& traffic = *in.traffic;
  const std::vector<std::size_t> bytes =
      traffic.bytes.empty() ? std::vector<std::size_t>{48} : traffic.bytes;
  const std::vector<std::string> types =
      traffic.types.empty() ? std::vector<std::string>{"msg"} : traffic.types;
  const std::size_t depth = depth_of(in.queue_depth);
  constexpr sim::Tick kFar = sim::Tick{1} << 60;
  ReplayResults r;

  // sim: EventQueue push/pop at the workload's depth. The action captures
  // what a process-resume event captures (pointer, flag, epoch).
  r.eventq_ns_per_event = ns_per_call(each, [&] {
    constexpr std::int64_t kCalls = 100'000;
    sim::EventQueue q;
    sim::Rng rng(1);
    void* who = nullptr;
    for (std::size_t d = 0; d < depth; ++d) {
      q.push(rng.range(0, 200), [who, flag = false, epoch = std::uint64_t{0}] {
        (void)who, (void)flag, (void)epoch;
      });
    }
    sim::Tick at = 0;
    for (std::int64_t i = 0; i < kCalls; ++i) {
      auto action = q.pop(&at);
      q.push(at + rng.range(0, 200), [who, flag = true, epoch = std::uint64_t(i)] {
        (void)who, (void)flag, (void)epoch;
      });
    }
    return kCalls;
  });

  // sim: one fiber sleeping in a loop with the queue at the workload's depth.
  r.resume_ns_per_event = ns_per_call(each, [&] {
    constexpr std::int64_t kCalls = 50'000;
    sim::Engine eng(sim::Backend::fibers);
    for (std::size_t d = 1; d < depth; ++d) eng.schedule(kFar, [] {});
    auto& p = eng.spawn("sleeper", [](sim::Process& self) {
      for (std::int64_t i = 0; i < kCalls; ++i) self.sleep_until(self.engine().now() + 1);
    });
    eng.wake(p);
    eng.run_until(kFar - 1);
    return kCalls;
  });

  // sim: spawn -> run -> finish of a trivial process (fiber stack included).
  r.spawn_ns_per_proc = ns_per_call(each, [&] {
    constexpr std::int64_t kCalls = 2'000;
    sim::Engine eng(sim::Backend::fibers);
    for (std::int64_t i = 0; i < kCalls; ++i) {
      eng.wake(eng.spawn("w", [](sim::Process&) {}));
      eng.run();
    }
    return kCalls;
  });

  // mmos: Proc::compute on a PE with nothing else ready, same queue depth.
  r.compute_ns_per_call = ns_per_call(each, [&] {
    constexpr std::int64_t kCalls = 50'000;
    sim::Engine eng(sim::Backend::fibers);
    flex::Machine machine(eng);
    mmos::Kernel kernel(machine, 3);
    for (std::size_t d = 1; d < depth; ++d) eng.schedule(kFar, [] {});
    kernel.create_process("compute", [](mmos::Proc& p) {
      for (std::int64_t i = 0; i < kCalls; ++i) p.compute(1);
    });
    eng.run_until(kFar - 1);
    return kCalls;
  });

  // flex: message-heap allocate/release over the recorded size sequence,
  // keeping the workload's mean number of live blocks.
  const std::size_t live_target = depth_of(in.heap_live_blocks);
  r.heap_ns_per_alloc = ns_per_call(each, [&] {
    constexpr std::int64_t kCalls = 50'000;
    flex::SharedHeap heap(in.cfg.message_heap_bytes);
    std::deque<std::size_t> live;
    for (std::int64_t i = 0; i < kCalls; ++i) {
      const std::size_t size = bytes[static_cast<std::size_t>(i) % bytes.size()];
      auto off = heap.allocate(size);
      while (!off && !live.empty()) {
        heap.release(live.front());
        live.pop_front();
        off = heap.allocate(size);
      }
      if (off) live.push_back(*off);
      if (live.size() > live_target) {
        heap.release(live.front());
        live.pop_front();
      }
    }
    return kCalls;
  });

  // flex: interconnect transfers between the configuration's PEs.
  std::vector<int> pes;
  for (const auto& c : in.cfg.clusters) {
    pes.push_back(c.primary_pe);
    pes.insert(pes.end(), c.secondary_pes.begin(), c.secondary_pes.end());
  }
  const flex::CostModel costs;
  r.bus_ns_per_transfer = ns_per_call(each, [&] {
    constexpr std::int64_t kCalls = 100'000;
    auto ic = flex::make_interconnect(in.cfg.topology, flex::MachineSpec{}.pe_count, costs);
    sim::Rng rng(2);
    sim::Tick now = 0;
    for (std::int64_t i = 0; i < kCalls; ++i) {
      now += rng.range(0, 50);
      const int from = pes[rng.below(pes.size())];
      const int to = pes[rng.below(pes.size())];
      const auto words = flex::Machine::words_for(bytes[static_cast<std::size_t>(i) % bytes.size()]);
      g_sink = g_sink + static_cast<std::size_t>(ic->transfer(now, from, to, words));
    }
    return kCalls;
  });

  // core: per-type in-queue index with the recorded type names.
  r.msgq_ns_per_msg = ns_per_call(each, [&] {
    constexpr std::int64_t kCalls = 100'000;
    pisces::rt::MessageQueue q;
    for (std::int64_t i = 0; i < kCalls; ++i) {
      pisces::rt::Message m;
      m.type = types[static_cast<std::size_t>(i) % types.size()];
      q.push_back(std::move(m));
      if (q.size() > 2) {
        auto it = q.first_of(q.front().type);
        g_sink = g_sink + q.take(it).type.size();
      }
    }
    return kCalls;
  });

  // core: argument-vector copies of the recorded messages.
  const std::vector<std::vector<pisces::rt::Value>> args =
      traffic.args.empty() ? std::vector<std::vector<pisces::rt::Value>>{{}} : traffic.args;
  r.value_copy_ns_per_msg = ns_per_call(each, [&] {
    constexpr std::int64_t kCalls = 20'000;
    for (std::int64_t i = 0; i < kCalls; ++i) {
      std::vector<pisces::rt::Value> copy = args[static_cast<std::size_t>(i) % args.size()];
      g_sink = g_sink + copy.size();
    }
    return kCalls;
  });

  // trace: a record with every kind filtered, info string built as the
  // runtime builds it (a copy of the message type).
  r.record_off_ns = ns_per_call(each, [&] {
    constexpr std::int64_t kCalls = 200'000;
    trace::Tracer tracer;
    for (std::int64_t i = 0; i < kCalls; ++i) {
      trace::Record rec;
      rec.kind = trace::EventKind::msg_send;
      rec.at = i;
      rec.seq = static_cast<std::uint64_t>(i);
      rec.info = types[static_cast<std::size_t>(i) % types.size()];
      tracer.record(std::move(rec));
    }
    return kCalls;
  });

  // config: validation of the workload's configuration.
  const flex::MachineSpec spec;
  r.validate_ns = ns_per_call(each, [&] {
    constexpr std::int64_t kCalls = 2'000;
    for (std::int64_t i = 0; i < kCalls; ++i) g_sink = g_sink + in.cfg.validate(spec).size();
    return kCalls;
  });
  return r;
}

}  // namespace perfbench
