// Host-time benchmark of the PISCES 2 simulator.
//
//   pisces_perfbench --workload <pingpong|churn|stencil|lossy> --seed <n>
//                    --seconds <s> --trace <0|1> [--size tiny|full]
//                    [--expect-seed <n> --expect <fingerprint>]
//                    [--spans <path>] [--print-fingerprint]
//
// --trace 0 prints the end-to-end metrics of untraced runs; --trace 1 prints
// the per-layer metrics of a separate traced run (plus untraced runs for the
// tracing overhead). The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every simulated instance passes through the correctness gate (see gate()).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "calls.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace flex = pisces::flex;
namespace mmos = pisces::mmos;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif
#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::optional<std::uint64_t> expect_seed;
  std::string expect;
  std::string spans_path;
  bool print_fingerprint = false;
};

/// One assembled FLEX/32 + MMOS + PISCES runtime on the fiber backend,
/// whatever PISCES_SIM_THREADS says.
struct Sim {
  sim::Engine engine{sim::Backend::fibers};
  flex::Machine machine{engine};
  mmos::System system{machine};
  std::unique_ptr<rt::Runtime> runtime;
  explicit Sim(config::Configuration cfg)
      : runtime(std::make_unique<rt::Runtime>(system, std::move(cfg))) {}
};

/// Exact simulated counts of one instance, read through public
/// introspection after it ends.
struct Counts {
  double events = 0, procs = 0, dispatches = 0, msgs = 0, initiates_held = 0;
  double heap_allocs = 0, heap_peak = 0, heap_full_waits = 0;
  double bus_transfers = 0, bus_wait = 0;
  double retransmits = 0, acks = 0, dup_drops = 0, delivered = 0, copies_sent = 0;
  double trace_records = 0;
};

struct InstanceResult {
  bool ok = true;
  std::string why;
  std::string fingerprint;
  std::int64_t wall_ns = 0;
  std::int64_t ops = 0;
  Counts counts;
};

/// The simulated-tick fingerprint: final tick, messages accepted, tasks
/// finished and bus totals. A host-time-only change must leave it as is.
std::string fingerprint(Sim& s) {
  const auto& st = s.runtime->stats();
  const auto bus = s.machine.interconnect().totals();
  return "tick=" + std::to_string(s.engine.now()) +
         " accepted=" + std::to_string(st.messages_accepted) +
         " finished=" + std::to_string(st.tasks_finished) +
         " bus_transfers=" + std::to_string(bus.transfers) +
         " bus_busy=" + std::to_string(bus.busy_ticks) +
         " bus_wait=" + std::to_string(bus.wait_ticks);
}

/// Run-level checks shared by every workload; the workload's own
/// app-level reference check runs last.
template <class W>
bool gate(const W& w, Sim& s, bool timed_out, std::string& why) {
  const auto& st = s.runtime->stats();
  const auto& heap = s.runtime->message_heap();
  if (s.engine.backend() != sim::Backend::fibers) {
    why = "engine is not on the fiber backend";
  } else if (timed_out) {
    why = "run hit the time limit";
  } else if (st.dead_letters != 0 || st.accept_timeouts != 0 || st.send_failures != 0) {
    why = "dead letters " + std::to_string(st.dead_letters) + ", accept timeouts " +
          std::to_string(st.accept_timeouts) + ", send failures " +
          std::to_string(st.send_failures);
  } else if (heap.in_use() != 0 || heap.live_blocks() != 0) {
    why = "message heap did not drain (" + std::to_string(heap.in_use()) + " bytes live)";
  } else if (st.tasks_finished != w.expected_tasks()) {
    why = "tasks finished " + std::to_string(st.tasks_finished) + ", expected " +
          std::to_string(w.expected_tasks());
  } else {
    for (const auto& k : s.system.kernels()) {
      if (!k->live_count_consistent()) {
        why = "kernel live count inconsistent on PE " + std::to_string(k->pe());
        return false;
      }
    }
    return w.check(*s.runtime, why);
  }
  return false;
}

Counts counts_of(Sim& s) {
  Counts c;
  const auto& st = s.runtime->stats();
  c.events = static_cast<double>(s.engine.events_fired());
  for (const auto& k : s.system.kernels()) {
    c.procs += static_cast<double>(k->procs().size());
    c.dispatches += static_cast<double>(k->dispatches());
  }
  c.msgs = static_cast<double>(st.messages_sent);
  c.initiates_held = static_cast<double>(st.initiates_held);
  c.heap_allocs = static_cast<double>(s.runtime->message_heap().total_allocations());
  c.heap_peak = static_cast<double>(s.runtime->message_heap().peak_in_use());
  c.heap_full_waits = static_cast<double>(st.heap_full_waits);
  const auto bus = s.machine.interconnect().totals();
  c.bus_transfers = static_cast<double>(bus.transfers);
  c.bus_wait = static_cast<double>(bus.wait_ticks);
  c.retransmits = static_cast<double>(st.retransmits);
  c.acks = static_cast<double>(st.acks_sent);
  c.dup_drops = static_cast<double>(st.dup_drops);
  c.delivered = static_cast<double>(st.reliable_delivered);
  c.copies_sent = static_cast<double>(st.reliable_copies_sent);
  for (int k = 0; k < pisces::trace::kEventKindCount; ++k) {
    c.trace_records += static_cast<double>(
        s.runtime->tracer().count(static_cast<pisces::trace::EventKind>(k)));
  }
  return c;
}

/// Boot and run one instance of workload `w`. The untraced instance lets
/// Runtime::run drive the engine; the traced one drives it with
/// Engine::step() and spans every step.
template <bool kTraced, class W>
InstanceResult run_instance(W& w, SpanLog* log, Recorded* rec) {
  w.reset();
  Sim s(w.configuration());
  w.template install<kTraced>(*s.runtime, Calls<kTraced>(log, rec));
  s.runtime->boot();
  if constexpr (kTraced) log->reset();
  bool timed_out = false;
  const std::int64_t t0 = now_ns();
  w.start(*s.runtime);
  if constexpr (kTraced) {
    const sim::Tick deadline = s.engine.now() + s.runtime->configuration().time_limit;
    while (s.engine.pending_events() > 0 && s.engine.now() <= deadline) {
      log->begin_step();
      s.engine.step();
      log->end_step(s.engine.pending_events(), s.runtime->message_heap().live_blocks());
    }
    timed_out = s.engine.pending_events() > 0;
  } else {
    s.runtime->run();
    timed_out = s.runtime->timed_out();
  }
  InstanceResult r;
  r.wall_ns = now_ns() - t0;
  r.ops = w.ops();
  r.fingerprint = fingerprint(s);
  r.ok = gate(w, s, timed_out, r.why);
  r.counts = counts_of(s);
  return r;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

/// Nearest-rank percentile (p in (0, 1]) of `v`; sorts `v`.
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto idx = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  idx = std::clamp<std::size_t>(idx, 1, v.size()) - 1;
  return v[idx];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Tallies the ops of every instance a run executes. Any gate failure fails
/// the whole run: every op it attempted counts as failed.
struct Tally {
  bool correct = true;
  std::int64_t attempted = 0;
  std::string first_failure;

  void add(const InstanceResult& r, const std::string& reference_fp) {
    attempted += r.ops;
    if (!r.ok) {
      fail(r.why);
    } else if (r.fingerprint != reference_fp) {
      fail("fingerprint changed between instances: " + r.fingerprint + " vs " + reference_fp);
    }
  }
  void fail(const std::string& why) {
    if (correct) first_failure = why;
    correct = false;
  }
  [[nodiscard]] std::int64_t failed() const { return correct ? 0 : attempted; }
};

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit << "\n";
  }
  if (!t.correct) std::cout << "# correctness gate FAILED: " << t.first_failure << "\n";
  std::cout << "{\"correct\": " << (t.correct ? "true" : "false")
            << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed()
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
              << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// The run's fastest instances. The host this was built on swings between
/// a contended and an uncontended speed that each last seconds (same
/// pingpong code: ~210k vs ~310k round trips/s), so a median over all
/// instances measures how long each mode lasted. Host-time metrics come from
/// the fastest `keep` instances (kKeep unless a caller needs more samples):
/// the code's speed when it has the core to itself.
class Fastest {
 public:
  static constexpr std::size_t kKeep = 3;
  explicit Fastest(std::size_t keep = kKeep) : keep_(keep) {}

  void add(const InstanceResult& r, const std::vector<std::int64_t>& op_ns,
           std::vector<double> setup_s) {
    const double rate =
        static_cast<double>(r.ops) / (static_cast<double>(r.wall_ns) * 1e-9);
    all_.push_back(rate);
    Kept k{rate, op_ns, std::move(setup_s)};
    if (kept_.size() < keep_) {
      kept_.push_back(std::move(k));
      return;
    }
    auto slowest = std::min_element(kept_.begin(), kept_.end(), [](const Kept& a, const Kept& b) {
      return a.rate < b.rate;
    });
    if (rate > slowest->rate) *slowest = std::move(k);
  }
  [[nodiscard]] std::size_t seen() const { return all_.size(); }
  /// Median ops per host second of the kept instances.
  [[nodiscard]] double ops_per_s() const {
    std::vector<double> r;
    for (const Kept& k : kept_) r.push_back(k.rate);
    return median(r);
  }
  /// Host time of every op of the kept instances, in us.
  [[nodiscard]] std::vector<double> op_us() const {
    std::vector<double> v;
    for (const Kept& k : kept_) {
      for (const std::int64_t ns : k.op_ns) v.push_back(static_cast<double>(ns) * 1e-3);
    }
    return v;
  }
  [[nodiscard]] std::vector<double> setup_s() const {
    std::vector<double> v;
    for (const Kept& k : kept_) v.insert(v.end(), k.setup_s.begin(), k.setup_s.end());
    return v;
  }
  /// Print the instance and sample counts behind the percentiles.
  void describe(std::vector<double>& op_us) const {
    const double p99 = percentile(op_us, 0.99);
    const auto beyond = op_us.end() - std::upper_bound(op_us.begin(), op_us.end(), p99);
    std::cout << "# " << all_.size() << " untraced instances (median " << number(median(all_))
              << " ops/s); the fastest " << kept_.size() << " give " << op_us.size()
              << " op samples, " << beyond << " beyond p99\n";
  }

 private:
  struct Kept {
    double rate = 0;
    std::vector<std::int64_t> op_ns;
    std::vector<double> setup_s;
  };
  std::size_t keep_;
  std::vector<Kept> kept_;
  std::vector<double> all_;
};

/// Host time from a Configuration to a booted Runtime, `n` times.
template <class W>
void time_setups(W& w, int n, std::vector<double>& setup_s, std::vector<double>& boot_ns) {
  for (int i = 0; i < n; ++i) {
    config::Configuration cfg = w.configuration();
    const std::int64_t t0 = now_ns();
    Sim s(std::move(cfg));
    w.template install<false>(*s.runtime, Calls<false>(nullptr, nullptr));
    const std::int64_t tb = now_ns();
    s.runtime->boot();
    const std::int64_t t1 = now_ns();
    setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    boot_ns.push_back(static_cast<double>(t1 - tb));
  }
}

template <class W>
int run(const Options& o) {
  W w(o.seed, o.tiny);
  std::cout << "# meta {\"workload\": \"" << W::kName << "\", \"seed\": " << o.seed
            << ", \"size\": \"" << (o.tiny ? "tiny" : "full") << "\", \"trace\": " << o.trace
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
            << __VERSION__ << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"backend\": \"fibers\"}\n";

  if (o.print_fingerprint) {
    const InstanceResult r = run_instance<false>(w, nullptr, nullptr);
    std::cout << r.fingerprint << "\n";
    if (!r.ok) std::cerr << "correctness gate failed: " << r.why << "\n";
    return r.ok ? 0 : 1;
  }

  Tally tally;
  if (o.expect_seed.has_value()) {
    // The committed fingerprint for this seed's slot: catches any change
    // that moves a simulated tick, not just nondeterminism within a run.
    W golden(*o.expect_seed, o.tiny);
    const InstanceResult g = run_instance<false>(golden, nullptr, nullptr);
    if (!g.ok || g.fingerprint != o.expect) {
      tally.fail("seed " + std::to_string(*o.expect_seed) + " fingerprint " +
                        g.fingerprint + " != committed " + o.expect +
                        (g.ok ? "" : " (" + g.why + ")"));
    }
  }

  // Warm-up instance: fills caches and fiber-stack pools, and fixes the
  // fingerprint every later instance of this seed must reproduce.
  const InstanceResult warm = run_instance<false>(w, nullptr, nullptr);
  const std::string& ref_fp = warm.fingerprint;
  tally.add(warm, ref_fp);
  const Counts counts = warm.counts;

  const std::int64_t budget_ns = static_cast<std::int64_t>(o.seconds * 1e9);
  const std::int64_t start = now_ns();
  std::vector<double> setup_s;
  std::vector<double> boot_ns;
  std::vector<Metric> metrics;

  if (o.trace == 0) {
    Fastest fastest;
    do {
      std::vector<double> setups;
      time_setups(w, 5, setups, boot_ns);
      const InstanceResult r = run_instance<false>(w, nullptr, nullptr);
      tally.add(r, ref_fp);
      fastest.add(r, w.op_ns(), std::move(setups));
    } while (now_ns() - start < budget_ns || fastest.seen() < Fastest::kKeep);
    std::vector<double> op_us = fastest.op_us();
    fastest.describe(op_us);
    metrics = {
        {"ops_per_s", fastest.ops_per_s(), "ops/s"},
        {"op_p50_us", percentile(op_us, 0.50), "us"},
        {"setup_s", median(fastest.setup_s()), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    print_result(tally, metrics);
    return 0;
  }

  // --trace 1: untraced and traced instances alternate for most of the
  // budget, then the replays run.
  time_setups(w, o.tiny ? 10 : 50, setup_s, boot_ns);
  SpanLog log;
  Recorded rec;
  // Enough of the fastest untraced instances for 2000 op samples, so the
  // p99 has at least 20 beyond it.
  const auto per_instance = static_cast<std::size_t>(w.ops());
  Fastest untraced(std::max(Fastest::kKeep, (2000 + per_instance - 1) / per_instance));
  Fastest traced;
  std::array<std::vector<double>, kSpanNames> self_medians;
  double depth_sum = 0, heap_blocks_sum = 0;
  const auto traced_budget = static_cast<std::int64_t>(static_cast<double>(budget_ns) * 0.8);
  do {
    const InstanceResult u = run_instance<false>(w, nullptr, nullptr);
    tally.add(u, ref_fp);
    untraced.add(u, w.op_ns(), {});
    const InstanceResult t = run_instance<true>(w, &log, &rec);
    tally.add(t, ref_fp);
    traced.add(t, {}, {});
    for (std::size_t n = 0; n < kSpanNames; ++n) {
      const auto& v = log.self_ns()[n];
      if (!v.empty()) self_medians[n].push_back(median({v.begin(), v.end()}));
    }
    depth_sum += log.mean_queue_depth();
    heap_blocks_sum += log.mean_heap_live_blocks();
  } while (now_ns() - start < traced_budget || traced.seen() < 2);
  const double traced_runs = static_cast<double>(traced.seen());
  std::vector<double> op_us = untraced.op_us();
  untraced.describe(op_us);

  if (!o.spans_path.empty()) {
    std::filesystem::path p(o.spans_path);
    if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
    std::ofstream out(p);
    log.write_tsv(out);
    std::cout << "# spans of the last traced instance: " << o.spans_path << "\n";
  }

  ReplayInputs in;
  in.cfg = w.configuration();
  in.queue_depth = depth_sum / traced_runs;
  in.heap_live_blocks = heap_blocks_sum / traced_runs;
  in.traffic = &rec;
  const double replay_budget =
      std::max(0.1, static_cast<double>(budget_ns - (now_ns() - start)) * 1e-9);
  const ReplayResults rp = run_replays(in, replay_budget);

  const double ops = static_cast<double>(w.ops());
  const double ns_per_op = 1e9 / untraced.ops_per_s();
  const auto per_op = [ops](double count) { return count / ops; };
  auto self_p50 = [&](SpanName n) { return median(self_medians[static_cast<std::size_t>(n)]); };
  std::vector<double> force_sync = self_medians[static_cast<std::size_t>(SpanName::barrier)];
  force_sync.insert(force_sync.end(),
                    self_medians[static_cast<std::size_t>(SpanName::allreduce)].begin(),
                    self_medians[static_cast<std::size_t>(SpanName::allreduce)].end());

  const double events_per_op = per_op(counts.events);
  const double msgs_per_op = per_op(counts.msgs);
  std::map<std::string, double> share;
  share["sim"] = (rp.resume_ns_per_event * events_per_op +
                  rp.spawn_ns_per_proc * per_op(counts.procs)) / ns_per_op;
  share["mmos"] = std::max(0.0, rp.compute_ns_per_call - rp.resume_ns_per_event) *
                  events_per_op / ns_per_op;
  share["flex.heap"] = rp.heap_ns_per_alloc * per_op(counts.heap_allocs) / ns_per_op;
  share["flex.bus"] = rp.bus_ns_per_transfer * per_op(counts.bus_transfers) / ns_per_op;
  share["core.msgq"] = rp.msgq_ns_per_msg * msgs_per_op / ns_per_op;
  share["core.value"] = rp.value_copy_ns_per_msg * msgs_per_op / ns_per_op;
  share["trace"] = rp.record_off_ns * per_op(counts.trace_records) / ns_per_op;
  double claimed = 0;
  for (const auto& [name, v] : share) claimed += v;

  metrics = {
      {"sim.events_per_op", events_per_op, "count"},
      {"sim.step_self_ns_p50", self_p50(SpanName::step), "ns"},
      {"sim.eventq_ns_per_op", rp.eventq_ns_per_event * events_per_op, "ns"},
      {"sim.resume_ns_per_event", rp.resume_ns_per_event, "ns"},
      {"sim.procs_per_op", per_op(counts.procs), "count"},
      {"sim.spawn_ns_per_proc", rp.spawn_ns_per_proc, "ns"},
      {"mmos.dispatches_per_op", per_op(counts.dispatches), "count"},
      {"mmos.compute_ns_per_call", rp.compute_ns_per_call, "ns"},
      {"flex.heap_allocs_per_op", per_op(counts.heap_allocs), "count"},
      {"flex.heap_ns_per_alloc", rp.heap_ns_per_alloc, "ns"},
      {"flex.heap_peak_bytes", counts.heap_peak, "bytes"},
      {"flex.bus_transfers_per_op", per_op(counts.bus_transfers), "count"},
      {"flex.bus_wait_ticks_per_op", per_op(counts.bus_wait), "ticks"},
      {"flex.bus_ns_per_transfer", rp.bus_ns_per_transfer, "ns"},
      {"core.msgs_per_op", msgs_per_op, "count"},
      {"core.host_ns_per_msg", counts.msgs > 0 ? ns_per_op / msgs_per_op : 0.0, "ns"},
      {"core.send_self_ns_p50", self_p50(SpanName::send), "ns"},
      {"core.accept_self_ns_p50", self_p50(SpanName::accept), "ns"},
      {"core.initiate_self_ns_p50", self_p50(SpanName::initiate), "ns"},
      {"core.initiates_held_per_op", per_op(counts.initiates_held), "count"},
      {"core.heap_full_waits_per_op", per_op(counts.heap_full_waits), "count"},
      {"core.window_read_self_ns_p50", self_p50(SpanName::window_read), "ns"},
      {"core.window_write_self_ns_p50", self_p50(SpanName::window_write), "ns"},
      {"core.broadcast_self_ns_p50", self_p50(SpanName::broadcast), "ns"},
      {"core.presched_self_ns_p50", self_p50(SpanName::presched), "ns"},
      {"core.force_sync_self_ns_p50", median(force_sync), "ns"},
      {"core.msgq_ns_per_op", rp.msgq_ns_per_msg * msgs_per_op, "ns"},
      {"core.value_copy_ns_per_msg", rp.value_copy_ns_per_msg, "ns"},
      {"core.reliable.retransmits_per_op", per_op(counts.retransmits), "count"},
      {"core.reliable.acks_per_op", per_op(counts.acks), "count"},
      {"core.reliable.dup_drops_per_op", per_op(counts.dup_drops), "count"},
      {"core.reliable.useful_ratio",
       counts.copies_sent > 0 ? counts.delivered / counts.copies_sent : 0.0, "ratio"},
      {"trace.records_per_op", per_op(counts.trace_records), "count"},
      {"trace.record_off_ns", rp.record_off_ns, "ns"},
      {"config.validate_ns", rp.validate_ns, "ns"},
      {"core.boot_ns", median(boot_ns), "ns"},
  };
  for (const auto& [name, v] : share) metrics.push_back({"est_share." + name, v, "share"});
  metrics.push_back({"est_share.unattributed", 1.0 - claimed, "share"});
  metrics.push_back({"op_p99_us", percentile(op_us, 0.99), "us"});
  metrics.push_back(
      {"trace_overhead_ratio", untraced.ops_per_s() / traced.ops_per_s() - 1.0, "ratio"});
  metrics.push_back({"fail_ratio",
                     tally.attempted > 0 ? static_cast<double>(tally.failed()) /
                                               static_cast<double>(tally.attempted)
                                         : 1.0,
                     "ratio"});
  print_result(tally, metrics);
  return 0;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (a == "--print-fingerprint") {
      o.print_fingerprint = true;
      continue;
    }
    if (!(v = value())) return false;
    try {
      if (a == "--workload") o.workload = *v;
      else if (a == "--seed") o.seed = std::stoull(*v);
      else if (a == "--seconds") o.seconds = std::stod(*v);
      else if (a == "--trace") o.trace = std::stoi(*v);
      else if (a == "--size") o.tiny = *v == "tiny";
      else if (a == "--expect-seed") o.expect_seed = std::stoull(*v);
      else if (a == "--expect") o.expect = *v;
      else if (a == "--spans") o.spans_path = *v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
    if (a == "--size" && *v != "tiny" && *v != "full") return false;
  }
  return !o.workload.empty() && (o.trace == 0 || o.trace == 1) && o.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (!kOptimized || kSanitized) {
    std::cerr << "pisces_perfbench: this is an unoptimised or sanitizer build ("
              << PERFBENCH_BUILD_TYPE << "); it reports no host times\n";
    return 3;
  }
  Options o;
  if (!parse(argc, argv, o)) {
    std::cerr << "usage: pisces_perfbench --workload <pingpong|churn|stencil|lossy> "
                 "--seed <n> --seconds <s> --trace <0|1> [--size tiny|full] "
                 "[--expect-seed <n> --expect <fingerprint>] [--spans <path>] "
                 "[--print-fingerprint]\n";
    return 2;
  }
  try {
    if (o.workload == Pingpong::kName) return run<Pingpong>(o);
    if (o.workload == Churn::kName) return run<Churn>(o);
    if (o.workload == Stencil::kName) return run<Stencil>(o);
    if (o.workload == Lossy::kName) return run<Lossy>(o);
  } catch (const std::exception& e) {
    std::cerr << "pisces_perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "pisces_perfbench: unknown workload '" << o.workload << "'\n";
  return 2;
}
