// E7 (extension) — the simulation substrate itself: fiber-backed process
// scheduling. Every other bench and every tier-1 test runs on sim::Engine,
// so the cost of one engine<->process handoff is the deepest wall-clock
// lever in the reproduction. This bench measures it directly: process
// lifecycle cost, context-switch throughput, a 20-PE many-task end-to-end
// run, and the EventQueue same-tick fast path.
//
// Unlike the other benches, most numbers here are HOST wall-clock times and
// vary by machine; the tick/event columns are deterministic.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "flex/fault.hpp"
#include "flex/interconnect.hpp"
#include "sim/event_queue.hpp"

using namespace pisces;
using namespace pisces::bench;

namespace {

double elapsed_ns(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Full process lifecycle: spawn, run a trivial body once, tear down the
/// engine (which reaps stacks). Returns ns per process.
double lifecycle_ns_per_process(int n) {
  const auto start = std::chrono::steady_clock::now();
  {
    sim::Engine eng;
    for (int i = 0; i < n; ++i) {
      sim::Process& p = eng.spawn("p", [](sim::Process&) {});
      eng.schedule(0, [&eng, &p] { eng.wake(p); });
    }
    eng.run();
  }
  return elapsed_ns(start) / n;
}

struct SwitchResult {
  double ns_per_switch = 0;
  double switches_per_sec = 0;
  sim::Tick final_tick = 0;
};

/// Context-switch throughput: `procs` processes each yield `iters` times via
/// sleep_until(now+1); every slice is one switch into the body and one back.
SwitchResult switch_throughput(int procs, int iters) {
  sim::Engine eng;
  for (int i = 0; i < procs; ++i) {
    sim::Process& p = eng.spawn("s", [iters, &eng](sim::Process& self) {
      for (int k = 0; k < iters; ++k) self.sleep_until(eng.now() + 1);
    });
    eng.schedule(0, [&eng, &p] { eng.wake(p); });
  }
  const auto start = std::chrono::steady_clock::now();
  const sim::Tick final_tick = eng.run();
  const double ns = elapsed_ns(start);
  const double switches = 2.0 * procs * iters;
  return {ns / switches, switches / (ns / 1e9), final_tick};
}

struct EndToEnd {
  sim::Tick final_tick = 0;
  std::uint64_t events = 0;
  double wall_ms = 0;
};

/// 20-PE end-to-end: the Section 9 machine (clusters 1-4 on PEs 3-6, force
/// PEs 7-20) churning through waves of short-lived worker tasks — the
/// dynamic-task pattern that stresses spawn, handoff, and reaping at once.
EndToEnd end_to_end_20pe(int waves = 8, int workers_per_wave = 12) {
  Sim sim(config::Configuration::section9_example());
  sim.rt().register_tasktype("worker", [](rt::TaskContext& ctx) {
    ctx.compute(10'000 * (1 + ctx.self().slot % 5));
    ctx.send(rt::Dest::Parent(), "done");
  });
  EndToEnd r;
  const auto start = std::chrono::steady_clock::now();
  run_main(sim, [&](rt::TaskContext& ctx) {
    for (int w = 0; w < waves; ++w) {
      for (int i = 0; i < workers_per_wave; ++i) {
        ctx.initiate(rt::Where::Cluster(1 + i % 4), "worker");
      }
      int done = 0;
      while (done < workers_per_wave) {
        auto res = ctx.accept(rt::AcceptSpec{}.of("done", 4).forever());
        done += res.count("done");
      }
    }
  });
  r.final_tick = sim.engine.now();
  r.events = sim.engine.events_fired();
  r.wall_ms = elapsed_ns(start) / 1e6;
  return r;
}

// ---------------------------------------------------------------------------
// EventQueue same-tick fast path: the pre-optimization queue (pure binary
// heap) is reproduced here as the "before" baseline.
// ---------------------------------------------------------------------------

class HeapOnlyQueue {
 public:
  using Action = std::function<void()>;
  void push(sim::Tick at, Action action) {
    heap_.push_back(Event{at, next_seq_++, std::move(action)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  Action pop(sim::Tick* at = nullptr) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event event = std::move(heap_.back());
    heap_.pop_back();
    if (at != nullptr) *at = event.at;
    return std::move(event.action);
  }

 private:
  struct Event {
    sim::Tick at;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

/// The engine's hot pattern: a backlog of future events is always pending
/// while each tick generates and consumes several same-tick wake events.
template <typename Queue>
double event_queue_ns_per_event(int ticks, int same_tick_events, int backlog) {
  Queue q;
  for (int i = 0; i < backlog; ++i) {
    q.push(1'000'000 + i, [] {});
  }
  std::uint64_t fired = 0;
  auto noop = [&fired] { ++fired; };
  const auto start = std::chrono::steady_clock::now();
  for (int t = 1; t <= ticks; ++t) {
    q.push(t, noop);
    sim::Tick at = 0;
    q.pop(&at)();  // enters tick t
    for (int k = 0; k < same_tick_events; ++k) {
      q.push(at, noop);  // wake scheduled at the current tick
      q.pop(&at)();
    }
  }
  const double events = static_cast<double>(fired);
  return elapsed_ns(start) / events;
}

/// Same JSON trajectory-point shape as the other benches.
struct JsonReport {
  std::ostringstream body;
  bool first_section = true;

  void begin_section(const std::string& name) {
    body << (first_section ? "" : ",\n") << "    \"" << name << "\": [";
    first_section = false;
  }
  void end_section() { body << "]"; }

  void write(const std::string& path) const {
    std::ofstream os(path);
    os << "{\n"
       << "  \"schema\": \"pisces-bench-engine-v1\",\n"
       << "  \"units\": \"host wall-clock ns unless noted; ticks/events are "
          "deterministic\",\n"
       << "  \"sections\": {\n"
       << body.str() << "\n"
       << "  }\n"
       << "}\n";
    std::cout << "\nwrote " << path << "\n";
  }
};

// The JSON rows keep their "backend": "fibers" label so the committed
// baseline stays comparable with earlier runs.
void spawn_table(JsonReport& report) {
  banner("E7a: process lifecycle cost (spawn + one slice + teardown)");
  Table t({"processes", "ns/process"});
  report.begin_section("process_lifecycle");
  constexpr int n = 8192;
  const double ns = lifecycle_ns_per_process(n);
  t.row(n, static_cast<long>(ns));
  report.body << "{\"backend\": \"fibers\", \"processes\": " << n
              << ", \"ns_per_process\": " << static_cast<long>(ns) << "}";
  report.end_section();
  note("Each fiber allocates a guard-paged stack lazily at first run.");
}

void switch_table(JsonReport& report) {
  banner("E7b: engine<->process switch throughput (32 procs x 1000 yields)");
  Table t({"ns/switch", "switches/sec", "final tick"});
  report.begin_section("switch_throughput");
  const SwitchResult r = switch_throughput(32, 1000);
  t.row(static_cast<long>(r.ns_per_switch),
        static_cast<long>(r.switches_per_sec), r.final_tick);
  report.body << "{\"backend\": \"fibers\", \"ns_per_switch\": "
              << static_cast<long>(r.ns_per_switch)
              << ", \"switches_per_sec\": "
              << static_cast<long>(r.switches_per_sec)
              << ", \"final_tick\": " << r.final_tick << "}";
  report.end_section();
}

void end_to_end_table(JsonReport& report) {
  banner("E7c: 20-PE end-to-end task churn (Section 9 machine, 96 tasks)");
  Table t({"wall ms", "final tick", "events"});
  report.begin_section("end_to_end_20pe");
  const EndToEnd r = end_to_end_20pe();
  t.row(static_cast<long>(r.wall_ms), r.final_tick, r.events);
  report.body << "{\"backend\": \"fibers\", \"wall_ms\": "
              << static_cast<long>(r.wall_ms)
              << ", \"final_tick\": " << r.final_tick
              << ", \"events_fired\": " << r.events << "}";
  report.end_section();
}

void event_queue_table(JsonReport& report) {
  banner("E7d: EventQueue same-tick FIFO fast path (4 wakes/tick, 4k backlog)");
  Table t({"implementation", "ns/event"});
  report.begin_section("event_queue_same_tick");
  const double heap_ns =
      event_queue_ns_per_event<HeapOnlyQueue>(200'000, 4, 4096);
  const double fifo_ns =
      event_queue_ns_per_event<sim::EventQueue>(200'000, 4, 4096);
  t.row("heap only (before)", static_cast<long>(heap_ns));
  t.row("fifo fast path (after)", static_cast<long>(fifo_ns));
  report.body << "{\"impl\": \"heap_only_before\", \"ns_per_event\": "
              << static_cast<long>(heap_ns)
              << "}, {\"impl\": \"fifo_fastpath_after\", \"ns_per_event\": "
              << static_cast<long>(fifo_ns) << "}";
  report.end_section();
  note("Same-tick wakes skip push_heap/pop_heap churn against the backlog.");
}

/// Host-side cost of the per-transfer fault draw. Runtime::post() draws one
/// verdict for every bus transfer even when the plan injects nothing, so this
/// is a fixed host-side tax on the messaging hot path — measured here for
/// both the quiet plan (the common case) and an active mixed plan.
double fault_draw_ns(const flex::FaultPlan& plan, int draws) {
  flex::FaultInjector inj(plan);
  std::uint64_t acc = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < draws; ++i) {
    acc += static_cast<std::uint64_t>(inj.next_bus_fault());
  }
  benchmark::DoNotOptimize(acc);
  return elapsed_ns(start) / draws;
}

void fault_rng_table(JsonReport& report) {
  banner("E7e: per-transfer fault Rng draw overhead (host ns/draw)");
  Table t({"plan", "ns/draw"});
  report.begin_section("fault_rng_overhead");
  constexpr int kDraws = 2'000'000;
  flex::FaultPlan quiet;
  flex::FaultPlan mixed;
  mixed.bus_loss = 0.01;
  mixed.bus_duplication = 0.01;
  mixed.bus_delay_probability = 0.01;
  const double quiet_ns = fault_draw_ns(quiet, kDraws);
  const double mixed_ns = fault_draw_ns(mixed, kDraws);
  t.row("quiet (no bus faults)", quiet_ns);
  t.row("mixed (1% lose/dup/delay)", mixed_ns);
  report.body << "{\"plan\": \"quiet\", \"ns_per_draw\": " << quiet_ns
              << "}, {\"plan\": \"mixed_1pct\", \"ns_per_draw\": " << mixed_ns
              << "}";
  report.end_section();
  note("one uniform draw per transfer keeps the stream position a pure\n"
       "function of the transfer count (replay determinism); the quiet-plan\n"
       "number is the fixed host tax every message send pays for it.");
}

/// Pre-index partition check: scan the whole plan per query, the behaviour
/// Runtime::post() had before PartitionIndex (kept here as the baseline).
bool partitioned_linear(const std::vector<flex::PartitionIndex::Window>& ws,
                        int a, int b, sim::Tick now) {
  for (const auto& w : ws) {
    const bool pair = (w.a == a && w.b == b) || (w.a == b && w.b == a);
    if (pair && now >= w.from && now < w.until) return true;
  }
  return false;
}

std::vector<flex::PartitionIndex::Window> partition_windows(int n) {
  std::vector<flex::PartitionIndex::Window> ws;
  ws.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Early bursty windows between a handful of cluster pairs: they all
    // expire long before the bulk of the run's transfers, which is the
    // "quiet plan" shape the index keeps O(1).
    ws.push_back({1 + i % 4, 5 + i % 3, static_cast<sim::Tick>(i) * 1'000,
                  static_cast<sim::Tick>(i) * 1'000 + 500});
  }
  return ws;
}

void partition_check_table(JsonReport& report) {
  banner("E7e+: per-transfer partition-window check (host ns/query)");
  Table t({"windows", "indexed ns/query", "linear-scan ns/query"});
  report.begin_section("partition_check_overhead");
  constexpr int kQueries = 2'000'000;
  bool first = true;
  for (int n : {0, 16, 128, 1024}) {
    const auto ws = partition_windows(n);
    flex::FaultPlan plan;
    for (const auto& w : ws) {
      plan.bus_partitions.push_back({w.a, w.b, w.from, w.until});
    }
    flex::FaultInjector inj(plan);
    std::uint64_t acc = 0;
    auto start = std::chrono::steady_clock::now();
    for (int q = 0; q < kQueries; ++q) {
      // Monotonic ticks, like simulation time: the index drains its active
      // set once the windows expire and answers in O(1) regardless of n.
      acc += inj.partitioned(1, 5, static_cast<sim::Tick>(q) * 4) ? 1u : 0u;
    }
    benchmark::DoNotOptimize(acc);
    const double indexed_ns = elapsed_ns(start) / kQueries;
    acc = 0;
    start = std::chrono::steady_clock::now();
    for (int q = 0; q < kQueries; ++q) {
      acc += partitioned_linear(ws, 1, 5, static_cast<sim::Tick>(q) * 4) ? 1u : 0u;
    }
    benchmark::DoNotOptimize(acc);
    const double linear_ns = elapsed_ns(start) / kQueries;
    t.row(n, indexed_ns, linear_ns);
    report.body << (first ? "" : ", ") << "{\"windows\": " << n
                << ", \"indexed_ns_per_query\": " << indexed_ns
                << ", \"linear_ns_per_query\": " << linear_ns << "}";
    first = false;
  }
  report.end_section();
  note("the indexed check stays ~flat as the plan grows; the linear scan\n"
       "(pre-index baseline) grows with the window count on every transfer.");
}

// ---------------------------------------------------------------------------
// E7f — interconnect scaling: the reason the topology layer exists. A spread
// ping-pong workload (one driver/echo pair per configured cluster, primaries
// spread over the whole PE range, ~2 KB payloads) keeps all payload traffic
// intra-cluster: per-cluster buses carry it in parallel under `hier`, while
// the single shared bus serializes everything.
// ---------------------------------------------------------------------------

struct ScalePoint {
  sim::Tick done_tick = 0;  // tick of the last pong (stale accept timers
                            // park the engine clock at the delay horizon,
                            // so rt.run()'s return value is not the metric)
  double wall_ms = 0;
  sim::Tick sum_wait = 0;
  sim::Tick max_bus_wait = 0;
  std::size_t buses = 0;
  bool ok = false;
};

ScalePoint interconnect_scale_run(int pe_count, flex::Topology kind) {
  sim::Engine eng;
  flex::MachineSpec mspec;
  mspec.pe_count = pe_count;
  if (kind != flex::Topology::shared) {
    mspec.topology.kind = kind;
    mspec.topology.pes_per_cluster = 16;
  }
  flex::Machine machine(eng, mspec);
  mmos::System sys{machine};
  config::Configuration cfg;
  cfg.name = "interconnect-scaling";
  const int n_clusters = pe_count / 8;
  for (int i = 0; i < n_clusters; ++i) {
    config::ClusterConfig c;
    c.number = i + 1;
    c.primary_pe = 3 + (i * (pe_count - 3)) / n_clusters;
    c.slots = 4;
    c.has_terminal = (i == 0);
    cfg.clusters.push_back(std::move(c));
  }
  cfg.time_limit = 20'000'000'000;
  rt::Runtime rt(sys, std::move(cfg));

  constexpr int kRounds = 4;
  int pongs = 0;
  sim::Tick last_pong = 0;
  const std::vector<double> payload(256, 1.5);  // ~2 KB per message
  rt.register_tasktype("echo", [](rt::TaskContext& ctx) {
    ctx.on_message("ping", [](rt::TaskContext& c, const rt::Message& m) {
      c.send(rt::Dest::Sender(), "pong", {m.args.at(0)});
    });
    ctx.send(rt::Dest::Parent(), "hello", {rt::Value(ctx.self())});
    ctx.accept(rt::AcceptSpec{}.of("ping", kRounds).delay_for(15'000'000'000));
  });
  rt.register_tasktype("driver", [&pongs, &payload, &last_pong,
                                  &eng](rt::TaskContext& ctx) {
    rt::TaskId kid{};
    ctx.on_message("hello", [&kid](rt::TaskContext&, const rt::Message& m) {
      kid = m.args.at(0).as_taskid();
    });
    ctx.on_message("pong", [&pongs, &last_pong, &eng](rt::TaskContext&,
                                                      const rt::Message&) {
      ++pongs;
      last_pong = std::max(last_pong, eng.now());
    });
    ctx.initiate(rt::Where::Same(), "echo");
    ctx.accept(rt::AcceptSpec{}.of("hello").delay_for(15'000'000'000));
    for (int r = 0; r < kRounds; ++r) {
      ctx.send(rt::Dest::To(kid), "ping", {rt::Value(payload)});
      ctx.accept(rt::AcceptSpec{}.of("pong").delay_for(15'000'000'000));
    }
  });
  const auto start = std::chrono::steady_clock::now();
  rt.boot();
  for (int i = 0; i < n_clusters; ++i) rt.user_initiate(i + 1, "driver");
  ScalePoint out;
  rt.run();
  out.done_tick = last_pong;
  out.wall_ms = elapsed_ns(start) / 1e6;
  const flex::Interconnect& ic = machine.interconnect();
  out.buses = ic.bus_count();
  for (std::size_t i = 0; i < ic.bus_count(); ++i) {
    const sim::Tick w = ic.bus_at(i).wait_ticks();
    out.sum_wait += w;
    out.max_bus_wait = std::max(out.max_bus_wait, w);
  }
  out.ok = !rt.timed_out() && pongs == n_clusters * kRounds;
  return out;
}

void interconnect_scaling_table(JsonReport& report) {
  banner("E7f: interconnect scaling — spread ping-pong, shared vs hierarchical "
         "(PEs on the x-axis)");
  Table t({"PEs", "topology", "done tick", "wall ms", "sum wait", "max bus wait",
           "buses"});
  report.begin_section("interconnect_scaling");
  bool first = true;
  sim::Tick shared_tick_128 = 0;
  sim::Tick hier_tick_128 = 0;
  for (int pes : {32, 64, 128, 256, 512, 1024}) {
    for (auto kind : {flex::Topology::shared, flex::Topology::hier}) {
      const ScalePoint r = interconnect_scale_run(pes, kind);
      const char* name = flex::topology_name(kind);
      if (pes == 128 && kind == flex::Topology::shared) shared_tick_128 = r.done_tick;
      if (pes == 128 && kind == flex::Topology::hier) hier_tick_128 = r.done_tick;
      t.row(pes, name, r.done_tick, static_cast<long>(r.wall_ms * 100) / 100.0,
            r.sum_wait, r.max_bus_wait, r.buses);
      report.body << (first ? "" : ", ") << "{\"pes\": " << pes
                  << ", \"topology\": \"" << name
                  << "\", \"done_tick\": " << r.done_tick
                  << ", \"wall_ms\": " << r.wall_ms
                  << ", \"sum_wait_ticks\": " << r.sum_wait
                  << ", \"max_bus_wait_ticks\": " << r.max_bus_wait
                  << ", \"buses\": " << r.buses
                  << ", \"completed\": " << (r.ok ? "true" : "false") << "}";
      first = false;
    }
  }
  const double speedup = hier_tick_128 > 0
                             ? static_cast<double>(shared_tick_128) /
                                   static_cast<double>(hier_tick_128)
                             : 0.0;
  report.body << ", {\"hier_speedup_at_128_pes_x\": "
              << static_cast<long>(speedup * 100) / 100.0 << "}";
  report.end_section();
  std::ostringstream msg;
  msg << "hierarchical completion-tick speedup at 128 PEs: "
      << static_cast<long>(speedup * 100) / 100.0
      << "x (acceptance floor: >1x — per-cluster buses drain in parallel)";
  note(msg.str());
}

// ---- google-benchmark micros over the same code paths -------------------

void BM_SwitchFibers(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(switch_throughput(8, 500).final_tick);
  }
}
BENCHMARK(BM_SwitchFibers)->Unit(benchmark::kMillisecond);

void BM_SpawnTeardownFibers(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(lifecycle_ns_per_process(512));
  }
}
BENCHMARK(BM_SpawnTeardownFibers)->Unit(benchmark::kMillisecond);

void BM_EventQueueSameTick(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        event_queue_ns_per_event<sim::EventQueue>(20'000, 4, 4096));
  }
}
BENCHMARK(BM_EventQueueSameTick)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "PISCES 2 reproduction — E7: simulation-engine substrate "
               "(fiber scheduling)\n";
  std::string json_path = "BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
      for (int j = i; j < argc - 1; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  JsonReport report;
  spawn_table(report);
  switch_table(report);
  end_to_end_table(report);
  event_queue_table(report);
  fault_rng_table(report);
  partition_check_table(report);
  interconnect_scaling_table(report);
  report.write(json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
