// Golden trace of the transport and recovery paths: one traced run with a
// PE halt and recovery (work migration on), bus loss, duplication and
// delay, a partition, a heap outage, the reliable transport and
// supervision. Every Record::format() line must match the committed golden
// file byte for byte, so the texts these paths trace are pinned, not just
// their ticks. On a mismatch the test writes the run's lines to
// `trace_golden.actual.txt` in its working directory; a change that means
// to alter the trace copies that file over the golden one.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/runtime.hpp"
#include "session/supervisor.hpp"
#include "trace/sink.hpp"

namespace pisces::rt {
namespace {

std::string run_scenario() {
  sim::Engine eng;
  flex::Machine machine{eng};
  mmos::System sys{machine};
  config::Configuration cfg = config::Configuration::simple(3, 4);
  cfg.clusters[1].slots = 1;  // cluster 2 holds initiates when PE 4 halts
  cfg.trace.kind_on.fill(true);
  cfg.reliable.enabled = true;
  cfg.reliable.max_retries = 2;  // the partitioned results give up
  cfg.supervision.enabled = true;
  cfg.supervision.max_restarts = 2;
  cfg.supervision.backoff_base = 500'000;
  cfg.supervision.migrate = true;
  flex::FaultPlan& f = cfg.faults;
  f.seed = 11;
  f.bus_loss = 0.05;
  f.bus_duplication = 0.05;
  f.bus_delay_probability = 0.15;
  f.bus_delay_ticks = 40'000;
  f.bus_partitions.push_back({1, 3, 1'500'000, 3'000'000});
  f.heap_outages.push_back({2'450'000, 2'600'000});
  f.pe_halts.push_back({4, 1'999'400});
  f.pe_recoveries.push_back({4, 5'000'000});
  cfg.time_limit = 60'000'000;
  const config::SupervisionConfig scfg = cfg.supervision;
  Runtime rt(sys, std::move(cfg));
  session::Supervisor sup(rt, scfg);
  trace::MemorySink sink;
  rt.tracer().add_sink(&sink);

  rt.register_tasktype("worker", [](TaskContext& ctx) {
    ctx.compute(1'000'000);
    ctx.send(Dest::Parent(), "result", {Value(ctx.self())});
    ctx.accept(AcceptSpec{}.of("ping").delay_for(2'000'000));
    ctx.send(Dest::Parent(), "pong");
  });
  // Sleeps until the tick in its argument, then initiates on cluster 2. Two
  // of them land there 43 ticks apart just before PE 4 halts, so the halt
  // finds one _INITIATE still queued (migrate-message) besides the two the
  // controller holds for its busy slot (migrate-initiate).
  rt.register_tasktype("late", [](TaskContext& ctx) {
    const sim::Tick wait = ctx.args().at(0).as_int() - ctx.runtime().engine().now();
    (void)ctx.accept(AcceptSpec{}.of("never").delay_for(wait));
    ctx.initiate(Where::Cluster(2), "worker");
  });
  rt.register_tasktype("master", [](TaskContext& ctx) {
    std::vector<TaskId> kids;
    ctx.on_message("result", [&kids](TaskContext&, const Message& m) {
      kids.push_back(m.args.at(0).as_taskid());
    });
    ctx.initiate(Where::Cluster(1), "late", {Value(std::int64_t{1'999'100})});
    ctx.initiate(Where::Cluster(3), "late", {Value(std::int64_t{1'999'000})});
    for (int i = 0; i < 3; ++i) ctx.initiate(Where::Cluster(2), "worker");
    for (int i = 0; i < 2; ++i) ctx.initiate(Where::Cluster(3), "worker");
    ctx.initiate(Where::Any(), "worker");
    (void)ctx.accept(AcceptSpec{}.of("result", 8).all_of("_CHILDTERM")
                         .all_of("_SUPFAIL").all_of("_SENDFAIL")
                         .delay_for(12'000'000));
    for (const TaskId& k : kids) ctx.send(Dest::To(k), "ping");
    (void)ctx.broadcast("hello", {Value(std::int64_t{1})});
    (void)ctx.accept(AcceptSpec{}.of("pong", static_cast<int>(kids.size()))
                         .all_of("_CHILDTERM").all_of("_SUPFAIL")
                         .all_of("_SENDFAIL").delay_for(8'000'000));
  });
  rt.boot();
  rt.user_initiate(1, "master");
  rt.run();

  std::ostringstream os;
  for (const trace::Record& r : sink.records()) os << r.format() << '\n';
  return os.str();
}

TEST(TraceGolden, TransportAndRecoveryScenarioMatchesGolden) {
  const std::string actual = run_scenario();
  std::ifstream in(TRACE_GOLDEN_FILE);
  ASSERT_TRUE(in.good()) << "missing golden file " << TRACE_GOLDEN_FILE;
  std::stringstream expected;
  expected << in.rdbuf();
  if (actual != expected.str()) {
    std::ofstream("trace_golden.actual.txt") << actual;
    std::istringstream a(actual), e(expected.str());
    std::string la, le;
    int line = 1;
    while (std::getline(a, la) && std::getline(e, le) && la == le) ++line;
    FAIL() << "trace differs from the golden file at line " << line
           << "\n  expected: " << le << "\n  actual:   " << la;
  }
  EXPECT_EQ(run_scenario(), actual);  // and the run replays identically
}

}  // namespace
}  // namespace pisces::rt
