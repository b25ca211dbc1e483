// Tests of the force constructs (Section 7): FORCESPLIT, SHARED COMMON,
// LOCK/CRITICAL, BARRIER (primary executes the body), PRESCHED and
// SELFSCHED loops, PARSEG, and the member-count independence property.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "core/runtime.hpp"

namespace pisces::rt {
namespace {

/// A configuration with one cluster and `secondaries` force PEs.
config::Configuration force_config(int secondaries) {
  config::Configuration cfg = config::Configuration::simple(1);
  for (int i = 0; i < secondaries; ++i) {
    cfg.clusters[0].secondary_pes.push_back(4 + i);
  }
  return cfg;
}

struct Fixture {
  sim::Engine eng;
  flex::Machine machine{eng};
  mmos::System sys{machine};
  std::unique_ptr<Runtime> rt;

  explicit Fixture(config::Configuration cfg) {
    rt = std::make_unique<Runtime>(sys, std::move(cfg));
  }
  Runtime* operator->() { return rt.get(); }
};

/// Run `body` as the single top-level task and drive to completion.
void run_task(Fixture& f, TaskBody body) {
  f->register_tasktype("main", std::move(body));
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  ASSERT_FALSE(f->timed_out());
}

TEST(Force, MemberCountIsOnePlusSecondaries) {
  Fixture f(force_config(3));
  std::set<int> members_seen;
  int size_seen = 0;
  run_task(f, [&](TaskContext& ctx) {
    ctx.forcesplit([&](ForceContext& fc) {
      members_seen.insert(fc.member());
      size_seen = fc.members();
    });
  });
  EXPECT_EQ(size_seen, 4);
  EXPECT_EQ(members_seen, (std::set<int>{1, 2, 3, 4}));
  EXPECT_EQ(f->stats().forcesplits, 1u);
}

TEST(Force, NoSecondariesMeansNoSplitting) {
  Fixture f(force_config(0));
  int calls = 0;
  run_task(f, [&](TaskContext& ctx) {
    ctx.forcesplit([&](ForceContext& fc) {
      ++calls;
      EXPECT_EQ(fc.members(), 1);
      EXPECT_TRUE(fc.is_primary());
    });
  });
  EXPECT_EQ(calls, 1);
}

TEST(Force, MembersRunOnTheConfiguredSecondaryPes) {
  Fixture f(force_config(2));
  std::map<int, int> member_pe;
  run_task(f, [&](TaskContext& ctx) {
    ctx.forcesplit([&](ForceContext& fc) { member_pe[fc.member()] = fc.proc().pe(); });
  });
  EXPECT_EQ(member_pe[1], 3);  // primary PE
  EXPECT_EQ(member_pe[2], 4);
  EXPECT_EQ(member_pe[3], 5);
}

TEST(Force, PrimaryContinuesAloneAfterRegion) {
  Fixture f(force_config(3));
  int after_region = 0;
  run_task(f, [&](TaskContext& ctx) {
    ctx.forcesplit([&](ForceContext& fc) { fc.compute(1000); });
    ++after_region;  // must run exactly once (primary only)
  });
  EXPECT_EQ(after_region, 1);
}

TEST(Force, BarrierBodyRunsOnPrimaryAfterAllArrive) {
  Fixture f(force_config(3));
  std::vector<int> arrivals;
  int body_runs = 0;
  int body_member = 0;
  bool any_after_before_body = false;
  run_task(f, [&](TaskContext& ctx) {
    ctx.forcesplit([&](ForceContext& fc) {
      // Spread out arrival times.
      fc.compute(1000 * fc.member());
      arrivals.push_back(fc.member());
      fc.barrier([&](ForceContext& b) {
        ++body_runs;
        body_member = b.member();
        if (arrivals.size() != 4) any_after_before_body = true;
      });
    });
  });
  EXPECT_EQ(body_runs, 1);
  EXPECT_EQ(body_member, 1);
  EXPECT_FALSE(any_after_before_body);
}

TEST(Force, RepeatedBarriersStayInLockstep) {
  Fixture f(force_config(2));
  std::vector<int> phase_of_member(4, 0);
  bool skew_detected = false;
  run_task(f, [&](TaskContext& ctx) {
    ctx.forcesplit([&](ForceContext& fc) {
      for (int round = 1; round <= 5; ++round) {
        fc.compute(500 * fc.member());
        phase_of_member[static_cast<std::size_t>(fc.member())] = round;
        fc.barrier([&](ForceContext&) {
          for (int m = 1; m <= 3; ++m) {
            if (phase_of_member[static_cast<std::size_t>(m)] != round) {
              skew_detected = true;
            }
          }
        });
      }
    });
  });
  EXPECT_FALSE(skew_detected);
}

TEST(Force, CriticalSectionsAreMutuallyExclusive) {
  Fixture f(force_config(4));
  int in_section = 0;
  int max_in_section = 0;
  std::int64_t counter = 0;
  run_task(f, [&](TaskContext& ctx) {
    auto& lock = ctx.lock_var("L");
    ctx.forcesplit([&](ForceContext& fc) {
      for (int i = 0; i < 10; ++i) {
        fc.critical(lock, [&] {
          ++in_section;
          max_in_section = std::max(max_in_section, in_section);
          fc.compute(137);  // hold the lock across virtual time
          ++counter;
          --in_section;
        });
        fc.compute(50);
      }
    });
  });
  EXPECT_EQ(max_in_section, 1);
  EXPECT_EQ(counter, 50);
}

TEST(Force, LockReleaseByNonOwnerThrows) {
  Fixture f(force_config(0));
  f->register_tasktype("main", [&](TaskContext& ctx) {
    auto& lock = ctx.lock_var("L");
    lock.release(ctx.proc(), ctx.record());
  });
  f->boot();
  f->user_initiate(1, "main");
  EXPECT_THROW(f->run(), std::logic_error);
}

TEST(Force, PreschedPartitionsByResidueClass) {
  Fixture f(force_config(2));  // 3 members
  std::map<int, std::vector<std::int64_t>> taken;
  run_task(f, [&](TaskContext& ctx) {
    ctx.forcesplit([&](ForceContext& fc) {
      fc.presched(1, 10, 1, [&](std::int64_t i) {
        taken[fc.member()].push_back(i);
      });
    });
  });
  // "The Ith force member takes iterations I, N+I, 2*N+I, etc."
  EXPECT_EQ(taken[1], (std::vector<std::int64_t>{1, 4, 7, 10}));
  EXPECT_EQ(taken[2], (std::vector<std::int64_t>{2, 5, 8}));
  EXPECT_EQ(taken[3], (std::vector<std::int64_t>{3, 6, 9}));
}

TEST(Force, PreschedHandlesStepsAndEmptyRanges) {
  Fixture f(force_config(1));
  std::vector<std::int64_t> indices;
  run_task(f, [&](TaskContext& ctx) {
    ctx.forcesplit([&](ForceContext& fc) {
      fc.presched(10, 1, -3, [&](std::int64_t i) {
        if (fc.is_primary()) indices.push_back(i);
      });
      fc.presched(5, 4, 1, [&](std::int64_t) { indices.push_back(-99); });
    });
  });
  // Descending loop 10,7,4,1: primary (member 1) takes positions 0 and 2.
  EXPECT_EQ(indices, (std::vector<std::int64_t>{10, 4}));
}

TEST(Force, SelfschedCoversEachIterationExactlyOnce) {
  Fixture f(force_config(3));
  std::vector<int> hits(40, 0);
  run_task(f, [&](TaskContext& ctx) {
    ctx.forcesplit([&](ForceContext& fc) {
      fc.selfsched(0, 39, 1, [&](std::int64_t i) {
        ++hits[static_cast<std::size_t>(i)];
        fc.compute(100 + 13 * (i % 7));
      });
    });
  });
  for (int i = 0; i < 40; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1) << i;
}

TEST(Force, ConsecutiveSelfschedLoopsDontInterfere) {
  Fixture f(force_config(2));
  std::int64_t sum1 = 0;
  std::int64_t sum2 = 0;
  run_task(f, [&](TaskContext& ctx) {
    auto& lock = ctx.lock_var("sum");
    ctx.forcesplit([&](ForceContext& fc) {
      fc.selfsched(1, 10, 1, [&](std::int64_t i) {
        fc.critical(lock, [&] { sum1 += i; });
      });
      fc.barrier();
      fc.selfsched(1, 20, 1, [&](std::int64_t i) {
        fc.critical(lock, [&] { sum2 += i; });
      });
    });
  });
  EXPECT_EQ(sum1, 55);
  EXPECT_EQ(sum2, 210);
}

TEST(Force, ParsegDistributesSegmentsLikePresched) {
  Fixture f(force_config(1));  // 2 members
  std::map<int, std::vector<int>> segs;
  run_task(f, [&](TaskContext& ctx) {
    ctx.forcesplit([&](ForceContext& fc) {
      fc.parseg({[&] { segs[fc.member()].push_back(0); },
                 [&] { segs[fc.member()].push_back(1); },
                 [&] { segs[fc.member()].push_back(2); }});
    });
  });
  EXPECT_EQ(segs[1], (std::vector<int>{0, 2}));
  EXPECT_EQ(segs[2], (std::vector<int>{1}));
}

TEST(Force, SharedCommonVisibleToAllMembers) {
  Fixture f(force_config(3));
  double result = 0;
  run_task(f, [&](TaskContext& ctx) {
    auto& blk = ctx.shared_common("BLK", 8);
    ctx.forcesplit([&](ForceContext& fc) {
      auto& b = fc.shared_common("BLK", 8);  // same block by name
      b.write(fc.proc(), static_cast<std::size_t>(fc.member() - 1),
              static_cast<double>(fc.member()));
      fc.barrier();
      if (fc.is_primary()) {
        double sum = 0;
        for (int i = 0; i < 4; ++i) {
          sum += b.read(fc.proc(), static_cast<std::size_t>(i));
        }
        result = sum;
      }
    });
    (void)blk;
  });
  EXPECT_EQ(result, 1 + 2 + 3 + 4);
}

TEST(Force, SharedCommonRedeclarationMismatchThrows) {
  Fixture f(force_config(0));
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.shared_common("B", 8);
    ctx.shared_common("B", 16);
  });
  f->boot();
  f->user_initiate(1, "main");
  EXPECT_THROW(f->run(), std::logic_error);
}

TEST(Force, SharedCommonAreaIsFreedAtTaskEnd) {
  Fixture f(force_config(0));
  run_task(f, [&](TaskContext& ctx) {
    ctx.shared_common("B1", 512);
    ctx.shared_common("B2", 1024);
    EXPECT_EQ(f->common_heap().in_use(), (512u + 1024u) * 8);
  });
  EXPECT_EQ(f->common_heap().in_use(), 0u);
}

// Jordan's key property: "The same program text may be executed without
// change by a force of any number of members -- only the performance of the
// program will change, not its semantics."
class ForceSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(ForceSizeTest, SemanticsIndependentOfMemberCount) {
  const int secondaries = GetParam();
  Fixture f(force_config(secondaries));
  std::int64_t dot = 0;
  sim::Tick elapsed = 0;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    auto& lock = ctx.lock_var("acc");
    const sim::Tick start = f.eng.now();
    ctx.forcesplit([&](ForceContext& fc) {
      std::int64_t local = 0;
      fc.presched(1, 200, 1, [&](std::int64_t i) {
        local += i * i;
        fc.compute(200);
      });
      fc.critical(lock, [&] { dot += local; });
    });
    elapsed = f.eng.now() - start;
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  // sum i^2, i=1..200
  EXPECT_EQ(dot, 200LL * 201 * 401 / 6);
  EXPECT_GT(elapsed, 0);
}

INSTANTIATE_TEST_SUITE_P(Members, ForceSizeTest, ::testing::Values(0, 1, 2, 5, 9));

TEST(Force, MoreMembersFinishSoonerOnParallelWork) {
  auto run_with = [](int secondaries) {
    Fixture f(force_config(secondaries));
    sim::Tick elapsed = 0;
    f->register_tasktype("main", [&](TaskContext& ctx) {
      const sim::Tick start = f.eng.now();
      ctx.forcesplit([&](ForceContext& fc) {
        fc.presched(1, 64, 1, [&](std::int64_t) { fc.compute(20'000); });
      });
      elapsed = f.eng.now() - start;
    });
    f->boot();
    f->user_initiate(1, "main");
    f->run();
    return elapsed;
  };
  const sim::Tick t1 = run_with(0);
  const sim::Tick t4 = run_with(3);
  const sim::Tick t8 = run_with(7);
  EXPECT_GT(t1, t4);
  EXPECT_GT(t4, t8);
  // Roughly linear speedup on embarrassingly parallel work.
  EXPECT_GT(static_cast<double>(t1) / static_cast<double>(t4), 3.0);
}

// Regression: release handed the lock to waiters_.front() even if that proc
// had been killed while queued, leaving the lock owned by a dead proc and
// every later acquirer blocked forever. Dead waiters must be skipped, the
// same way heap_release skips finished heap waiters. The bounded virtual
// horizon is the watchdog: a deadlock leaves c_got false at the deadline.
TEST(Lock, ReleaseSkipsWaitersKilledWhileQueued) {
  Fixture f(force_config(0));
  LockVar lk(*f.rt, "L");
  TaskRecord rec;
  bool a_done = false;
  bool b_got = false;
  bool c_got = false;
  f.sys.kernel(3).create_process("A", [&](mmos::Proc& p) {
    lk.acquire(p, rec);
    p.compute(20'000);  // hold the lock while B and C queue up
    lk.release(p, rec);
    a_done = true;
  });
  mmos::Proc& b = f.sys.kernel(4).create_process("B", [&](mmos::Proc& p) {
    p.compute(2'000);
    lk.acquire(p, rec);  // killed while waiting here
    b_got = true;
    lk.release(p, rec);
  });
  f.sys.kernel(5).create_process("C", [&](mmos::Proc& p) {
    p.compute(4'000);
    lk.acquire(p, rec);
    c_got = true;
    lk.release(p, rec);
  });
  f.eng.schedule(10'000, [&b] { b.kill(); });  // mid-CRITICAL wait
  f.eng.run_until(5'000'000);
  EXPECT_TRUE(a_done);
  EXPECT_FALSE(b_got);
  EXPECT_TRUE(c_got);
  EXPECT_FALSE(lk.locked());
}

// Regression: selfsched paired loops across members purely by occurrence
// order and iteration total, so members taking divergent control paths
// silently mispaired two *different* source loops that happened to cover the
// same iteration count (the late member then took zero iterations). The
// bounds/step identity check must turn that into the existing logic_error.
TEST(Force, SelfschedDivergentLoopsWithSameTotalThrow) {
  Fixture f(force_config(1));  // 2 members
  f->register_tasktype("main", [&](TaskContext& ctx) {
    ctx.forcesplit([&](ForceContext& fc) {
      if (fc.is_primary()) {
        fc.compute(10'000);  // member 2 registers its loop first
        fc.selfsched(1, 10, 1, [](std::int64_t) {});   // 10 iterations
      } else {
        fc.selfsched(11, 20, 1, [](std::int64_t) {});  // also 10 iterations
      }
    });
  });
  f->boot();
  f->user_initiate(1, "main");
  EXPECT_THROW(f->run(), std::logic_error);
}

TEST(Force, AllreduceReturnsCombinedValueToEveryMember) {
  Fixture f(force_config(3));  // 4 members
  std::vector<double> sum(5, -1), mn(5, -1), mx(5, -1);
  run_task(f, [&](TaskContext& ctx) {
    ctx.forcesplit([&](ForceContext& fc) {
      const auto m = static_cast<std::size_t>(fc.member());
      const auto v = static_cast<double>(fc.member());
      sum[m] = fc.allreduce(ForceContext::ReduceOp::sum, v);
      mn[m] = fc.allreduce(ForceContext::ReduceOp::min, 10.0 - v);
      mx[m] = fc.allreduce(ForceContext::ReduceOp::max, 2.0 * v);
    });
  });
  for (std::size_t m = 1; m <= 4; ++m) {
    EXPECT_EQ(sum[m], 1.0 + 2.0 + 3.0 + 4.0) << m;
    EXPECT_EQ(mn[m], 10.0 - 4.0) << m;
    EXPECT_EQ(mx[m], 2.0 * 4.0) << m;
  }
}

TEST(Force, ReduceDepositsResultIntoSharedBlock) {
  Fixture f(force_config(2));  // 3 members
  double stored = -1;
  double seen_by_secondary = -1;
  run_task(f, [&](TaskContext& ctx) {
    ctx.shared_common("OUT", 4);
    ctx.forcesplit([&](ForceContext& fc) {
      auto& b = fc.shared_common("OUT", 4);
      const double r = fc.reduce(ForceContext::ReduceOp::sum,
                                 static_cast<double>(fc.member()), b, 2);
      if (fc.member() == 3) seen_by_secondary = r;
      fc.barrier();  // the primary's deposit happens-before this completes
      if (fc.is_primary()) stored = b.read(fc.proc(), 2);
    });
  });
  EXPECT_EQ(stored, 1.0 + 2.0 + 3.0);
  EXPECT_EQ(seen_by_secondary, 1.0 + 2.0 + 3.0);
}

/// One barrier workload with a chosen per-member arrival skew. Returns the
/// final tick so each interleaving can be checked against a pinned value.
sim::Tick run_barrier_arrival_order(const std::vector<sim::Tick>& delays) {
  sim::Engine eng;
  flex::Machine machine{eng};
  mmos::System sys{machine};
  Runtime rt(sys, force_config(3));
  int body_runs = 0;
  rt.register_tasktype("main", [&](TaskContext& ctx) {
    ctx.forcesplit([&](ForceContext& fc) {
      const auto m = static_cast<std::size_t>(fc.member() - 1);
      fc.compute(delays[m]);
      fc.barrier();
      // Second round with the skew reversed, so early arrivals of round one
      // become late arrivals of round two within the same episode state.
      fc.compute(delays[delays.size() - 1 - m]);
      fc.barrier([&](ForceContext&) { ++body_runs; });
    });
  });
  rt.boot();
  rt.user_initiate(1, "main");
  rt.run();
  EXPECT_FALSE(rt.timed_out());
  EXPECT_EQ(body_runs, 1);
  return eng.now();
}

// Satellite of the collective-tree work: members may reach the barrier in
// any order relative to the coordinator — including before the primary has
// blocked at all — and each order completes at its pinned tick.
TEST(ForceBarrier, ArrivalOrderInterleavingsEndAtPinnedTicks) {
  const std::vector<std::pair<std::vector<sim::Tick>, sim::Tick>> cases = {
      {{8'000, 1, 1, 1}, 21'581},  // primary last
      {{1, 8'000, 1, 1}, 22'481},  // one child last
      {{1, 1, 1, 8'000}, 22'381},
      {{1, 2'000, 4'000, 6'000}, 18'381},  // staggered, primary first
  };
  for (const auto& [d, end] : cases) {
    EXPECT_EQ(run_barrier_arrival_order(d), end)
        << "delays " << d[0] << "," << d[1] << "," << d[2] << "," << d[3];
  }
}

// Pin the guarded-wake semantics: an arrival must signal only the parent's
// locally-polled counter, never wake a parent that is blocked somewhere
// other than the gather (here: queued on a CRITICAL lock). The run completes
// because the primary re-reads the arrival count when it finally gathers.
TEST(ForceBarrier, EarlyArrivalsDoNotWakePrimaryBlockedElsewhere) {
  Fixture f(force_config(3));  // 4 members; fanout 4 => all children of root
  int body_runs = 0;
  run_task(f, [&](TaskContext& ctx) {
    auto& lock = ctx.lock_var("gate");
    ctx.forcesplit([&](ForceContext& fc) {
      if (fc.is_primary()) {
        fc.compute(500);  // let member 2 take the lock first
        fc.critical(lock, [&] { fc.compute(10); });  // queued behind member 2
      } else if (fc.member() == 2) {
        fc.critical(lock, [&] { fc.compute(50'000); });
      }
      // Members 3 and 4 arrive here long before the primary has blocked in
      // the gather; their signals must park in the arrival counter.
      fc.barrier([&](ForceContext&) { ++body_runs; });
    });
  });
  EXPECT_EQ(body_runs, 1);
}

// Killing a whole task while force members are queued on a CRITICAL lock
// must unwind everything — members reaped, lock registry cleared, slot
// freed — without a hang.
TEST(Lock, KillTaskMidCriticalUnwindsCleanly) {
  Fixture f(force_config(2));
  TaskId id;
  f->register_tasktype("main", [&](TaskContext& ctx) {
    id = ctx.self();
    f->engine().schedule(f->engine().now() + 50'000, [&f, &id] {
      f->kill_task(id);
    });
    ctx.forcesplit([&](ForceContext& fc) {
      fc.critical(fc.lock_var("L"), [&fc] { fc.compute(400'000); });
    });
  });
  f->boot();
  f->user_initiate(1, "main");
  f->run();
  ASSERT_FALSE(f->timed_out());
  EXPECT_EQ(f->stats().tasks_killed, 1u);
  EXPECT_EQ(f->cluster(1).slot(kFirstUserSlot).state, TaskState::free_slot);
}

}  // namespace
}  // namespace pisces::rt
