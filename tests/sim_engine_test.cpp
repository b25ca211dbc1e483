// Unit tests for the discrete-event engine: event ordering, process
// handshake, waits, timeouts, wakes, kills, and determinism.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pisces::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(30, [&] { order.push_back(3); });
  eng.schedule(10, [&] { order.push_back(1); });
  eng.schedule(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(EventQueue, SameTickFiresInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    eng.schedule(5, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  Engine eng;
  int fired = 0;
  eng.schedule(1, [&] {
    ++fired;
    eng.schedule_in(4, [&] { ++fired; });
  });
  eng.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), 5);
}

TEST(EventQueue, PastTicksClampToNow) {
  Engine eng;
  Tick seen = -1;
  eng.schedule(10, [&] { eng.schedule(3, [&] { seen = eng.now(); }); });
  eng.run();
  EXPECT_EQ(seen, 10);
}

TEST(Process, RunsBodyWhenWoken) {
  Engine eng;
  bool ran = false;
  Process& p = eng.spawn("t", [&](Process&) { ran = true; });
  eng.schedule(7, [&] { eng.wake(p); });
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(p.state(), Process::State::finished);
}

TEST(Process, NotStartedUntilWoken) {
  Engine eng;
  bool ran = false;
  eng.spawn("t", [&](Process&) { ran = true; });
  eng.run();
  EXPECT_FALSE(ran);
}

TEST(Process, SleepAdvancesVirtualTime) {
  Engine eng;
  std::vector<Tick> stamps;
  Process& p = eng.spawn("t", [&](Process& self) {
    stamps.push_back(eng.now());
    self.sleep_until(100);
    stamps.push_back(eng.now());
    self.sleep_until(250);
    stamps.push_back(eng.now());
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.run();
  EXPECT_EQ(stamps, (std::vector<Tick>{0, 100, 250}));
}

TEST(Process, InterleavesDeterministically) {
  Engine eng;
  std::string log;
  Process& a = eng.spawn("a", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      log += 'a';
      self.sleep_until(eng.now() + 10);
    }
  });
  Process& b = eng.spawn("b", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      log += 'b';
      self.sleep_until(eng.now() + 10);
    }
  });
  eng.schedule(0, [&] { eng.wake(a); });
  eng.schedule(5, [&] { eng.wake(b); });
  eng.run();
  EXPECT_EQ(log, "ababab");
}

TEST(Process, WaitIsWokenByAnotherProcess) {
  Engine eng;
  Tick woke_at = -1;
  Process& sleeper = eng.spawn("sleeper", [&](Process& self) {
    self.wait();
    woke_at = eng.now();
  });
  Process& waker = eng.spawn("waker", [&](Process& self) {
    self.sleep_until(42);
    eng.wake(sleeper);
  });
  eng.schedule(0, [&] {
    eng.wake(sleeper);
    eng.wake(waker);
  });
  eng.run();
  EXPECT_EQ(woke_at, 42);
}

TEST(Process, WaitUntilTimesOut) {
  Engine eng;
  bool timed_out = false;
  Process& p = eng.spawn("t", [&](Process& self) {
    timed_out = self.wait_until(eng.now() + 99);
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(eng.now(), 99);
}

TEST(Process, WakeBeatsTimeout) {
  Engine eng;
  bool timed_out = true;
  Process& p = eng.spawn("t", [&](Process& self) {
    timed_out = self.wait_until(1000);
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.schedule(50, [&] { eng.wake(p); });
  eng.run();
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(eng.now(), 1000);  // the stale timeout event still fires (no-op)
}

TEST(Process, StaleTimeoutFromEarlierWaitIsIgnored) {
  Engine eng;
  std::vector<bool> results;
  Process& p = eng.spawn("t", [&](Process& self) {
    results.push_back(self.wait_until(200));  // woken at 50
    results.push_back(self.wait_until(150));  // must not be hit by the 200 event... times out at 150
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.schedule(50, [&] { eng.wake(p); });
  eng.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0]);
  EXPECT_TRUE(results[1]);
}

TEST(Process, RedundantWakeIsHarmless) {
  Engine eng;
  int wakes = 0;
  Process& p = eng.spawn("t", [&](Process& self) {
    self.wait();
    ++wakes;
    self.wait();
    ++wakes;
  });
  eng.schedule(0, [&] { eng.wake(p); });   // start
  eng.schedule(10, [&] { eng.wake(p); });  // first wait
  eng.schedule(10, [&] { eng.wake(p); });  // duplicate, same tick
  eng.schedule(20, [&] { eng.wake(p); });  // second wait
  eng.run();
  EXPECT_EQ(wakes, 2);
}

TEST(Process, KillUnwindsBlockedProcess) {
  Engine eng;
  bool after_wait = false;
  bool cleanup_ran = false;
  Process& p = eng.spawn("t", [&](Process& self) {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } g{&cleanup_ran};
    self.wait();
    after_wait = true;
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.schedule(10, [&] { eng.kill(p); });
  eng.run();
  EXPECT_FALSE(after_wait);
  EXPECT_TRUE(cleanup_ran);
  EXPECT_EQ(p.state(), Process::State::finished);
}

TEST(Process, KillBeforeStartSkipsBody) {
  Engine eng;
  bool ran = false;
  Process& p = eng.spawn("t", [&](Process&) { ran = true; });
  eng.schedule(0, [&] { eng.kill(p); });
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(p.state(), Process::State::finished);
}

TEST(Process, BodyExceptionPropagatesToRun) {
  Engine eng;
  Process& p = eng.spawn("t", [&](Process&) {
    throw std::runtime_error("boom");
  });
  eng.schedule(0, [&] { eng.wake(p); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, DetectsBlockedProcessesAfterRun) {
  Engine eng;
  Process& p = eng.spawn("stuck", [&](Process& self) { self.wait(); });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.run();
  auto blocked = eng.blocked_processes();
  ASSERT_EQ(blocked.size(), 1u);
  EXPECT_EQ(blocked[0]->name(), "stuck");
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine eng;
  int fired = 0;
  eng.schedule(10, [&] { ++fired; });
  eng.schedule(20, [&] { ++fired; });
  eng.schedule(30, [&] { ++fired; });
  eng.run_until(20);
  EXPECT_EQ(fired, 2);
  eng.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, ManyProcessesDeterministicFinalTime) {
  // The same program must produce the identical tick trajectory each run.
  auto simulate = [] {
    Engine eng;
    Tick total = 0;
    for (int i = 0; i < 40; ++i) {
      Process& p = eng.spawn("p" + std::to_string(i), [&eng, i](Process& self) {
        for (int k = 0; k < 5; ++k) self.sleep_until(eng.now() + 7 + i);
      });
      eng.schedule(i % 3, [&eng, &p] { eng.wake(p); });
    }
    total = eng.run();
    return std::pair(total, eng.events_fired());
  };
  auto a = simulate();
  auto b = simulate();
  EXPECT_EQ(a, b);
}

// Same-tick events must fire in insertion order even when pops and pushes
// interleave (the heap reorders internally; the seq tiebreak is what keeps
// the observable order stable).
TEST(EventQueue, PopPushInterleavingKeepsSameTickStable) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.push(10, [&order, i] { order.push_back(i); });
  }
  q.push(5, [&order] { order.push_back(-1); });
  Tick at = 0;
  q.pop(&at)();
  EXPECT_EQ(at, 5);
  for (int i = 8; i < 12; ++i) {
    q.push(10, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    EXPECT_EQ(q.next_tick(), 10);
    q.pop(&at)();
    EXPECT_EQ(at, 10);
  }
  std::vector<int> want{-1};
  for (int i = 0; i < 12; ++i) want.push_back(i);
  EXPECT_EQ(order, want);
}

// Out-of-order pushes (a tick below the one currently being processed) force
// the same-tick FIFO to spill back into the heap; order must stay exact
// (tick first, then insertion sequence). The Engine never does this — it
// clamps to now — but the queue must not silently misorder if misused.
TEST(EventQueue, OutOfOrderPushAfterPopStaysTimeOrdered) {
  EventQueue q;
  std::vector<int> order;
  auto rec = [&order](int i) { return [&order, i] { order.push_back(i); }; };
  q.push(10, rec(0));
  q.push(10, rec(1));
  q.pop()();          // fires 0; tick 10 becomes current
  q.push(10, rec(2)); // same-tick fast path
  q.push(3, rec(3));  // below current tick: heap
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
}

TEST(EventQueue, SameTickFastPathReportsSizeAndNextTick) {
  EventQueue q;
  q.push(5, [] {});
  q.push(5, [] {});
  Tick at = 0;
  q.pop(&at)();
  EXPECT_EQ(at, 5);
  q.push(5, [] {});  // lands in the FIFO
  q.push(9, [] {});  // lands in the heap
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.next_tick(), 5);
  q.pop(&at)();
  EXPECT_EQ(at, 5);
  q.pop(&at)();
  EXPECT_EQ(at, 5);
  EXPECT_EQ(q.next_tick(), 9);
}

// ---------------------------------------------------------------------------
// Process lifecycle: kills, stale resumes, failures and shutdown.
// ---------------------------------------------------------------------------

TEST(Process, KillBeforeStartSkipsBodyAndAllocatesNothing) {
  Engine eng;
  bool ran = false;
  Process& p = eng.spawn("t", [&](Process&) { ran = true; });
  eng.schedule(0, [&] { eng.kill(p); });
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(p.state(), Process::State::finished);
  EXPECT_EQ(eng.live_process_count(), 0u);
}

TEST(Process, KillDuringTimedWaitUnwindsWithCleanup) {
  Engine eng;
  bool after_wait = false;
  bool cleanup_ran = false;
  Process& p = eng.spawn("t", [&](Process& self) {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } g{&cleanup_ran};
    (void)self.wait_until(eng.now() + 100);
    after_wait = true;
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.schedule(50, [&] { eng.kill(p); });
  eng.run();
  EXPECT_FALSE(after_wait);
  EXPECT_TRUE(cleanup_ran);
  EXPECT_EQ(p.state(), Process::State::finished);
  // The stale deadline event at 100 still fires as a no-op.
  EXPECT_EQ(eng.now(), 100);
}

TEST(Process, StaleResumeAfterProcessFinishedIsIgnored) {
  Engine eng;
  Process& p = eng.spawn("t", [&](Process& self) {
    (void)self.wait_until(eng.now() + 500);  // woken long before the deadline
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.schedule(10, [&] { eng.wake(p); });
  eng.run();  // deadline event at 500 fires after the process finished
  EXPECT_EQ(p.state(), Process::State::finished);
  EXPECT_EQ(eng.now(), 500);
}

TEST(Process, StaleTimeoutIsIgnoredByALaterWait) {
  Engine eng;
  std::vector<bool> results;
  std::vector<Tick> returned_at;
  Process& p = eng.spawn("t", [&](Process& self) {
    results.push_back(self.wait_until(200));  // woken at 50
    returned_at.push_back(eng.now());
    results.push_back(self.wait_until(150));  // times out at 150
    returned_at.push_back(eng.now());
    results.push_back(self.wait_until(300));  // the 200 event falls inside
    returned_at.push_back(eng.now());
  });
  eng.schedule(0, [&] { eng.wake(p); });
  eng.schedule(50, [&] { eng.wake(p); });
  eng.run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0]);
  EXPECT_TRUE(results[1]);
  EXPECT_TRUE(results[2]);
  EXPECT_EQ(returned_at, (std::vector<Tick>{50, 150, 300}));
}

TEST(Process, BodyExceptionPropagatesToRunAndFinishesTheProcess) {
  Engine eng;
  Process& p = eng.spawn("t", [&](Process&) {
    throw std::runtime_error("boom");
  });
  eng.schedule(0, [&] { eng.wake(p); });
  EXPECT_THROW(eng.run(), std::runtime_error);
  EXPECT_EQ(p.state(), Process::State::finished);
}

TEST(Process, ShutdownProcessesIsIdempotent) {
  Engine eng;
  int cleanups = 0;
  struct Guard {
    int* n;
    ~Guard() { ++*n; }
  };
  for (int i = 0; i < 3; ++i) {
    Process& p = eng.spawn("t", [&cleanups](Process& self) {
      Guard g{&cleanups};
      self.wait();
    });
    eng.schedule(0, [&eng, &p] { eng.wake(p); });
  }
  eng.run();
  EXPECT_EQ(eng.live_process_count(), 3u);
  eng.shutdown_processes();
  EXPECT_EQ(cleanups, 3);
  EXPECT_EQ(eng.live_process_count(), 0u);
  eng.shutdown_processes();  // second call: nothing left to unwind
  EXPECT_EQ(cleanups, 3);
}

TEST(Process, NestedSpawnAndChurnStaysDeterministic) {
  Engine eng;
  std::vector<std::string> log;
  Process& parent = eng.spawn("parent", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      Process& child =
          eng.spawn("c" + std::to_string(i), [&log, i, &eng](Process& c) {
            log.push_back("c" + std::to_string(i) + "@" +
                          std::to_string(eng.now()));
            c.sleep_until(eng.now() + 5);
          });
      eng.wake(child);
      self.sleep_until(eng.now() + 10);
    }
  });
  eng.schedule(0, [&] { eng.wake(parent); });
  eng.run();
  EXPECT_EQ(log, (std::vector<std::string>{"c0@0", "c1@10", "c2@20"}));
}

// ---------------------------------------------------------------------------
// In-place advance: a sleep whose resume would be the very next event moves
// the clock without scheduling, dispatching or switching.
// ---------------------------------------------------------------------------

TEST(Process, SleepWithEmptyQueueAdvancesWithoutAnEvent) {
  Engine eng;
  std::vector<std::uint64_t> fired;
  Process& p = eng.spawn("t", [&](Process& self) {
    fired.push_back(eng.events_fired());
    self.sleep_until(100);
    EXPECT_EQ(eng.now(), 100);
    self.sleep_until(250);
    EXPECT_EQ(eng.now(), 250);
    fired.push_back(eng.events_fired());
  });
  eng.wake(p);
  EXPECT_EQ(eng.run(), 250);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(eng.events_fired(), 1u);  // only the wake was an event
  EXPECT_EQ(p.state(), Process::State::finished);
}

TEST(Process, EventQueuedAtTheWakeTickRunsBeforeTheSleeper) {
  Engine eng;
  std::vector<std::string> log;
  Process& p = eng.spawn("t", [&](Process& self) {
    self.sleep_until(100);  // an event is due at 100: real resume
    log.push_back("sleeper@" + std::to_string(eng.now()));
    self.sleep_until(120);  // next event is at 150: in place
    log.push_back("sleeper@" + std::to_string(eng.now()));
  });
  eng.schedule(100, [&] { log.push_back("event@" + std::to_string(eng.now())); });
  eng.schedule(150, [&] { log.push_back("event@" + std::to_string(eng.now())); });
  eng.wake(p);
  eng.run();
  EXPECT_EQ(log, (std::vector<std::string>{"event@100", "sleeper@100",
                                           "sleeper@120", "event@150"}));
  // wake + event@100 + resume@100 + event@150; the sleep to 120 is elided.
  EXPECT_EQ(eng.events_fired(), 4u);
}

TEST(Process, RunUntilLeavesASleepPastTheLimitPending) {
  Engine eng;
  bool done = false;
  Process& p = eng.spawn("t", [&](Process& self) {
    self.sleep_until(50);   // within the limit: in place
    self.sleep_until(200);  // past it: a real, pending resume
    done = true;
  });
  eng.wake(p);
  EXPECT_EQ(eng.run_until(100), 50);
  EXPECT_LE(eng.now(), 100);
  EXPECT_EQ(eng.pending_events(), 1u);
  EXPECT_EQ(p.state(), Process::State::blocked);
  EXPECT_FALSE(done);
  EXPECT_EQ(eng.run(), 200);
  EXPECT_TRUE(done);
  EXPECT_EQ(eng.events_fired(), 2u);
}

TEST(Process, BodyFailureInRunUntilLeavesNoStaleHorizon) {
  Engine eng;
  Process& bad = eng.spawn("bad", [](Process&) { throw std::runtime_error("boom"); });
  eng.wake(bad);
  EXPECT_THROW(eng.run_until(10), std::runtime_error);
  // With run_until's horizon of 10 left behind, this sleep would take a
  // real resume event instead of advancing in place.
  Process& sleeper = eng.spawn("sleeper", [](Process& self) { self.sleep_until(500); });
  eng.wake(sleeper);
  const std::uint64_t before = eng.events_fired();
  EXPECT_EQ(eng.run(), 500);
  EXPECT_EQ(eng.events_fired() - before, 1u);  // the wake only
  EXPECT_EQ(sleeper.state(), Process::State::finished);
}

// A scenario mixing elided and real resumes — colliding sleepers, a lone
// sleeper, a timed wait, and a run_until boundary. The expected trajectory
// is pinned; CI checks it on both fiber switch implementations.
TEST(Engine, InPlaceAdvanceTrajectoryIsPinned) {
  Engine eng;
  std::string log;
  for (int i = 0; i < 3; ++i) {
    Process& p = eng.spawn("p" + std::to_string(i), [&eng, &log, i](Process& self) {
      for (int k = 0; k < 5; ++k) {
        log += static_cast<char>('a' + i) + std::to_string(eng.now()) + ' ';
        self.sleep_until(eng.now() + 4 + 3 * i);
      }
      (void)self.wait_until(eng.now() + 20);
      self.sleep_until(eng.now() + 1000 * (i + 1));
      for (int k = 0; k < 3; ++k) self.sleep_until(eng.now() + 5);  // alone: in place
      log += static_cast<char>('a' + i) + std::to_string(eng.now()) + ' ';
    });
    eng.schedule(i, [&eng, &p] { eng.wake(p); });
  }
  eng.run_until(30);
  log += "| ";
  EXPECT_EQ(eng.run(), 3087);
  // 3 wakes + 3 timeouts + 27 sleeps would be 33 events; the 9 tail sleeps
  // (nothing else due) advance in place.
  EXPECT_EQ(eng.events_fired(), 24u);
  EXPECT_EQ(log,
            "a0 b1 c2 a4 b8 a8 c12 a12 b15 a16 c22 b22 b29 | "
            "c32 c42 a1055 b2071 c3087 ");
}

// Ten sleepers with periods 3..12: the same final tick, event count and
// interleaving every run, on either switch implementation.
TEST(Engine, TickTrajectoryIsPinned) {
  Engine eng;
  std::string log;
  for (int i = 0; i < 10; ++i) {
    Process& p =
        eng.spawn("p" + std::to_string(i), [&eng, &log, i](Process& self) {
          for (int k = 0; k < 4; ++k) {
            log += static_cast<char>('a' + i);
            self.sleep_until(eng.now() + 3 + i);
          }
        });
    eng.schedule(i % 4, [&eng, &p] { eng.wake(p); });
  }
  EXPECT_EQ(eng.run(), 49);
  EXPECT_EQ(eng.events_fired(), 60u);
  EXPECT_EQ(log, "aeibfjcgadhbaecfdbaigcjhbedfcgedihjfgihj");
}

// Process bodies are fibers on the thread that calls run(), never threads
// of their own, so no two of them can race on shared state.
TEST(Engine, EveryBodyRunsOnTheThreadThatCallsRun) {
  Engine eng;
  std::vector<decltype(std::this_thread::get_id())> seen;
  for (int i = 0; i < 4; ++i) {
    Process& p = eng.spawn("p" + std::to_string(i), [&eng, &seen, i](Process& self) {
      seen.push_back(std::this_thread::get_id());
      self.sleep_until(eng.now() + 1 + i);
      seen.push_back(std::this_thread::get_id());
      (void)self.wait_until(eng.now() + 10);
      seen.push_back(std::this_thread::get_id());
    });
    eng.schedule(0, [&eng, &p] { eng.wake(p); });
  }
  eng.run();
  ASSERT_EQ(seen.size(), 12u);
  for (const auto& id : seen) EXPECT_EQ(id, std::this_thread::get_id());
}

// ---------------------------------------------------------------------------
// Reaping: finished processes shed their heavy state but stay addressable.
// ---------------------------------------------------------------------------

TEST(Engine, ReapFinishedKeepsReferencesValid) {
  Engine eng;
  std::vector<Process*> procs;
  for (int i = 0; i < 5; ++i) {
    Process& p = eng.spawn("r" + std::to_string(i), [](Process&) {});
    eng.schedule(0, [&eng, &p] { eng.wake(p); });
    procs.push_back(&p);
  }
  eng.run();
  EXPECT_EQ(eng.live_process_count(), 0u);
  eng.reap_finished();
  EXPECT_EQ(eng.reaped_process_count(), 5u);
  // The documented contract: references returned by spawn() stay valid for
  // the Engine's lifetime, reaped or not.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(procs[static_cast<std::size_t>(i)]->state(),
              Process::State::finished);
    EXPECT_EQ(procs[static_cast<std::size_t>(i)]->name(),
              "r" + std::to_string(i));
  }
}

TEST(Engine, ReapLeavesLiveProcessesScannable) {
  Engine eng;
  Process& stuck = eng.spawn("stuck", [](Process& self) { self.wait(); });
  eng.schedule(0, [&] { eng.wake(stuck); });
  for (int i = 0; i < 4; ++i) {
    Process& p = eng.spawn("done", [](Process&) {});
    eng.schedule(0, [&eng, &p] { eng.wake(p); });
  }
  eng.run();
  eng.reap_finished();
  EXPECT_EQ(eng.reaped_process_count(), 4u);
  auto blocked = eng.blocked_processes();
  ASSERT_EQ(blocked.size(), 1u);
  EXPECT_EQ(blocked[0]->name(), "stuck");
  EXPECT_EQ(eng.live_process_count(), 1u);
}

TEST(Engine, LongChurnSessionsReapAutomatically) {
  // Dynamic task churn well past the reap batch: the live list must not
  // grow without bound (this is what bounded long sessions before).
  Engine eng;
  for (int i = 0; i < 700; ++i) {
    Process& p = eng.spawn("w" + std::to_string(i), [&eng](Process& self) {
      self.sleep_until(eng.now() + 1);
    });
    eng.schedule(i, [&eng, &p] { eng.wake(p); });
  }
  eng.run();
  EXPECT_EQ(eng.live_process_count(), 0u);
  EXPECT_GT(eng.reaped_process_count(), 0u);  // automatic reap kicked in
}

TEST(Engine, LiveProcessCountDropsAsBodiesFinish) {
  Engine eng;
  Process& p1 = eng.spawn("a", [](Process&) {});
  Process& p2 = eng.spawn("b", [](Process& self) { self.wait(); });
  eng.schedule(0, [&] {
    eng.wake(p1);
    eng.wake(p2);
  });
  eng.run();
  EXPECT_EQ(eng.live_process_count(), 1u);
}

}  // namespace
}  // namespace pisces::sim
