// Host-allocation regression checks for the steady-state message path. The
// global operator new is replaced by a counting one, so each test can ask
// how many heap allocations a stretch of work made. The message heap, the
// in-queue and the event FIFO recycle their storage and the tracer builds no
// record without a sink, so a warm ping-pong only allocates what the caller
// builds per message (argument vectors, ACCEPT specs, ACCEPT results).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/runtime.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define PISCES_ALLOC_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PISCES_ALLOC_TEST_ASAN 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

#ifndef PISCES_ALLOC_TEST_ASAN
// Counting replacements of the global allocation functions. The sized,
// array and nothrow forms route here by default; the aligned forms are
// replaced too so no allocation escapes the count.
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace pisces::rt {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

#ifdef PISCES_ALLOC_TEST_ASAN
#define PISCES_SKIP_UNDER_ASAN() \
  GTEST_SKIP() << "allocation counting is disabled under AddressSanitizer"
#else
#define PISCES_SKIP_UNDER_ASAN() (void)0
#endif

TEST(Allocations, WarmPingPongRoundTripStaysUnderEight) {
  PISCES_SKIP_UNDER_ASAN();
  constexpr int kWarmup = 200;
  constexpr int kMeasured = 2000;
  sim::Engine eng;
  flex::Machine machine{eng};
  mmos::System sys{machine};
  Runtime rt(sys, config::Configuration::simple(2));
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  int replies_ok = 0;
  rt.register_tasktype("ping", [&](TaskContext& ctx) {
    TaskId pong;
    std::int64_t reply = 0;
    ctx.on_message("hello", [&pong](TaskContext&, const Message& m) {
      pong = m.args.at(0).as_taskid();
    });
    ctx.on_message("pong", [&reply](TaskContext&, const Message& m) {
      reply = m.args.at(0).as_int();
    });
    ctx.initiate(Where::Cluster(2), "pong");
    ctx.accept(AcceptSpec{}.of("hello").forever());
    for (int i = 0; i < kWarmup + kMeasured; ++i) {
      if (i == kWarmup) before = allocations();
      ctx.send(Dest::To(pong), "ping", {Value(std::int64_t{i})});
      ctx.accept(AcceptSpec{}.of("pong").forever());
      if (reply == i + 1) ++replies_ok;
    }
    after = allocations();
    ctx.send(Dest::To(pong), "stop");
  });
  rt.register_tasktype("pong", [](TaskContext& ctx) {
    std::int64_t v = 0;
    bool stop = false;
    ctx.on_message("ping", [&v](TaskContext&, const Message& m) {
      v = m.args.at(0).as_int();
    });
    ctx.on_message("stop", [&stop](TaskContext&, const Message&) { stop = true; });
    ctx.send(Dest::Parent(), "hello", {Value(ctx.self())});
    while (true) {
      ctx.accept(AcceptSpec{}.of("ping").of("stop").total(1).forever());
      if (stop) break;
      ctx.send(Dest::Parent(), "pong", {Value(v + 1)});
    }
  });
  rt.boot();
  rt.user_initiate(1, "ping");
  rt.run();
  ASSERT_EQ(replies_ok, kWarmup + kMeasured);
  const double per_trip =
      static_cast<double>(after - before) / static_cast<double>(kMeasured);
  // What is left per round trip: two argument vectors, three ACCEPT-spec
  // type vectors (ping lists one type, pong two) and two ACCEPT results.
  EXPECT_LE(per_trip, 8.0);
}

TEST(Allocations, MessageQueueWithOneQueuedMessageAllocatesNothing) {
  PISCES_SKIP_UNDER_ASAN();
  MessageQueue q;
  auto mk = [](std::uint64_t seq) {
    Message m;
    m.type = "x";
    m.seq = seq;
    return m;
  };
  q.push_back(mk(0));
  std::uint64_t seq = 1;
  std::uint64_t expect_taken = 0;
  bool in_order = true;
  auto cycle = [&] {
    q.push_back(mk(seq++));
    in_order = in_order && q.take(q.first_of("x")).seq == expect_taken++;
  };
  for (int i = 0; i < 100; ++i) cycle();
  const std::uint64_t before = allocations();
  for (int i = 0; i < 10'000; ++i) cycle();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_TRUE(in_order);
  EXPECT_EQ(q.size(), 1u);
}

// Configuration::validate runs on every boot. A passing configuration
// builds no problem message, so it allocates nothing.
TEST(Allocations, PassingConfigurationValidatesWithoutAllocating) {
  PISCES_SKIP_UNDER_ASAN();
  const flex::MachineSpec spec;
  for (const auto& cfg :
       {config::Configuration::simple(2), config::Configuration::section9_example()}) {
    const std::uint64_t before = allocations();
    const auto problems = cfg.validate(spec);
    EXPECT_EQ(allocations() - before, 0u) << cfg.name;
    EXPECT_TRUE(problems.empty()) << cfg.name;
  }
}

}  // namespace
}  // namespace pisces::rt
