#pragma once

// The four benchmark workloads. Each is a closed program of fixed size whose
// inputs come only from the workload seed. A workload class owns its
// generated inputs and the per-instance results its task bodies fill in:
//
//   W(seed, tiny)            generate the inputs
//   configuration()          the Configuration the instance boots
//   reset()                  clear per-instance results
//   install<kTraced>(rt, k)  register the tasktypes (bodies call through k)
//   start(rt)                initiate the root task
//   ops(), op_ns()           ops per instance and their host times
//   expected_tasks()         user tasks that must finish
//   check(rt, why)           the app-level reference check

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "calls.hpp"
#include "core/runtime.hpp"
#include "sim/random.hpp"

namespace perfbench {

namespace config = pisces::config;
namespace sim = pisces::sim;

/// Simulated-time ceiling: far beyond any instance, so hitting it is a
/// failure, never a normal end.
inline constexpr sim::Tick kTimeLimit = 1'000'000'000'000;

/// SplitMix64 over (seed, stream): decorrelated input streams per workload.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// pingpong: Configuration::simple(2), one task per cluster (PEs 3 and 4),
// 1-int payload, closed-loop round trips. An op is one round trip.
class Pingpong {
 public:
  static constexpr const char* kName = "pingpong";

  Pingpong(std::uint64_t seed, bool tiny) : trips_(tiny ? 300 : 20000) {
    sim::Rng rng(mix_seed(seed, 1));
    values_.resize(static_cast<std::size_t>(trips_));
    for (auto& v : values_) v = rng.range(-1'000'000, 1'000'000);
  }

  [[nodiscard]] config::Configuration configuration() const {
    auto cfg = config::Configuration::simple(2);
    cfg.time_limit = kTimeLimit;
    return cfg;
  }
  [[nodiscard]] std::int64_t ops() const { return trips_; }
  [[nodiscard]] std::uint64_t expected_tasks() const { return 2; }
  [[nodiscard]] const std::vector<std::int64_t>& op_ns() const { return op_ns_; }
  void reset() {
    op_ns_.assign(static_cast<std::size_t>(trips_), 0);
    replies_ok_ = 0;
  }

  template <bool kTraced>
  void install(rt::Runtime& runtime, Calls<kTraced> k) {
    runtime.register_tasktype("ping", [this, k](rt::TaskContext& ctx) mutable {
      rt::TaskId pong;
      std::int64_t reply = 0;
      ctx.on_message("hello", [&pong](rt::TaskContext&, const rt::Message& m) {
        pong = m.args.at(0).as_taskid();
      });
      ctx.on_message("pong", [&reply](rt::TaskContext&, const rt::Message& m) {
        reply = m.args.at(0).as_int();
      });
      k.initiate(ctx, -1, rt::Where::Cluster(2), "pong");
      k.accept(ctx, -1, rt::AcceptSpec{}.of("hello").forever());
      for (std::int64_t i = 0; i < trips_; ++i) {
        const std::int64_t v = values_[static_cast<std::size_t>(i)];
        const std::int64_t t0 = now_ns();
        k.send(ctx, i, rt::Dest::To(pong), "ping", {rt::Value(v)});
        k.accept(ctx, i, rt::AcceptSpec{}.of("pong").forever());
        op_ns_[static_cast<std::size_t>(i)] = now_ns() - t0;
        if (reply == v + 1) ++replies_ok_;
      }
      k.send(ctx, -1, rt::Dest::To(pong), "stop");
    });
    runtime.register_tasktype("pong", [k](rt::TaskContext& ctx) mutable {
      std::int64_t v = 0;
      bool stop = false;
      ctx.on_message("ping", [&v](rt::TaskContext&, const rt::Message& m) {
        v = m.args.at(0).as_int();
      });
      ctx.on_message("stop", [&stop](rt::TaskContext&, const rt::Message&) {
        stop = true;
      });
      k.send(ctx, -1, rt::Dest::Parent(), "hello", {rt::Value(ctx.self())});
      for (std::int64_t i = 0;; ++i) {
        k.accept(ctx, i, rt::AcceptSpec{}.of("ping").of("stop").total(1).forever());
        if (stop) break;
        k.send(ctx, i, rt::Dest::Parent(), "pong", {rt::Value(v + 1)});
      }
    });
  }
  void start(rt::Runtime& runtime) { runtime.user_initiate(1, "ping"); }
  bool check(const rt::Runtime&, std::string& why) const {
    if (replies_ok_ == trips_) return true;
    why = "pingpong: " + std::to_string(replies_ok_) + " of " +
          std::to_string(trips_) + " replies carried v+1";
    return false;
  }

 private:
  std::int64_t trips_;
  std::vector<std::int64_t> values_;
  std::vector<std::int64_t> op_ns_;
  std::int64_t replies_ok_ = 0;
};

// ---------------------------------------------------------------------------
// churn: the Section 9 machine. A master issues waves of ON CLUSTER c
// INITIATE worker; workers compute a seeded number of ticks and reply
// `done`. Waves may ask a cluster for more workers than it has free slots,
// so initiates are held. An op is one worker's life, from the initiate to
// the master accepting its `done`.
class Churn {
 public:
  static constexpr const char* kName = "churn";

  Churn(std::uint64_t seed, bool tiny) : workers_(tiny ? 60 : 2500) {
    sim::Rng rng(mix_seed(seed, 2));
    for (std::int64_t left = workers_; left > 0;) {
      const std::int64_t w = std::min<std::int64_t>(left, rng.range(3, 16));
      waves_.push_back(w);
      left -= w;
    }
    const auto n = static_cast<std::size_t>(workers_);
    cluster_.resize(n);
    ticks_.resize(n);
    value_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cluster_[i] = static_cast<int>(rng.range(1, 4));
      ticks_[i] = rng.range(100, 2500);
      value_[i] = rng.range(0, 1'000'000);
    }
  }

  [[nodiscard]] config::Configuration configuration() const {
    auto cfg = config::Configuration::section9_example();
    cfg.time_limit = kTimeLimit;
    return cfg;
  }
  [[nodiscard]] std::int64_t ops() const { return workers_; }
  [[nodiscard]] std::uint64_t expected_tasks() const {
    return static_cast<std::uint64_t>(workers_) + 1;
  }
  [[nodiscard]] const std::vector<std::int64_t>& op_ns() const { return op_ns_; }
  void reset() {
    const auto n = static_cast<std::size_t>(workers_);
    op_ns_.assign(n, 0);
    t_init_.assign(n, 0);
    seen_.assign(n, 0);
    bad_ = 0;
  }

  template <bool kTraced>
  void install(rt::Runtime& runtime, Calls<kTraced> k) {
    runtime.register_tasktype("master", [this, k](rt::TaskContext& ctx) mutable {
      ctx.on_message("done", [this](rt::TaskContext&, const rt::Message& m) {
        const auto i = static_cast<std::size_t>(m.args.at(0).as_int());
        op_ns_[i] = now_ns() - t_init_[i];
        if (m.args.at(1).as_int() != 2 * value_[i] + 1) ++bad_;
        ++seen_[i];
      });
      std::size_t next = 0;
      for (const std::int64_t w : waves_) {
        for (std::int64_t j = 0; j < w; ++j, ++next) {
          t_init_[next] = now_ns();
          k.initiate(ctx, static_cast<std::int64_t>(next),
                     rt::Where::Cluster(cluster_[next]), "worker",
                     {rt::Value(static_cast<std::int64_t>(next)),
                      rt::Value(ticks_[next]), rt::Value(value_[next])});
        }
        k.accept(ctx, -1, rt::AcceptSpec{}.of("done", static_cast<int>(w)).forever());
      }
    });
    runtime.register_tasktype("worker", [k](rt::TaskContext& ctx) mutable {
      const std::int64_t i = ctx.args().at(0).as_int();
      ctx.compute(ctx.args().at(1).as_int());
      k.send(ctx, i, rt::Dest::Parent(), "done",
             {rt::Value(i), rt::Value(2 * ctx.args().at(2).as_int() + 1)});
    });
  }
  void start(rt::Runtime& runtime) { runtime.user_initiate(1, "master"); }
  bool check(const rt::Runtime&, std::string& why) const {
    const auto once = std::count(seen_.begin(), seen_.end(), 1);
    if (once == workers_ && bad_ == 0) return true;
    why = "churn: " + std::to_string(once) + " of " + std::to_string(workers_) +
          " workers reported exactly once, " + std::to_string(bad_) + " bad results";
    return false;
  }

 private:
  std::int64_t workers_;
  std::vector<std::int64_t> waves_;
  std::vector<int> cluster_;
  std::vector<std::int64_t> ticks_;
  std::vector<std::int64_t> value_;
  std::vector<std::int64_t> op_ns_;
  std::vector<std::int64_t> t_init_;
  std::vector<int> seen_;
  std::int64_t bad_ = 0;
};

// ---------------------------------------------------------------------------
// stencil: a heat2d-style Jacobi on the Section 9 machine. The master owns
// the plate and hands row-band windows to one worker on each of clusters
// 2-4; each worker reads its band through its window once. Every sweep the
// master broadcasts `go` TO ALL; each worker writes the previous sweep's band
// back through its window, swaps halo rows with its neighbours as real-array
// messages, relaxes the band as a force (PRESCHED rows, ALLREDUCE of the
// residual, BARRIER) and reports `swept`. Band heights are seeded, so payload
// sizes vary. The broadcast starts all three write-backs together and the
// 690 KB plate does not fit the 512 KB message heap, so writers wait for
// heap space; any two bands fit with room to spare, so the controller
// serving the windows never blocks on the heap behind requests only it can
// drain. An op is one sweep.
class Stencil {
 public:
  static constexpr const char* kName = "stencil";
  static constexpr int kWorkers = 3;

  Stencil(std::uint64_t seed, bool tiny)
      : rows_(tiny ? 24 : 240), cols_(tiny ? 16 : 360), sweeps_(tiny ? 3 : 50) {
    sim::Rng rng(mix_seed(seed, 3));
    const int base = rows_ / kWorkers;
    const int jitter = rows_ / 20;
    int r0 = 0;
    for (int w = 0; w < kWorkers; ++w) {
      const int n = w + 1 < kWorkers
                        ? base + static_cast<int>(rng.range(-jitter, jitter))
                        : rows_ - r0;
      band_r0_.push_back(r0);
      band_rows_.push_back(n);
      r0 += n;
    }
    initial_.assign(static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_), 0.0);
    for (std::size_t i = 0; i < initial_.size(); ++i) {
      initial_[i] = i < static_cast<std::size_t>(cols_) ? 100.0 : 10.0 * rng.unit();
    }
    reference();
  }

  [[nodiscard]] config::Configuration configuration() const {
    auto cfg = config::Configuration::section9_example();
    cfg.time_limit = kTimeLimit;
    return cfg;
  }
  [[nodiscard]] std::int64_t ops() const { return sweeps_; }
  [[nodiscard]] std::uint64_t expected_tasks() const { return kWorkers + 1; }
  [[nodiscard]] const std::vector<std::int64_t>& op_ns() const { return op_ns_; }
  void reset() {
    op_ns_.assign(static_cast<std::size_t>(sweeps_), 0);
    residual_.assign(static_cast<std::size_t>(sweeps_), -1.0);
    plate_.clear();
  }

  template <bool kTraced>
  void install(rt::Runtime& runtime, Calls<kTraced> k) {
    runtime.register_tasktype("master", [this, k](rt::TaskContext& ctx) mutable {
      ctx.local_array("plate", rows_, cols_).data.data() = initial_;
      std::vector<rt::TaskId> kids(kWorkers);
      double sweep_res = 0.0;
      ctx.on_message("hello", [&kids](rt::TaskContext&, const rt::Message& m) {
        kids[static_cast<std::size_t>(m.args.at(0).as_int())] = m.args.at(1).as_taskid();
      });
      ctx.on_message("swept", [&sweep_res](rt::TaskContext&, const rt::Message& m) {
        sweep_res = std::max(sweep_res, m.args.at(0).as_real());
      });
      for (int w = 0; w < kWorkers; ++w) {
        k.initiate(ctx, -1, rt::Where::Cluster(2 + w), "worker", {rt::Value(w)});
      }
      k.accept(ctx, -1, rt::AcceptSpec{}.of("hello", kWorkers).forever());
      const rt::Window whole = ctx.make_window("plate");
      for (int w = 0; w < kWorkers; ++w) {
        const auto uw = static_cast<std::size_t>(w);
        const rt::Window band =
            whole.shrink(rt::Rect{band_r0_[uw], 0, band_rows_[uw], cols_});
        const rt::TaskId up = w > 0 ? kids[uw - 1] : rt::TaskId{};
        const rt::TaskId down = w + 1 < kWorkers ? kids[uw + 1] : rt::TaskId{};
        k.send(ctx, -1, rt::Dest::To(kids[uw]), "band",
               {rt::Value(band), rt::Value(up), rt::Value(down)});
      }
      for (std::int64_t s = 0; s < sweeps_; ++s) {
        const std::int64_t t0 = now_ns();
        sweep_res = 0.0;
        k.broadcast(ctx, s, "go", {rt::Value(s)});
        k.accept(ctx, s, rt::AcceptSpec{}.of("swept", kWorkers).forever());
        op_ns_[static_cast<std::size_t>(s)] = now_ns() - t0;
        residual_[static_cast<std::size_t>(s)] = sweep_res;
      }
      k.accept(ctx, -1, rt::AcceptSpec{}.of("written", kWorkers).forever());
      plate_ = ctx.array_data("plate").data();
    });
    runtime.register_tasktype("worker", [this, k](rt::TaskContext& ctx) mutable {
      const int w = static_cast<int>(ctx.args().at(0).as_int());
      rt::Window band;
      rt::TaskId up;
      rt::TaskId down;
      const auto ucols = static_cast<std::size_t>(cols_);
      std::vector<double> halo_up(ucols, 0.0);
      std::vector<double> halo_dn(ucols, 0.0);
      ctx.on_message("band", [&](rt::TaskContext&, const rt::Message& m) {
        band = m.args.at(0).as_window();
        up = m.args.at(1).as_taskid();
        down = m.args.at(2).as_taskid();
      });
      ctx.on_message("halo_from_up", [&halo_up](rt::TaskContext&, const rt::Message& m) {
        halo_up = m.args.at(0).as_real_array();
      });
      ctx.on_message("halo_from_down", [&halo_dn](rt::TaskContext&, const rt::Message& m) {
        halo_dn = m.args.at(0).as_real_array();
      });
      k.send(ctx, -1, rt::Dest::Parent(), "hello", {rt::Value(w), rt::Value(ctx.self())});
      k.accept(ctx, -1, rt::AcceptSpec{}.of("band").forever());
      const int n = band.rect.rows;
      const int g0 = band.rect.row0;
      const rt::TaskId self = ctx.self();
      rt::Matrix mine = k.window_read(ctx, -1, band);
      for (std::int64_t s = 0; s < sweeps_; ++s) {
        k.accept(ctx, s, rt::AcceptSpec{}.of("go").forever());
        if (s > 0) k.window_write(ctx, s, band, mine);
        const std::vector<double>& cur = mine.data();
        rt::AcceptSpec halos;
        int expected = 0;
        if (up.valid()) {
          k.send(ctx, s, rt::Dest::To(up), "halo_from_down",
                 {rt::Value(std::vector<double>(cur.begin(), cur.begin() + cols_))});
          halos.of("halo_from_up");
          ++expected;
        }
        if (down.valid()) {
          k.send(ctx, s, rt::Dest::To(down), "halo_from_up",
                 {rt::Value(std::vector<double>(cur.end() - cols_, cur.end()))});
          halos.of("halo_from_down");
          ++expected;
        }
        if (expected > 0) k.accept(ctx, s, halos.total(expected).forever());
        rt::Matrix next = mine;
        double residual = 0.0;
        ctx.forcesplit([&](rt::ForceContext& fc) {
          double local = 0.0;
          k.presched(fc, self, s, 0, n - 1, 1, [&](std::int64_t i) {
            fc.compute(6 * cols_);
            const int g = g0 + static_cast<int>(i);
            if (g == 0 || g == rows_ - 1) return;
            const double* row = cur.data() + static_cast<std::size_t>(i) * ucols;
            const double* north = i > 0 ? row - cols_ : halo_up.data();
            const double* south = i + 1 < n ? row + cols_ : halo_dn.data();
            double* out = next.data().data() + static_cast<std::size_t>(i) * ucols;
            for (std::size_t j = 1; j + 1 < ucols; ++j) {
              const double v = 0.25 * (north[j] + south[j] + row[j - 1] + row[j + 1]);
              local = std::max(local, std::fabs(v - row[j]));
              out[j] = v;
            }
          });
          const double r = k.allreduce(fc, self, s, rt::ForceContext::ReduceOp::max, local);
          k.barrier(fc, self, s);
          if (fc.is_primary()) residual = r;
        });
        mine = std::move(next);
        k.send(ctx, s, rt::Dest::Parent(), "swept", {rt::Value(residual)});
      }
      k.window_write(ctx, -1, band, mine);
      k.send(ctx, -1, rt::Dest::Parent(), "written");
    });
  }
  void start(rt::Runtime& runtime) { runtime.user_initiate(1, "master"); }
  bool check(const rt::Runtime&, std::string& why) const {
    if (plate_ != ref_plate_) {
      why = "stencil: final plate differs from the reference Jacobi";
      return false;
    }
    if (residual_ != ref_residual_) {
      why = "stencil: per-sweep residuals differ from the reference Jacobi";
      return false;
    }
    return true;
  }

 private:
  /// Plain C++ Jacobi over the same inputs, in the workers' operation order.
  void reference() {
    const auto R = static_cast<std::size_t>(rows_);
    const auto C = static_cast<std::size_t>(cols_);
    std::vector<double> p = initial_;
    for (int s = 0; s < sweeps_; ++s) {
      std::vector<double> next = p;
      double res = 0.0;
      for (std::size_t g = 1; g + 1 < R; ++g) {
        for (std::size_t j = 1; j + 1 < C; ++j) {
          const double v = 0.25 * (p[(g - 1) * C + j] + p[(g + 1) * C + j] +
                                   p[g * C + j - 1] + p[g * C + j + 1]);
          res = std::max(res, std::fabs(v - p[g * C + j]));
          next[g * C + j] = v;
        }
      }
      ref_residual_.push_back(res);
      p = std::move(next);
    }
    ref_plate_ = std::move(p);
  }

  int rows_;
  int cols_;
  std::int64_t sweeps_;
  std::vector<int> band_r0_;
  std::vector<int> band_rows_;
  std::vector<double> initial_;
  std::vector<double> ref_plate_;
  std::vector<double> ref_residual_;
  std::vector<std::int64_t> op_ns_;
  std::vector<double> residual_;
  std::vector<double> plate_;
};

// ---------------------------------------------------------------------------
// lossy: Configuration::simple(5) with `reliable on` and a seeded bus fault
// plan of 5% loss and 2.5% duplication. Four producers stream seeded-size
// items to one consumer under a credit window. An op is one item delivered
// exactly once.
class Lossy {
 public:
  static constexpr const char* kName = "lossy";
  static constexpr int kProducers = 4;
  static constexpr int kWindow = 8;

  Lossy(std::uint64_t seed, bool tiny)
      : per_producer_(tiny ? 40 : 3000), fault_seed_(mix_seed(seed, 5)) {
    sim::Rng rng(mix_seed(seed, 4));
    payload_.resize(static_cast<std::size_t>(kProducers * per_producer_));
    for (auto& p : payload_) {
      p.resize(static_cast<std::size_t>(rng.range(1, 16)));
      for (auto& x : p) x = rng.range(-1'000'000, 1'000'000);
    }
  }

  [[nodiscard]] config::Configuration configuration() const {
    auto cfg = config::Configuration::simple(kProducers + 1);
    cfg.time_limit = kTimeLimit;
    cfg.reliable.enabled = true;
    cfg.faults.seed = fault_seed_;
    cfg.faults.bus_loss = 0.05;
    cfg.faults.bus_duplication = 0.025;
    return cfg;
  }
  [[nodiscard]] std::int64_t ops() const { return kProducers * per_producer_; }
  [[nodiscard]] std::uint64_t expected_tasks() const { return kProducers + 1; }
  [[nodiscard]] const std::vector<std::int64_t>& op_ns() const { return op_ns_; }
  void reset() {
    const auto n = static_cast<std::size_t>(ops());
    op_ns_.assign(n, 0);
    t_sent_.assign(n, 0);
    seen_.assign(n, 0);
    bad_ = 0;
  }

  template <bool kTraced>
  void install(rt::Runtime& runtime, Calls<kTraced> k) {
    runtime.register_tasktype("consumer", [this, k](rt::TaskContext& ctx) mutable {
      std::int64_t last = -1;
      ctx.on_message("item", [this, &last](rt::TaskContext&, const rt::Message& m) {
        last = m.args.at(0).as_int();
        const auto i = static_cast<std::size_t>(last);
        if (seen_[i]++ == 0) op_ns_[i] = now_ns() - t_sent_[i];
        if (m.args.at(1).as_int_array() != payload_[i]) ++bad_;
      });
      for (int p = 0; p < kProducers; ++p) {
        k.initiate(ctx, -1, rt::Where::Cluster(2 + p), "producer", {rt::Value(p)});
      }
      for (std::int64_t n = 0; n < ops(); ++n) {
        k.accept(ctx, -1, rt::AcceptSpec{}.of("item").total(1).forever());
        k.send(ctx, last, rt::Dest::Sender(), "credit");
      }
    });
    runtime.register_tasktype("producer", [this, k](rt::TaskContext& ctx) mutable {
      const std::int64_t p = ctx.args().at(0).as_int();
      int credits = kWindow;
      ctx.on_message("credit", [&credits](rt::TaskContext&, const rt::Message&) {
        ++credits;
      });
      for (std::int64_t j = 0; j < per_producer_; ++j) {
        const std::int64_t id = p * per_producer_ + j;
        if (credits == 0) {
          k.accept(ctx, id, rt::AcceptSpec{}.of("credit").total(1).forever());
        }
        --credits;
        t_sent_[static_cast<std::size_t>(id)] = now_ns();
        k.send(ctx, id, rt::Dest::Parent(), "item",
               {rt::Value(id), rt::Value(payload_[static_cast<std::size_t>(id)])});
      }
      // Drain the outstanding credits so the in-queue ends empty.
      while (credits < kWindow) {
        k.accept(ctx, -1, rt::AcceptSpec{}.of("credit").total(1).forever());
      }
    });
  }
  void start(rt::Runtime& runtime) { runtime.user_initiate(1, "consumer"); }
  bool check(const rt::Runtime& runtime, std::string& why) const {
    const auto& st = runtime.stats();
    if (st.reliable_copies_sent != st.reliable_copies_lost + st.reliable_copies_arrived) {
      why = "lossy: copies_sent != lost + arrived";
      return false;
    }
    if (st.reliable_copies_arrived !=
        st.dup_drops + st.reliable_delivered + st.reliable_dead_letters) {
      why = "lossy: arrived != dup_drops + delivered + dead_letters";
      return false;
    }
    const auto once = std::count(seen_.begin(), seen_.end(), 1);
    if (once != ops() || bad_ != 0) {
      why = "lossy: " + std::to_string(once) + " of " + std::to_string(ops()) +
            " items delivered exactly once, " + std::to_string(bad_) + " corrupt";
      return false;
    }
    return true;
  }

 private:
  std::int64_t per_producer_;
  std::uint64_t fault_seed_;
  std::vector<std::vector<std::int64_t>> payload_;
  std::vector<std::int64_t> op_ns_;
  std::vector<std::int64_t> t_sent_;
  std::vector<int> seen_;
  std::int64_t bad_ = 0;
};

}  // namespace perfbench
