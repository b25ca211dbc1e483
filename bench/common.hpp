#pragma once

// Shared scaffolding for the reproduction benches. Every bench binary
// prints its paper-style tables first (deterministic, simulated-tick
// results), then runs its google-benchmark microbenchmarks (host-time
// measurements of the same code paths).

#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"

namespace pisces::bench {

/// One fully-assembled simulated FLEX/32 + MMOS + PISCES runtime.
struct Sim {
  sim::Engine engine;
  flex::Machine machine;
  mmos::System system;
  std::unique_ptr<rt::Runtime> runtime;

  explicit Sim(config::Configuration cfg) : machine(engine), system(machine) {
    cfg.time_limit = 50'000'000'000;
    runtime = std::make_unique<rt::Runtime>(system, std::move(cfg));
  }

  rt::Runtime& rt() { return *runtime; }
};

/// Register `body` as tasktype "main", boot, initiate it on cluster 1, and
/// run to completion. Returns the final virtual tick.
inline sim::Tick run_main(Sim& sim, rt::TaskBody body,
                          std::vector<rt::Value> args = {}) {
  sim.rt().register_tasktype("main", std::move(body));
  sim.rt().boot();
  sim.rt().user_initiate(1, "main", std::move(args));
  return sim.rt().run();
}

/// Simple table printer; each column is sized to its header (min 14) and
/// the first column gets extra room for long row labels.
class Table {
 public:
  explicit Table(std::vector<std::string> headers, int first_width = 28) {
    for (std::size_t i = 0; i < headers.size(); ++i) {
      widths_.push_back(std::max<int>(i == 0 ? first_width : 14,
                                      static_cast<int>(headers[i].size()) + 2));
    }
    for (std::size_t i = 0; i < headers.size(); ++i) {
      std::cout << std::left << std::setw(widths_[i]) << headers[i];
    }
    std::cout << "\n";
    for (std::size_t i = 0; i < headers.size(); ++i) {
      std::cout << std::left << std::setw(widths_[i])
                << std::string(headers[i].size(), '-');
    }
    std::cout << "\n";
  }

  template <typename... Ts>
  void row(Ts&&... cells) {
    std::size_t i = 0;
    ((std::cout << std::left << std::setw(widths_[std::min(i++, widths_.size() - 1)])
                << cells),
     ...);
    std::cout << "\n";
  }

 private:
  std::vector<int> widths_;
};

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

inline void note(const std::string& text) { std::cout << text << "\n"; }

}  // namespace pisces::bench
