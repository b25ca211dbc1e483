#pragma once

#include <cstdint>
#include <limits>

namespace pisces::sim {

/// Virtual time, in machine "ticks" (the paper's trace clock unit).
/// All PISCES timing is expressed in ticks of the simulated FLEX/32;
/// wall-clock time never enters the model.
using Tick = std::int64_t;

/// Sentinel for "no deadline".
inline constexpr Tick kForever = std::numeric_limits<Tick>::max();

/// Capped exponential backoff before attempt `attempt` (1-based):
/// base · factor^(attempt-1), capped at `cap`. Supervised restarts and
/// reliable retransmits both use it. Repeated multiplication (not pow)
/// keeps the delay the same bit pattern wherever the binary runs; for
/// factor >= 1 the loop stops early once the cap is reached.
[[nodiscard]] inline Tick capped_backoff(Tick base, double factor, Tick cap, int attempt) {
  double d = static_cast<double>(base);
  const auto limit = static_cast<double>(cap);
  for (int i = 1; i < attempt && d < limit; ++i) d *= factor;
  return static_cast<Tick>(d > limit ? limit : d);
}

}  // namespace pisces::sim
