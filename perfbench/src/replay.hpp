#pragma once

// Replay micro-timings: each calls one layer's public functions outside the
// simulation, fed with the op mix the traced run observed (queue depth,
// message sizes, type names, argument vectors). Each result is the median
// ns per call over several batches.

#include "calls.hpp"
#include "config/configuration.hpp"

namespace perfbench {

struct ReplayInputs {
  pisces::config::Configuration cfg;
  double queue_depth = 1.0;       ///< mean pending engine events per step
  double heap_live_blocks = 1.0;  ///< mean live message-heap blocks per step
  const Recorded* traffic = nullptr;
};

struct ReplayResults {
  double eventq_ns_per_event = 0;   ///< EventQueue push + pop at the workload's depth
  double resume_ns_per_event = 0;   ///< Engine event that resumes a fiber (sleep_until)
  double spawn_ns_per_proc = 0;     ///< Engine spawn -> run -> finish
  double compute_ns_per_call = 0;   ///< mmos Proc::compute on an idle PE
  double heap_ns_per_alloc = 0;     ///< SharedHeap allocate + release
  double bus_ns_per_transfer = 0;   ///< Interconnect::transfer
  double msgq_ns_per_msg = 0;       ///< MessageQueue push_back + first_of + take
  double value_copy_ns_per_msg = 0; ///< copy of one argument vector
  double record_off_ns = 0;         ///< Tracer::record, kind filtered, info built
  double validate_ns = 0;           ///< Configuration::validate
};

/// Run every replay; `budget_s` bounds the total host time spent.
ReplayResults run_replays(const ReplayInputs& in, double budget_s);

}  // namespace perfbench
