#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "core/value.hpp"
#include "flex/fault.hpp"

namespace pisces::rt {

class Runtime;
struct Cluster;

/// Fault injection and recovery: arms the configuration's FaultPlan, and
/// acts on the runtime's clusters and controllers when a PE halts or
/// rejoins, migrating queued work off a dead cluster when supervision asks
/// for it.
class Recovery {
 public:
  explicit Recovery(Runtime& rt) : rt_(&rt) {}
  Recovery(const Recovery&) = delete;  // scheduled fault events hold `this`
  Recovery& operator=(const Recovery&) = delete;

  /// The interpreter of the FaultPlan; null on fault-free runs.
  [[nodiscard]] flex::FaultInjector* faults() const { return faults_.get(); }
  /// False only for PEs halted by fault injection.
  [[nodiscard]] bool pe_usable(int pe) const {
    return faults_ == nullptr || !faults_->pe_halted(pe);
  }
  /// Build the FaultInjector and schedule the plan's timed faults (boot).
  void arm_faults();
  /// Healthiest live cluster other than `dead_cluster` (ANY placement
  /// rules), or -1 when none survives.
  [[nodiscard]] int pick_survivor(int dead_cluster) const;
  /// Halted PEs among a cluster's {primary} ∪ secondaries (survivor
  /// rebalancing: ANY placement prefers less-degraded clusters).
  [[nodiscard]] int halted_pe_count(const Cluster& cl) const;

  /// Bounded retry/backoff for heap allocation during an injected outage.
  static constexpr int kHeapOutageAttempts = 8;
  static constexpr sim::Tick kHeapOutageBackoffTicks = 25'000;
  /// Window requests re-sent before giving up, when faults are enabled.
  static constexpr int kWindowRequestAttempts = 4;
  /// Disk passes (1 initial + retries) before an injected error surfaces.
  static constexpr int kDiskIoAttempts = 3;

 private:
  /// Trace fault event `info` on `pe` and, when `banner` is given, print
  /// "PISCES FAULT: <banner>" on the console.
  void fault_event(int pe, const std::string& info, const std::string& banner = {});
  /// A PE-halt fault: kill everything on the PE, mark clusters whose
  /// primary died as dead, and abort tasks wedged on lost force members.
  void on_pe_halt(int pe);
  /// A fail-recovery fault: the PE rejoins cold — kernel dispatches again,
  /// clusters whose primary it was get fresh controllers, stale taskids
  /// addressed to the old incarnation keep dead-lettering.
  void on_pe_recover(int pe);
  /// Reclaim a dead cluster's controller records: drain their queued
  /// messages (migrating _INITIATEs when enabled), release heap storage,
  /// and free the slots so posts to them dead-letter exactly once.
  void reclaim_controllers(Cluster& cl, int pe);
  /// With work migration on, trace `<label> cluster=<n>` and post one
  /// _INITIATE off the cluster of controller `dead_ctl` to a survivor,
  /// counting it in `migrated`. False, with nothing posted, when migration
  /// is off or nobody survives.
  bool migrate_initiate(TaskId dead_ctl, TaskId parent, int pe, std::uint64_t seq,
                        const std::string& label, std::vector<Value> args,
                        std::uint64_t& migrated);

  Runtime* rt_;
  std::unique_ptr<flex::FaultInjector> faults_;  ///< null unless the plan has faults
};

}  // namespace pisces::rt
