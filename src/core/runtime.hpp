#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "config/configuration.hpp"
#include "core/context.hpp"
#include "core/recovery.hpp"
#include "core/task.hpp"
#include "core/transport.hpp"
#include "fsim/file_store.hpp"
#include "fsim/rw_scheduler.hpp"
#include "mmos/system.hpp"

namespace pisces::rt {

/// An initiate request held by a task controller until a slot frees
/// ("If no slots are available in the cluster, the task controller will
/// hold the initiate request until another task terminates", Section 6).
struct PendingInitiate {
  std::string tasktype;
  TaskId parent{};
  std::vector<Value> args;
  /// Supervision correlation tag carried by restart initiates (0 = none);
  /// handed back through the task-start hook so the session layer can link
  /// a restarted incarnation to its lineage.
  std::uint64_t tag = 0;
};

/// One virtual-machine cluster at run time: its configuration, its slot
/// records (controllers in slots 0-2, user tasks from kFirstUserSlot), and
/// the queue of held initiate requests.
struct Cluster {
  config::ClusterConfig cfg;
  std::vector<std::unique_ptr<TaskRecord>> slots;
  std::deque<PendingInitiate> pending;
  /// Set when the cluster's primary PE is halted by fault injection: its
  /// controllers are gone, so ANY/OTHER placement must route elsewhere.
  bool dead = false;
  /// Free user slots, kept in sync by start_task/finish_task so slot lookup
  /// and placement never rescan the slot table. Ordered so the lowest slot
  /// number is handed out first (deterministic, matches the old scan).
  std::set<int> free_slots;
  /// Round-robin placement cursor over {primary} ∪ secondary_pes.
  std::size_t rr_next = 0;

  // File-controller state (present when a file store is attached).
  std::optional<fsim::FileStore> files;
  int disk_pe = 1;
  std::map<std::string, std::uint32_t> file_array_ids;
  std::vector<std::string> file_array_names;  ///< by file array id - 1
  std::map<std::uint32_t, fsim::RwScheduler> file_schedulers;

  [[nodiscard]] TaskRecord& slot(int n) { return *slots[static_cast<std::size_t>(n)]; }
  [[nodiscard]] const TaskRecord& slot(int n) const {
    return *slots[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] TaskId controller_id() const { return slot(kTaskControllerSlot).id; }
  [[nodiscard]] int free_user_slots() const {
    return static_cast<int>(free_slots.size());
  }
};

/// Outcome of Runtime::try_kill_task, so callers can tell a stale taskid
/// from an attempt to kill a protected controller.
enum class KillResult {
  killed,                ///< the task's process was killed
  not_found,             ///< stale/invalid taskid (or task already dead)
  protected_controller,  ///< controllers (slots 0-2) cannot be killed
};

[[nodiscard]] const char* kill_result_name(KillResult r);

/// The PISCES 2 run-time system: boots the virtual machine described by a
/// Configuration onto the MMOS/FLEX substrate, runs the controller tasks,
/// and implements task initiation, message passing, forces, and windows.
class Runtime {
 public:
  Runtime(mmos::System& sys, config::Configuration cfg);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Register a tasktype definition (must precede any INITIATE naming it).
  void register_tasktype(std::string name, TaskBody body);

  /// Declare a message type's argument count (the MESSAGE declaration of
  /// Pisces Fortran). Optional: undeclared types carry any argument list;
  /// a send of a declared type with the wrong arity throws std::logic_error.
  void declare_message(std::string type, int arity);

  /// Attach a simulated disk's file store to a cluster; the cluster gets a
  /// file controller at boot. `disk_pe` names the FLEX disk used (1 or 2).
  void attach_file_store(int cluster, fsim::FileStore store, int disk_pe = 1);

  /// Validate the configuration, download the loadfile, allocate the shared
  /// system tables, and start the controller tasks. Throws
  /// std::invalid_argument listing problems if the configuration is bad.
  void boot();

  // ---- the execution environment's operations ----
  /// Menu 1, INITIATE A TASK: top-level initiate from the user terminal
  /// (the new task's parent is the user controller).
  void user_initiate(int cluster, std::string tasktype, std::vector<Value> args = {});
  /// Menu 3, SEND A MESSAGE (from the user).
  bool user_send(TaskId to, std::string type, std::vector<Value> args = {});
  /// Menu 2, KILL A TASK. False if the taskid is stale or not a user task.
  bool kill_task(TaskId id) { return try_kill_task(id) == KillResult::killed; }
  /// As kill_task, but reports *why* nothing was killed.
  KillResult try_kill_task(TaskId id);
  /// Menu 4, DELETE MESSAGES: drop queued messages of `type` ("" = all)
  /// from a task's in-queue. Returns how many were deleted.
  int delete_messages(TaskId id, const std::string& type = "");

  /// Taskid of the user controller serving the terminal (destination USER).
  [[nodiscard]] TaskId user_controller_id() const;

  /// Run the simulation to completion or to the configured time limit.
  /// Returns the final tick. Sets timed_out() if the limit was hit.
  sim::Tick run();
  /// Run at most `dt` further ticks.
  sim::Tick run_for(sim::Tick dt);
  [[nodiscard]] bool timed_out() const { return timed_out_; }

  // ---- introspection (execution environment displays, tests, benches) ----
  struct TaskInfo {
    TaskId id{};
    std::string tasktype;
    TaskState state = TaskState::free_slot;
    int pe = 0;
    std::size_t queue_length = 0;
    sim::Tick initiated_at = 0;
  };
  [[nodiscard]] std::vector<TaskInfo> running_tasks() const;
  [[nodiscard]] const Cluster& cluster(int number) const {
    return const_cast<Runtime*>(this)->cluster(number);
  }
  [[nodiscard]] Cluster& cluster(int number);
  [[nodiscard]] const std::vector<std::unique_ptr<Cluster>>& clusters() const {
    return clusters_;
  }
  [[nodiscard]] const TaskRecord* find_record(TaskId id) const;
  [[nodiscard]] const config::Configuration& configuration() const { return cfg_; }

  [[nodiscard]] trace::Tracer& tracer() { return tracer_; }
  [[nodiscard]] mmos::Console& console() { return sys_->console(); }
  [[nodiscard]] mmos::System& system() { return *sys_; }
  [[nodiscard]] flex::Machine& machine() { return sys_->machine(); }
  [[nodiscard]] sim::Engine& engine() { return sys_->engine(); }
  [[nodiscard]] const RuntimeStats& stats() const { return stats_; }
  /// The shared-memory message heap ("message-passing area", Section 11).
  [[nodiscard]] const flex::SharedHeap& message_heap() const { return transport_.heap(); }
  /// The SHARED COMMON area.
  [[nodiscard]] const flex::SharedHeap& common_heap() const { return *common_heap_; }
  /// The interpreter of the configuration's FaultPlan; null on fault-free runs.
  [[nodiscard]] const flex::FaultInjector* fault_injector() const {
    return recovery_.faults();
  }

  // ---- session-layer supervision surface ----
  /// What the session layer's supervision hears from the runtime
  /// (session::Supervisor implements it).
  class SupervisionObserver {
   public:
    /// A task actually started (its slot is claimed and its process
    /// created). `tag` is the supervision tag the initiate carried.
    virtual void on_task_start(TaskId id, TaskId parent, const std::string& tasktype,
                               std::uint64_t tag) = 0;
    /// A task terminated abnormally (killed or PE halt); told after the
    /// slot is reclaimed and the parent notified, so a restart issued from
    /// here can reuse the slot. `init_args` are the original initiate
    /// arguments, captured before the record is scrubbed.
    virtual void on_termination(TaskId id, TaskId parent, const std::string& tasktype,
                                const std::vector<Value>& init_args) = 0;
    /// The reliable transport gave up on a message, `reason` "retries"
    /// (budget exhausted) or "deadline", and surfaced _SENDFAIL. Lets the
    /// session layer tell a transport failure apart from a task death: the
    /// destination task may be perfectly healthy behind a partition, so
    /// supervision must not burn a restart on it.
    virtual void on_send_fail(TaskId sender, TaskId dest, const std::string& type,
                              int attempts, const std::string& reason) = 0;
    /// When true, work queued on a cluster whose primary PE halts — held
    /// initiates and _INITIATE messages still in the dead controller's
    /// queue — is re-routed to the healthiest surviving cluster instead of
    /// dead-lettered.
    [[nodiscard]] virtual bool migrate_work() const = 0;

   protected:
    ~SupervisionObserver() = default;
  };
  /// Attach (or, with nullptr, detach) the supervision observer.
  void set_supervision_observer(SupervisionObserver* o) { observer_ = o; }
  /// Re-issue an initiate on behalf of the supervision layer, preserving
  /// the failed task's parent; routes to the healthiest surviving cluster.
  /// False when every cluster is dead or message storage is denied.
  bool supervised_initiate(std::string tasktype, TaskId parent,
                           std::vector<Value> args, std::uint64_t tag);
  /// Proc-less control message from the session layer (e.g. _SUPFAIL);
  /// rides the same reliable channel as _CHILDTERM.
  bool post_system(TaskId from, TaskId to, std::string type,
                   std::vector<Value> args);

 private:
  friend class TaskContext;
  friend class ForceContext;
  friend class SharedBlock;
  friend class LockVar;
  friend class Recovery;

  [[nodiscard]] const flex::CostModel& costs() const {
    return sys_->machine().costs();
  }

  /// The message path: check the type's arity and that `to` is live
  /// (counting a dead letter if not), reserve heap storage (blocking
  /// `sender_proc`, which may be null for environment-originated
  /// messages), resolve the route and hand the copy to the transport, which
  /// brings it back up to deliver(). `via_pe` overrides the PE the transfer
  /// is billed from (broadcast relay hops re-issue copies from the relay's
  /// PE, not the origin's); the traced sender PE is unaffected.
  bool post(TaskId from, mmos::Proc* sender_proc, TaskId to, std::string type,
            std::vector<Value> args, bool to_reply_queue = false,
            int via_pe = -1);
  /// Finish delivery of an arriving copy: enqueue it (re-checking that the
  /// destination is still live) and wake the receiver. False (with a dead
  /// letter counted and the heap block released) if the receiver died.
  bool deliver(Message&& msg, TaskId to, bool to_reply_queue);
  /// Count a send given up on ("deadline" or "retries"), post _SENDFAIL to
  /// the sender (out-of-band, like _CHILDTERM) and tell the observer.
  void surface_send_fail(TaskId from, TaskId to, const std::string& type,
                         int attempts, const char* reason);
  /// Count and trace a message that reached no live task.
  void dead_letter(TaskId to, TaskId from, int pe, std::uint64_t seq,
                   const std::string& info) {
    ++stats_.dead_letters;
    trace_event(trace::EventKind::dead_letter, to, from, pe, seq, info);
  }

  int resolve_where(const Where& where, int my_cluster) const;
  [[nodiscard]] TaskRecord* live_record(TaskId id);
  /// Pick the PE for a new user task per the cluster's placement policy.
  [[nodiscard]] int place_task_pe(Cluster& cl);
  /// Re-resolve a window's backing array after a blocking charge: the owner
  /// may have been killed meanwhile, freeing the storage. Null if gone.
  [[nodiscard]] Matrix* live_window_array(const Window& w);

  void start_controllers(Cluster& cl);
  void task_controller_body(Cluster& cl, TaskContext& ctx);
  void user_controller_body(Cluster& cl, TaskContext& ctx);
  void file_controller_body(Cluster& cl, TaskContext& ctx);
  /// Start `req` in the cluster's lowest free slot (there must be one).
  void start_task(Cluster& cl, TaskContext& ctl, PendingInitiate req);
  void finish_task(Cluster& cl, int slot, TaskId id);
  void serve_window(TaskContext& ctl, const Message& m);
  void serve_file_window(Cluster& cl, TaskContext& ctl, const Message& m);
  /// Answer window request `m` with _WINERR(rid, reason) from `ctl`.
  void refuse_window(TaskContext& ctl, const Message& m, const std::string& reason);
  /// Refuse `m` (true) when `w`'s rect leaves `arr` or a write's data does
  /// not fill it; `kind` names the array in the reason.
  bool refuse_misfit(TaskContext& ctl, const Message& m, const Window& w,
                     const Matrix& arr, const char* kind);

  /// Count a trace event; build its record only when a sink will take it.
  void trace_event(trace::EventKind kind, TaskId task, TaskId other, int pe,
                   std::uint64_t seq, const std::string& info) {
    tracer_.record(kind, sys_->engine().now(), task, other, pe, seq, info);
  }

  mmos::System* sys_;
  config::Configuration cfg_;
  trace::Tracer tracer_;
  RuntimeStats stats_;
  std::map<std::string, TaskBody> tasktypes_;
  std::map<std::string, int> message_arity_;
  Transport transport_;
  Recovery recovery_;
  // The common heap is declared before clusters_: task records hold
  // SharedBlocks whose destructors release into it, so the records must be
  // destroyed first (members destruct in reverse declaration order).
  std::unique_ptr<flex::SharedHeap> common_heap_;
  std::vector<std::unique_ptr<Cluster>> clusters_;  // indexed by position
  std::map<int, Cluster*> by_number_;
  /// Cluster whose user controller serves the terminal; unset until boot
  /// finds the first cluster configured with a terminal. An explicit "unset"
  /// state (not a sentinel number) so any legal cluster number — including
  /// 0 — can own the terminal.
  std::optional<int> terminal_cluster_;
  std::uint64_t next_unique_ = 0;
  std::uint64_t next_request_id_ = 0;
  std::vector<std::tuple<int, fsim::FileStore, int>> pending_file_stores_;
  SupervisionObserver* observer_ = nullptr;
  bool booted_ = false;
  bool timed_out_ = false;
  sim::Tick deadline_ = 0;
};

}  // namespace pisces::rt
