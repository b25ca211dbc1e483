#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "config/configuration.hpp"
#include "core/context.hpp"
#include "core/task.hpp"
#include "flex/fault.hpp"
#include "flex/shared_heap.hpp"
#include "fsim/file_store.hpp"
#include "fsim/rw_scheduler.hpp"
#include "mmos/system.hpp"
#include "trace/tracer.hpp"

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
  std::map<std::uint32_t, std::string> file_array_names;
  std::map<std::uint32_t, fsim::RwScheduler> file_schedulers;
  std::uint32_t next_file_array_id = 1;

  [[nodiscard]] TaskRecord& slot(int n) { return *slots[static_cast<std::size_t>(n)]; }
  [[nodiscard]] const TaskRecord& slot(int n) const {
    return *slots[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] TaskId controller_id() const { return slot(kTaskControllerSlot).id; }
  [[nodiscard]] int free_user_slots() const {
    return static_cast<int>(free_slots.size());
  }
};

/// Run-wide statistics kept by the run-time library.
struct RuntimeStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_accepted = 0;
  std::uint64_t broadcast_copies = 0;
  std::uint64_t initiates_held = 0;  ///< waited for a slot
  std::uint64_t tasks_started = 0;
  std::uint64_t tasks_finished = 0;
  std::uint64_t tasks_killed = 0;
  std::uint64_t accept_timeouts = 0;
  std::uint64_t dead_letters = 0;    ///< sends to stale/invalid taskids
  std::uint64_t heap_full_waits = 0;
  std::uint64_t window_reads = 0;
  std::uint64_t window_writes = 0;
  std::uint64_t forcesplits = 0;
  std::uint64_t controller_unknown_messages = 0;
  std::uint64_t messages_deleted = 0;
  std::uint64_t message_bytes_sent = 0;
  std::uint64_t childterms_posted = 0;  ///< _CHILDTERM notifications delivered
  std::uint64_t window_retries = 0;     ///< window requests re-sent under faults
  std::uint64_t initiates_migrated = 0; ///< held initiates re-routed off a dead cluster
  std::uint64_t messages_migrated = 0;  ///< queued _INITIATEs re-routed off a dead cluster

  // Reliable-transport counters (all zero when `reliable off`). The copy
  // counters obey two identities once the engine drains:
  //   reliable_copies_sent == reliable_copies_lost + reliable_copies_arrived
  //   reliable_copies_arrived == dup_drops + reliable_delivered
  //                              + reliable_dead_letters
  std::uint64_t reliable_sends = 0;          ///< messages sequenced on a channel
  std::uint64_t reliable_copies_sent = 0;    ///< physical copies dispatched (first sends, retransmits, bus ghosts)
  std::uint64_t reliable_copies_lost = 0;    ///< sequenced copies dropped (bus loss, partitions)
  std::uint64_t reliable_copies_arrived = 0; ///< sequenced copies reaching the receiver PE
  std::uint64_t reliable_delivered = 0;      ///< sequenced messages enqueued exactly once
  std::uint64_t reliable_dead_letters = 0;   ///< sequenced messages settled against a dead task
  std::uint64_t retransmits = 0;             ///< retransmit copies actually re-sent
  std::uint64_t dup_drops = 0;               ///< duplicate copies suppressed by sequence
  std::uint64_t acks_sent = 0;               ///< cumulative ack flushes sent
  std::uint64_t send_failures = 0;           ///< _SENDFAIL surfaced (budget/deadline)
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
  [[nodiscard]] const flex::SharedHeap& message_heap() const { return *msg_heap_; }
  /// The SHARED COMMON area.
  [[nodiscard]] const flex::SharedHeap& common_heap() const { return *common_heap_; }
  /// The interpreter of the configuration's FaultPlan; null on fault-free runs.
  [[nodiscard]] const flex::FaultInjector* fault_injector() const {
    return faults_.get();
  }

  // ---- session-layer supervision surface ----
  /// Observed when a task actually starts (its slot is claimed and its
  /// process created). `tag` is the supervision tag the initiate carried.
  struct TaskStartInfo {
    TaskId id{};
    TaskId parent{};
    std::string tasktype;
    std::uint64_t tag = 0;
    int pe = 0;
  };
  /// Observed when a task terminates abnormally (killed or PE halt); fired
  /// after the slot is reclaimed and the parent notified, so a restart
  /// issued from the hook can reuse the slot. `init_args` are the original
  /// initiate arguments, captured before the record is scrubbed.
  struct TerminationInfo {
    TaskId id{};
    TaskId parent{};
    std::string tasktype;
    std::vector<Value> init_args;
    int pe = 0;
    std::string reason;  ///< "pe-halt" or "killed"
  };
  /// Observed when the reliable transport gives up on a message (retry
  /// budget exhausted or send deadline passed) and surfaces _SENDFAIL.
  /// Lets the session layer tell a transport failure apart from a task
  /// death: the destination task may be perfectly healthy behind a
  /// partition, so supervision must not burn a restart on it.
  struct SendFailInfo {
    TaskId sender{};
    TaskId dest{};
    std::string type;
    int attempts = 0;
    std::string reason;  ///< "retries" or "deadline"
  };
  using TaskStartHook = std::function<void(const TaskStartInfo&)>;
  using TerminationHook = std::function<void(const TerminationInfo&)>;
  using SendFailHook = std::function<void(const SendFailInfo&)>;
  void set_task_start_hook(TaskStartHook h) { task_start_hook_ = std::move(h); }
  void set_termination_hook(TerminationHook h) {
    termination_hook_ = std::move(h);
  }
  void set_send_fail_hook(SendFailHook h) { send_fail_hook_ = std::move(h); }
  /// When on, work queued on a cluster whose primary PE halts — held
  /// initiates and _INITIATE messages still in the dead controller's queue —
  /// is re-routed to the healthiest surviving cluster instead of
  /// dead-lettered. Flipped by the session layer's Supervisor.
  void set_work_migration(bool on) { migrate_work_ = on; }
  [[nodiscard]] bool work_migration() const { return migrate_work_; }
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

  // ---- internals used by TaskContext / force machinery ----
  [[nodiscard]] const flex::CostModel& costs() const {
    return sys_->machine().costs();
  }
  /// Charge `proc` for moving `bytes` through shared memory on its own
  /// cluster bus (latency + bus occupancy).
  void charge_shared(mmos::Proc& proc, std::size_t bytes);
  /// Charge `proc` for a PE-to-PE copy of `bytes` (window pulls): one
  /// cluster-bus transfer when the PEs share a hardware cluster, a
  /// store-and-forward route across the backbone otherwise.
  void charge_transfer(mmos::Proc& proc, std::size_t bytes, int from_pe,
                       int to_pe);
  /// Charge `proc` for one collective-tree signal hop to `peer_pe`: the
  /// fixed signal cost, plus a backbone transfer of the 8-byte flag word
  /// when the peer lives in another hardware cluster.
  void charge_signal(mmos::Proc& proc, int peer_pe);

  /// Deliver a message (sender side already charged). Returns false and
  /// counts a dead letter if `to` is stale. `sender_proc` may be null for
  /// environment-originated messages. `via_pe` overrides the PE the
  /// transfer is billed from (broadcast relay hops re-issue copies from the
  /// relay's PE, not the origin's); the traced sender PE is unaffected.
  bool post(TaskId from, mmos::Proc* sender_proc, TaskId to, std::string type,
            std::vector<Value> args, bool to_reply_queue = false,
            int via_pe = -1);
  /// Give a copy bound for the bus its heap block, send tick and global
  /// sequence, and count its bytes (first sends and retransmissions).
  void stamp(Message& msg, std::size_t offset, std::size_t bytes);
  /// Count and trace a message that reached no live task.
  void dead_letter(TaskId to, TaskId from, int pe, std::uint64_t seq,
                   const std::string& info) {
    ++stats_.dead_letters;
    trace_event(trace::EventKind::dead_letter, to, from, pe, seq, info);
  }
  /// Allocate message bytes in the shared heap, blocking `proc` (if given)
  /// until space is available. A non-zero `deadline` bounds the wait: past
  /// it the waiter gives up and kDeadline comes back (reliable sends with a
  /// configured send deadline must not stall forever behind a full heap).
  std::size_t heap_allocate_blocking(std::size_t bytes, mmos::Proc* proc,
                                     sim::Tick deadline = 0);
  void heap_release(std::size_t offset);

  int resolve_where(const Where& where, int my_cluster) const;
  [[nodiscard]] TaskRecord* live_record(TaskId id);
  /// Pick the PE for a new user task per the cluster's placement policy.
  [[nodiscard]] int place_task_pe(Cluster& cl);
  /// Re-resolve a window's backing array after a blocking charge: the owner
  /// may have been killed meanwhile, freeing the storage. Null if gone.
  [[nodiscard]] Matrix* live_window_array(const Window& w);

  /// Finish delivery of an in-flight message: enqueue it (re-checking that
  /// the destination is still live) and wake the receiver. False (with a
  /// dead letter counted and the heap block released) if the receiver died.
  bool deliver(Message msg, TaskId to, bool to_reply_queue);

  /// An in-flight TO ALL distribution tree. The target snapshot is fixed
  /// when the broadcast is issued; positions 1..targets.size() form a k-ary
  /// tree rooted at the sender (position 0), and each interior position
  /// re-forwards to its children from the PE its own copy just reached, so
  /// bus occupancy of sibling subtrees overlaps instead of serializing at
  /// the root.
  struct BroadcastPlan {
    TaskId origin{};
    std::string type;
    std::vector<Value> args;
    std::vector<TaskId> targets;  ///< position p >= 1 delivers to targets[p-1]
    int fanout = 4;
  };
  /// Post the copy for tree position `pos` and schedule the position's
  /// children. `sender_proc` is non-null only for the root's direct
  /// children, which are dispatched from the sender's own PE (and may block
  /// on a full heap there); relayed copies run as engine events.
  void dispatch_broadcast_copy(const std::shared_ptr<BroadcastPlan>& plan,
                               std::size_t pos, mmos::Proc* sender_proc,
                               int via_pe = -1);
  void schedule_broadcast_children(const std::shared_ptr<BroadcastPlan>& plan,
                                   std::size_t pos);

  /// Sentinel from heap_allocate_blocking when no proc was given and the
  /// heap is full (environment-originated messages are dropped, not blocked).
  static constexpr std::size_t kNoSpace = static_cast<std::size_t>(-1);
  /// Sentinel from heap_allocate_blocking when the wait's deadline expired.
  static constexpr std::size_t kDeadline = static_cast<std::size_t>(-2);

  // ---- reliable transport (active only when cfg_.reliable.enabled) ----
  /// One direction of physical traffic between two PEs. Sender-side state
  /// (sequencing + the retransmit buffer) and receiver-side state (the
  /// settled-sequence summary and the pending ack flush) live together
  /// because the simulator hosts both ends.
  struct ReliableChannel {
    /// A message held for retransmission until the receiver acks its
    /// sequence. Retransmit attempts rebuild a fresh physical copy from
    /// this prototype, so no heap block is pinned while waiting.
    struct Pending {
      TaskId from{};
      TaskId to{};
      std::string type;
      std::vector<Value> args;
      bool to_reply_queue = false;
      int attempts = 0;        ///< retransmissions performed so far
      sim::Tick deadline = 0;  ///< absolute give-up tick; 0 = none
    };
    std::uint64_t next_seq = 0;               ///< sender: last sequence issued
    std::map<std::uint64_t, Pending> unacked; ///< sender: retransmit buffer
    std::uint64_t settled_to = 0;             ///< receiver: contiguous watermark
    std::set<std::uint64_t> settled_above;    ///< receiver: out-of-order settles
    bool ack_pending = false;                 ///< receiver: flush scheduled
  };
  using ChannelKey = std::pair<int, int>;  ///< (sender PE, receiver PE)

  [[nodiscard]] static bool reliable_exempt(const std::string& type);
  [[nodiscard]] static bool channel_settled(const ReliableChannel& ch,
                                            std::uint64_t seq);
  static void channel_settle(ReliableChannel& ch, std::uint64_t seq);
  /// Backoff before the n-th retransmission (sim::capped_backoff).
  [[nodiscard]] sim::Tick reliable_backoff(int attempt) const;
  /// Stamp `msg` with the next channel sequence, enter it into the
  /// retransmit buffer, and arm the first retransmit timer.
  void register_reliable(Message& msg, TaskId from, TaskId to,
                         bool to_reply_queue, int bill_from, int dest_pe);
  void schedule_retransmit(ChannelKey key, std::uint64_t seq, sim::Tick delay);
  /// Retransmit timer body: no-op if acked, give up past the deadline or
  /// budget, otherwise re-send a fresh copy and re-arm with doubled backoff.
  void retransmit_fire(ChannelKey key, std::uint64_t seq);
  /// Count a send given up on ("deadline" or "retries"), post _SENDFAIL to
  /// the sender (out-of-band, like _CHILDTERM) and call the session hook.
  void surface_send_fail(TaskId from, TaskId to, const std::string& type,
                         int attempts, const char* reason);
  void schedule_ack_flush(ChannelKey key);
  /// Ack-flush timer body: bill one reverse control word, then clear every
  /// settled sequence out of the sender's retransmit buffer (cumulative ack).
  void flush_acks(ChannelKey key);
  /// The bus fault gauntlet, shared by first sends and retransmissions.
  /// Engaged when a FaultInjector is armed and the type is not exempt.
  /// Returns the post() result when the fault machinery consumed the copy
  /// (partitioned, lost, delivered with a duplicate, or delayed); nullopt
  /// means the caller should deliver normally.
  std::optional<bool> apply_bus_faults(Message& msg, TaskId from, TaskId to,
                                       bool to_reply_queue, int sender_pe,
                                       int bill_from, int dest_pe);

  // ---- fault injection and recovery ----
  /// Build the FaultInjector and schedule the plan's timed faults (boot).
  void arm_faults();
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
  /// Healthiest live cluster other than `dead_cluster` (ANY placement
  /// rules), or -1 when none survives.
  [[nodiscard]] int pick_survivor(int dead_cluster) const;
  /// With work migration on, trace `<label> cluster=<n>` and post one
  /// _INITIATE off the cluster of controller `dead_ctl` to a survivor,
  /// counting it in `migrated`. False, with nothing posted, when migration
  /// is off or nobody survives.
  bool migrate_initiate(TaskId dead_ctl, TaskId parent, int pe, std::uint64_t seq,
                        const std::string& label, std::vector<Value> args,
                        std::uint64_t& migrated);
  /// Halted PEs among a cluster's {primary} ∪ secondaries (survivor
  /// rebalancing: ANY placement prefers less-degraded clusters).
  [[nodiscard]] int halted_pe_count(const Cluster& cl) const;
  /// False only for PEs halted by fault injection.
  [[nodiscard]] bool pe_usable(int pe) const {
    return faults_ == nullptr || !faults_->pe_halted(pe);
  }
  /// Bounded retry/backoff for heap allocation during an injected outage.
  static constexpr int kHeapOutageAttempts = 8;
  static constexpr sim::Tick kHeapOutageBackoffTicks = 25'000;
  /// Window requests re-sent before giving up, when faults are enabled.
  static constexpr int kWindowRequestAttempts = 4;
  /// Disk passes (1 initial + retries) before an injected error surfaces.
  static constexpr int kDiskIoAttempts = 3;

  void start_controllers(Cluster& cl);
  void task_controller_body(Cluster& cl, TaskContext& ctx);
  void user_controller_body(Cluster& cl, TaskContext& ctx);
  void file_controller_body(Cluster& cl, TaskContext& ctx);
  void handle_initiate(Cluster& cl, TaskContext& ctl, PendingInitiate req);
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
                   std::uint64_t seq, const std::string& info);

  mmos::System* sys_;
  config::Configuration cfg_;
  trace::Tracer tracer_;
  std::map<std::string, TaskBody> tasktypes_;
  std::map<std::string, int> message_arity_;
  // Heaps are declared before clusters_: task records hold SharedBlocks
  // whose destructors release into common_heap_, so the records must be
  // destroyed first (members destruct in reverse declaration order).
  std::unique_ptr<flex::SharedHeap> msg_heap_;
  std::unique_ptr<flex::SharedHeap> common_heap_;
  std::vector<std::unique_ptr<Cluster>> clusters_;  // indexed by position
  std::map<int, Cluster*> by_number_;
  /// Cluster whose user controller serves the terminal; unset until boot
  /// finds the first cluster configured with a terminal. An explicit "unset"
  /// state (not a sentinel number) so any legal cluster number — including
  /// 0 — can own the terminal.
  std::optional<int> terminal_cluster_;
  std::uint64_t next_unique_ = 0;
  std::uint64_t next_msg_seq_ = 0;
  std::uint64_t next_request_id_ = 0;
  std::vector<std::tuple<int, fsim::FileStore, int>> pending_file_stores_;

  /// A sender blocked on a full message heap, with the block size it needs.
  struct HeapWaiter {
    mmos::Proc* proc = nullptr;
    std::size_t need = 0;
  };
  /// FIFO of blocked senders. heap_release wakes waiters in arrival order,
  /// first-fit against the recovered space, instead of waking everyone to
  /// stampede for it.
  std::deque<HeapWaiter> heap_waiters_;
  std::unique_ptr<flex::FaultInjector> faults_;  ///< null unless cfg_.faults.any()
  std::map<ChannelKey, ReliableChannel> reliable_channels_;
  TaskStartHook task_start_hook_;
  TerminationHook termination_hook_;
  SendFailHook send_fail_hook_;
  bool migrate_work_ = false;
  RuntimeStats stats_;
  bool booted_ = false;
  bool timed_out_ = false;
  sim::Tick deadline_ = 0;
};

}  // namespace pisces::rt
