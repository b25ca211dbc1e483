#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "config/configuration.hpp"
#include "core/message.hpp"
#include "flex/machine.hpp"
#include "flex/shared_heap.hpp"
#include "mmos/proc.hpp"
#include "trace/tracer.hpp"

namespace pisces::rt {

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

/// Where one physical copy travels: the PE traced as its sender, the PE
/// its transfer is billed from (a broadcast relay re-issues copies from its
/// own PE, not the origin's) and the receiver's PE.
struct Route {
  int sender_pe = 0;
  int from = 0;
  int to = 0;
};

/// The message transport: everything below "resolve the destination". It
/// owns the shared-memory message heap ("message-passing area", Section
/// 11) and the FIFO of senders waiting on it, bills the bus, stamps copies,
/// runs the bus fault gauntlet and keeps the reliable channels. A copy that
/// reaches its receiver PE, past the duplicate filter, goes up through the
/// upcalls fixed at construction.
class Transport {
 public:
  /// The layer above. `deliver` takes every arriving copy (it enqueues or
  /// dead-letters it); `send_failed` hears of a sequenced send the channel
  /// gave up on ("retries" or "deadline"). Plain function pointers, so the
  /// per-message path has no type erasure.
  struct Upcalls {
    void* owner = nullptr;
    bool (*deliver)(void* owner, Message&& msg, TaskId to, bool to_reply_queue) = nullptr;
    void (*send_failed)(void* owner, TaskId from, TaskId to, const std::string& type,
                        int attempts, const char* reason) = nullptr;
  };

  Transport(flex::Machine& machine, const config::Configuration& cfg,
            trace::Tracer& tracer, RuntimeStats& stats, Upcalls up)
      : machine_(&machine), cfg_(&cfg), tracer_(&tracer), stats_(&stats),
        up_(up), heap_(cfg.message_heap_bytes) {}
  Transport(const Transport&) = delete;  // scheduled timers hold `this`
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] flex::SharedHeap& heap() { return heap_; }
  [[nodiscard]] const flex::SharedHeap& heap() const { return heap_; }

  /// Allocate `msg`'s bytes in the message heap (recording them in
  /// `msg.heap_bytes`), blocking `proc` (if given) until space is
  /// available. A sequenced send with a configured send deadline gives up
  /// past it with kDeadline: it must not stall forever behind a full heap.
  std::size_t heap_allocate_blocking(Message& msg, mmos::Proc* proc);
  void heap_release(std::size_t offset);
  /// Sentinel from heap_allocate_blocking when no proc was given and the
  /// heap is full (environment-originated messages are dropped, not blocked).
  static constexpr std::size_t kNoSpace = static_cast<std::size_t>(-1);
  /// Sentinel from heap_allocate_blocking when the wait's deadline expired.
  static constexpr std::size_t kDeadline = static_cast<std::size_t>(-2);

  /// Move `msg`, holding heap block `off`, along `route`: bill the sender,
  /// stamp, count and trace the send, sequence it on its reliable channel,
  /// face the bus faults, and hand the copy up. `sender_proc` may be null
  /// for environment-originated messages.
  bool send(Message msg, std::size_t off, mmos::Proc* sender_proc, TaskId to,
            bool to_reply_queue, Route route);

  /// Charge `proc` for moving `bytes` through shared memory on its own
  /// cluster bus (latency + bus occupancy).
  void charge_shared(mmos::Proc& proc, std::size_t bytes) {
    charge_transfer(proc, bytes, proc.pe(), proc.pe());
  }
  /// Charge `proc` for a PE-to-PE copy of `bytes` (window pulls): one
  /// cluster-bus transfer when the PEs share a hardware cluster, a
  /// store-and-forward route across the backbone otherwise.
  void charge_transfer(mmos::Proc& proc, std::size_t bytes, int from_pe,
                       int to_pe);
  /// Charge `proc` for one collective-tree signal hop to `peer_pe`: the
  /// fixed signal cost, plus a backbone transfer of the 8-byte flag word
  /// when the peer lives in another hardware cluster.
  void charge_signal(mmos::Proc& proc, int peer_pe);

 private:
  /// One direction of physical traffic between two PEs. Sender-side state
  /// (sequencing + the retransmit buffer) and receiver-side state (the
  /// settled-sequence summary and the pending ack flush) live together
  /// because the simulator hosts both ends.
  struct ReliableChannel {
    /// A message held for retransmission until the receiver acks its
    /// sequence. Retransmit attempts rebuild a fresh physical copy from
    /// this prototype, so no heap block is pinned while waiting.
    struct Pending {
      Message proto;
      TaskId to{};
      bool to_reply_queue = false;
      int attempts = 0;        ///< retransmissions performed so far
      sim::Tick deadline = 0;  ///< absolute give-up tick; 0 = none
    };
    std::uint64_t next_seq = 0;               ///< sender: last sequence issued
    std::map<std::uint64_t, Pending> unacked; ///< sender: retransmit buffer
    std::uint64_t settled_to = 0;             ///< receiver: contiguous watermark
    std::set<std::uint64_t> settled_above;    ///< receiver: out-of-order settles
    bool ack_pending = false;                 ///< receiver: flush scheduled

    /// Receiver: `seq` was already delivered or dead-lettered once.
    [[nodiscard]] bool settled(std::uint64_t seq) const {
      return seq <= settled_to || settled_above.count(seq) != 0;
    }
    void settle(std::uint64_t seq);
  };
  using ChannelKey = std::pair<int, int>;  ///< (sender PE, receiver PE)

  [[nodiscard]] const flex::CostModel& costs() const { return machine_->costs(); }
  [[nodiscard]] sim::Engine& engine() { return machine_->engine(); }
  void trace(trace::EventKind kind, TaskId task, TaskId other, int pe,
             std::uint64_t seq, const std::string& info) {
    tracer_->record(kind, engine().now(), task, other, pe, seq, info);
  }
  /// Give a copy bound for the bus its heap block, send tick and global
  /// sequence, and count its bytes (first sends and retransmissions).
  void stamp(Message& msg, std::size_t offset, std::size_t bytes);
  /// A copy reaching its receiver PE: sequenced copies pass the channel's
  /// duplicate filter, then the copy goes up.
  bool deliver(Message&& msg, TaskId to, bool to_reply_queue);
  /// The bus fault gauntlet, shared by first sends and retransmissions.
  /// Engaged when a FaultInjector is armed and the type is not exempt. The
  /// copy is partitioned, lost, delivered with a duplicate, delayed, or
  /// delivered normally; returns the send() result.
  bool apply_bus_faults(Message&& msg, TaskId to, bool to_reply_queue, Route route);

  [[nodiscard]] static bool reliable_exempt(const std::string& type);
  [[nodiscard]] bool sequenced(const std::string& type) const {
    return cfg_->reliable.enabled && !reliable_exempt(type);
  }
  /// Give-up tick of a sequenced send issued now; 0 = no send deadline.
  [[nodiscard]] sim::Tick send_deadline() {
    const sim::Tick d = cfg_->reliable.send_deadline;
    return d > 0 ? engine().now() + d : 0;
  }
  /// Backoff before the n-th retransmission (sim::capped_backoff).
  [[nodiscard]] sim::Tick reliable_backoff(int attempt) const;
  /// Stamp `msg` with the next channel sequence, enter it into the
  /// retransmit buffer, and arm the first retransmit timer.
  void register_reliable(Message& msg, TaskId to, bool to_reply_queue,
                         Route route);
  void schedule_retransmit(ChannelKey key, std::uint64_t seq, sim::Tick delay);
  /// Retransmit timer body: no-op if acked, give up past the deadline or
  /// budget, otherwise re-send a fresh copy and re-arm with doubled backoff.
  void retransmit_fire(ChannelKey key, std::uint64_t seq);
  void schedule_ack_flush(ChannelKey key);
  /// Ack-flush timer body: bill one reverse control word, then clear every
  /// settled sequence out of the sender's retransmit buffer (cumulative ack).
  void flush_acks(ChannelKey key);

  flex::Machine* machine_;
  const config::Configuration* cfg_;
  trace::Tracer* tracer_;
  RuntimeStats* stats_;
  Upcalls up_;
  flex::SharedHeap heap_;
  std::uint64_t next_msg_seq_ = 0;
  /// A sender blocked on a full message heap, with the block size it needs.
  struct HeapWaiter {
    mmos::Proc* proc = nullptr;
    std::size_t need = 0;
  };
  /// FIFO of blocked senders. heap_release wakes waiters in arrival order,
  /// first-fit against the recovered space, instead of waking everyone to
  /// stampede for it.
  std::deque<HeapWaiter> heap_waiters_;
  std::map<ChannelKey, ReliableChannel> reliable_channels_;
};

}  // namespace pisces::rt
