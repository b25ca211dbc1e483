#include "core/transport.hpp"

#include <algorithm>

#include "core/recovery.hpp"
#include "flex/fault.hpp"

namespace pisces::rt {

// ---- bus billing ----

void Transport::charge_transfer(mmos::Proc& proc, std::size_t bytes, int from_pe,
                                int to_pe) {
  const sim::Tick now = engine().now();
  const sim::Tick done = machine_->message_transfer(now, bytes, from_pe, to_pe);
  if (done > now) proc.compute(done - now);
}

void Transport::charge_signal(mmos::Proc& proc, int peer_pe) {
  proc.compute(costs().collective_signal);
  if (machine_->interconnect().crosses_backbone(proc.pe(), peer_pe)) {
    // The locally-polled flag lives in the peer's cluster: publishing it
    // moves one 8-byte word across the backbone route.
    charge_transfer(proc, 8, proc.pe(), peer_pe);
  }
}

// ---- the message heap ----

std::size_t Transport::heap_allocate_blocking(Message& msg, mmos::Proc* proc) {
  const std::size_t bytes = msg.heap_bytes = msg.encoded_size();
  const sim::Tick deadline = sequenced(msg.type) ? send_deadline() : 0;
  bool retried = false;
  int outage_denials = 0;
  sim::Tick backoff = Recovery::kHeapOutageBackoffTicks;
  while (true) {
    if (deadline > 0 && engine().now() >= deadline) return kDeadline;
    if (heap_.outage()) {
      // Injected allocation-failure window: bounded retry with exponential
      // backoff, then a typed failure (the caller drops the message and
      // reports a failed send rather than blocking forever).
      if (auto* faults = machine_->fault_injector()) ++faults->stats().heap_denials;
      if (proc == nullptr || ++outage_denials >= Recovery::kHeapOutageAttempts) {
        return kNoSpace;
      }
      sim::Tick until = engine().now() + backoff;
      if (deadline > 0) until = std::min(until, deadline);
      (void)proc->block_with_timeout(until);
      backoff *= 2;
      continue;
    }
    auto off = heap_.allocate(bytes);
    if (off.has_value()) return *off;
    if (proc == nullptr) return kNoSpace;
    ++stats_->heap_full_waits;
    const std::size_t need =
        flex::SharedHeap::round_up(std::max<std::size_t>(bytes, 1));
    // First wait joins the back of the FIFO; a sender whose retry lost to
    // fragmentation goes back to the front so it keeps its turn.
    heap_waiters_.insert(retried ? heap_waiters_.begin() : heap_waiters_.end(),
                         HeapWaiter{proc, need});
    retried = true;
    if (proc->block_with_timeout(deadline > 0 ? deadline : sim::kForever)) {
      // Deadline give-up: leave the FIFO, so a later heap_release does not
      // wake a sender that already moved on.
      auto it = std::find_if(heap_waiters_.begin(), heap_waiters_.end(),
                             [proc](const HeapWaiter& w) { return w.proc == proc; });
      if (it != heap_waiters_.end()) heap_waiters_.erase(it);
      return kDeadline;
    }
  }
}

void Transport::heap_release(std::size_t offset) {
  heap_.release(offset);
  if (heap_waiters_.empty()) return;
  // Wake blocked senders first-fit in FIFO order: the oldest waiter whose
  // block fits is woken, then the next, while recovered space (bounded by
  // the total free bytes) plausibly remains. Everyone left keeps waiting for
  // the next release instead of stampeding awake only to re-block.
  const std::size_t largest = heap_.largest_free_block();
  std::size_t budget = heap_.capacity() - heap_.in_use();
  for (auto it = heap_waiters_.begin(); it != heap_waiters_.end();) {
    if (it->proc == nullptr || it->proc->finished()) {
      it = heap_waiters_.erase(it);
      continue;
    }
    if (it->need <= largest && it->need <= budget) {
      budget -= it->need;
      it->proc->wake();
      it = heap_waiters_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---- sending and delivery ----

void Transport::stamp(Message& msg, std::size_t offset, std::size_t bytes) {
  msg.heap_offset = offset;
  msg.heap_bytes = bytes;
  msg.sent_at = msg.arrived_at = engine().now();
  msg.seq = ++next_msg_seq_;
  stats_->message_bytes_sent += bytes;
}

bool Transport::send(Message msg, std::size_t off, mmos::Proc* sender_proc,
                     TaskId to, bool to_reply_queue, Route route) {
  const std::size_t bytes = msg.heap_bytes;
  if (sender_proc != nullptr) {
    sender_proc->compute(costs().heap_alloc);
    charge_transfer(*sender_proc, bytes, route.from, route.to);
  } else {
    machine_->message_transfer(engine().now(), bytes, route.from, route.to);
  }
  stamp(msg, off, bytes);
  ++stats_->messages_sent;
  trace(trace::EventKind::msg_send, msg.sender, to, route.sender_pe, msg.seq,
        msg.type);

  // Reliable transport: stamp the copy with its channel sequence and hold
  // it in the retransmit buffer before it faces the bus, so a first copy
  // lost to the fault gauntlet below is already covered by a timer.
  if (sequenced(msg.type)) register_reliable(msg, to, to_reply_queue, route);
  return apply_bus_faults(std::move(msg), to, to_reply_queue, route);
}

bool Transport::apply_bus_faults(Message&& msg, TaskId to, bool to_reply_queue,
                                 Route route) {
  // Fault injection. Supervision control traffic (_CHILDTERM, _SUPFAIL) and
  // the transport's own _SENDFAIL ride a reliable out-of-band channel: the
  // recovery guarantee is that a parent always learns its child died, and
  // the supervisor's escalation always reaches a live ancestor — no bus
  // fault or partition touches them.
  flex::FaultInjector* faults = machine_->fault_injector();
  if (faults == nullptr || reliable_exempt(msg.type)) {
    return deliver(std::move(msg), to, to_reply_queue);
  }
  const std::size_t bytes = msg.heap_bytes;
  const sim::Tick now = engine().now();
  auto& ic = machine_->interconnect();
  const TaskId from = msg.sender;
  // A partition window refuses the transfer outright (checked before the
  // per-transfer fault draw: a partitioned bus never arbitrates the
  // message at all). The transfer was already charged — the copy is
  // dropped at the cluster boundary, like a lost one. Under the shared
  // topology the window severs traffic between the two *configured*
  // clusters; under hier/numa it severs the backbone link between their
  // hardware clusters, so only routes that actually cross that link are
  // affected.
  const bool partition_hit =
      ic.kind() == flex::Topology::shared
          ? (from.cluster != to.cluster &&
             faults->partitioned(from.cluster, to.cluster, now))
          : (ic.crosses_backbone(route.from, route.to) &&
             faults->backbone_partitioned(ic.cluster_of(route.from),
                                          ic.cluster_of(route.to), now));
  if (partition_hit) ++faults->stats().bus_partition_drops;
  switch (partition_hit ? flex::BusFault::lose : faults->next_bus_fault()) {
    case flex::BusFault::lose:
      // The transfer happened (and was charged) but the message vanishes.
      // Asynchronous sends don't learn about the loss; the send succeeds.
      // (Under the reliable layer the retransmit timer covers the copy.)
      if (msg.chan_seq != 0) ++stats_->reliable_copies_lost;
      trace(trace::EventKind::fault, from, to, route.sender_pe, msg.seq,
            (partition_hit ? "bus-partition " : "bus-lose ") + msg.type);
      ic.note_faulted(route.from, route.to);
      heap_release(msg.heap_offset);
      return true;
    case flex::BusFault::duplicate:
      if (auto doff = heap_.allocate(bytes); doff.has_value()) {
        trace(trace::EventKind::fault, from, to, route.sender_pe, msg.seq,
              "bus-dup " + msg.type);
        ic.note_faulted(route.from, route.to);
        machine_->message_transfer(now, bytes, route.from, route.to);
        Message dup = msg;  // same chan_seq: the receiver suppresses one copy
        dup.heap_offset = *doff;
        dup.seq = ++next_msg_seq_;
        if (dup.chan_seq != 0) ++stats_->reliable_copies_sent;
        const bool ok = deliver(std::move(msg), to, to_reply_queue);
        (void)deliver(std::move(dup), to, to_reply_queue);
        return ok;
      }
      break;  // no storage for the ghost copy: deliver just the original
    case flex::BusFault::delay: {
      const sim::Tick delay = cfg_->faults.bus_delay_ticks;
      trace(trace::EventKind::fault, from, to, route.sender_pe, msg.seq,
            "bus-delay " + msg.type);
      ic.stall(now, route.from, route.to, delay);
      engine().schedule(
          now + delay, [this, m = std::move(msg), to, to_reply_queue]() mutable {
            (void)deliver(std::move(m), to, to_reply_queue);
          });
      return true;
    }
    case flex::BusFault::none:
      break;
  }
  return deliver(std::move(msg), to, to_reply_queue);
}

bool Transport::deliver(Message&& msg, TaskId to, bool to_reply_queue) {
  // Sequenced copies pass the channel's receive filter first: any arrival
  // triggers an (eventual) cumulative ack, and a sequence that already
  // settled — delivered or dead-lettered once — is suppressed as a
  // duplicate, whether it came from a bus duplication or a retransmission
  // racing the ack.
  if (msg.chan_seq != 0) {
    const ChannelKey key{msg.chan_from, msg.chan_to};
    auto& ch = reliable_channels_[key];
    ++stats_->reliable_copies_arrived;
    schedule_ack_flush(key);
    if (ch.settled(msg.chan_seq)) {
      ++stats_->dup_drops;
      trace(trace::EventKind::dup_drop, to, msg.sender, msg.chan_to, msg.seq,
            msg.type);
      heap_release(msg.heap_offset);
      return true;
    }
    ch.settle(msg.chan_seq);
  }
  return up_.deliver(up_.owner, std::move(msg), to, to_reply_queue);
}

// ---- reliable channels ----

bool Transport::reliable_exempt(const std::string& type) {
  return type == "_CHILDTERM" || type == "_SUPFAIL" || type == "_SENDFAIL";
}

void Transport::ReliableChannel::settle(std::uint64_t seq) {
  if (seq == settled_to + 1) {
    settled_to = seq;
    // Absorb any out-of-order settles that now extend the watermark.
    auto it = settled_above.begin();
    while (it != settled_above.end() && *it == settled_to + 1) {
      settled_to = *it;
      it = settled_above.erase(it);
    }
  } else {
    settled_above.insert(seq);
  }
}

sim::Tick Transport::reliable_backoff(int attempt) const {
  const auto& r = cfg_->reliable;
  return sim::capped_backoff(r.backoff_base, r.backoff_factor, r.backoff_cap, attempt);
}

void Transport::register_reliable(Message& msg, TaskId to, bool to_reply_queue,
                                  Route route) {
  const ChannelKey key{route.from, route.to};
  auto& ch = reliable_channels_[key];
  msg.chan_seq = ++ch.next_seq;
  msg.chan_from = route.from;
  msg.chan_to = route.to;
  ++stats_->reliable_sends;
  ++stats_->reliable_copies_sent;
  // Retransmissions rebuild the copy from this prototype.
  ch.unacked.emplace(msg.chan_seq, ReliableChannel::Pending{msg, to, to_reply_queue,
                                                            0, send_deadline()});
  schedule_retransmit(key, msg.chan_seq, reliable_backoff(1));
}

void Transport::schedule_retransmit(ChannelKey key, std::uint64_t seq,
                                    sim::Tick delay) {
  engine().schedule(engine().now() + delay,
                    [this, key, seq] { retransmit_fire(key, seq); });
}

void Transport::retransmit_fire(ChannelKey key, std::uint64_t seq) {
  // Channels are never erased, so `ch` stays valid across the delivery below.
  auto& ch = reliable_channels_[key];
  const auto it = ch.unacked.find(seq);
  if (it == ch.unacked.end()) return;  // acked meanwhile: timer no-ops
  auto& p = it->second;
  const sim::Tick now = engine().now();
  const char* give_up = p.deadline > 0 && now >= p.deadline ? "deadline"
                        : p.attempts >= cfg_->reliable.max_retries ? "retries"
                                                                   : nullptr;
  if (give_up != nullptr) {
    const ReliableChannel::Pending gone = std::move(p);
    ch.unacked.erase(it);
    up_.send_failed(up_.owner, gone.proto.sender, gone.to, gone.proto.type,
                    gone.attempts, give_up);
    return;
  }
  ++p.attempts;
  Message m = p.proto;
  const std::size_t bytes = m.encoded_size();
  // Timers run proc-less, so allocation cannot block; a full heap costs the
  // attempt (the budget still bounds total work under a persistent outage)
  // and the next timer tries again.
  const auto off = heap_.allocate(bytes);
  if (!off.has_value()) {
    schedule_retransmit(key, seq, reliable_backoff(p.attempts + 1));
    return;
  }
  stamp(m, *off, bytes);
  ++stats_->retransmits;
  ++stats_->reliable_copies_sent;
  trace(trace::EventKind::retransmit, m.sender, p.to, key.first, m.seq,
        m.type + " #" + std::to_string(p.attempts));
  machine_->message_transfer(now, bytes, key.first, key.second);
  const TaskId to = p.to;
  const bool to_reply = p.to_reply_queue;
  // apply_bus_faults may mutate the channel map (acks, settles), so
  // `p`/`it` must not be touched past this point.
  (void)apply_bus_faults(std::move(m), to, to_reply, {key.first, key.first, key.second});
  const auto pit = ch.unacked.find(seq);
  if (pit == ch.unacked.end()) return;  // settled by this very copy
  schedule_retransmit(key, seq, reliable_backoff(pit->second.attempts + 1));
}

void Transport::schedule_ack_flush(ChannelKey key) {
  auto& ch = reliable_channels_[key];
  if (ch.ack_pending) return;
  ch.ack_pending = true;
  engine().schedule(engine().now() + cfg_->reliable.ack_flush_ticks,
                    [this, key] { flush_acks(key); });
}

void Transport::flush_acks(ChannelKey key) {
  auto& ch = reliable_channels_[key];
  ch.ack_pending = false;
  // One cumulative ack summarises every settled sequence, billed as an
  // 8-byte control word on the reverse path. Acks are fault-exempt (like
  // _CHILDTERM): losing one would only cause benign retransmissions, and
  // the exemption keeps the per-transfer fault-draw count a pure function
  // of application traffic.
  machine_->message_transfer(engine().now(), 8, key.second, key.first);
  ++stats_->acks_sent;
  trace(trace::EventKind::ack, {}, {}, key.second, ch.settled_to,
        "chan " + std::to_string(key.first) + "->" + std::to_string(key.second));
  std::erase_if(ch.unacked, [&ch](const auto& entry) { return ch.settled(entry.first); });
}

}  // namespace pisces::rt
