#include "core/recovery.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/runtime.hpp"

namespace pisces::rt {

void Recovery::arm_faults() {
  const config::Configuration& cfg = rt_->cfg_;
  if (!cfg.faults.any()) return;
  faults_ = std::make_unique<flex::FaultInjector>(cfg.faults);
  rt_->machine().set_fault_injector(faults_.get());
  // Under hier/numa, a partition between two *configured* clusters becomes a
  // window on the backbone link joining their hardware clusters (located by
  // each cluster's primary PE). A pair that shares a hardware cluster has no
  // backbone link to sever — its window is inert, matching the shared-bus
  // semantics where only cross-cluster traffic is droppable.
  auto& ic = rt_->machine().interconnect();
  if (ic.kind() != flex::Topology::shared && !cfg.faults.bus_partitions.empty()) {
    std::vector<flex::PartitionIndex::Window> links;
    for (const auto& p : cfg.faults.bus_partitions) {
      const auto* ca = cfg.find_cluster(p.cluster_a);
      const auto* cb = cfg.find_cluster(p.cluster_b);
      if (ca == nullptr || cb == nullptr) continue;  // rejected by validate()
      const int ha = ic.cluster_of(ca->primary_pe);
      const int hb = ic.cluster_of(cb->primary_pe);
      if (ha == hb) continue;
      links.push_back({ha, hb, p.from, p.until});
    }
    faults_->set_backbone_links(std::move(links));
  }
  auto& eng = rt_->engine();
  const sim::Tick now = eng.now();
  for (const auto& h : cfg.faults.pe_halts) {
    eng.schedule(std::max(h.at, now), [this, pe = h.pe] { on_pe_halt(pe); });
  }
  for (const auto& w : cfg.faults.heap_outages) {
    eng.schedule(std::max(w.from, now), [this] {
      rt_->transport_.heap().set_outage(true);
      fault_event(0, "heap-outage-begin");
    });
    eng.schedule(std::max(w.until, now), [this] {
      rt_->transport_.heap().set_outage(false);
      fault_event(0, "heap-outage-end");
      // Senders backing off against the outage re-check on their timeout;
      // nothing to wake explicitly.
    });
  }
  // The slowdown factor itself is sampled by Proc::compute straight from the
  // injector; these events only make the window visible in the trace.
  for (const auto& s : cfg.faults.pe_slowdowns) {
    eng.schedule(std::max(s.from, now), [this, s] {
      fault_event(s.pe, "pe-slow-begin x" + std::to_string(s.factor),
                  "PE " + std::to_string(s.pe) + " CLOCK DEGRADED");
    });
    eng.schedule(std::max(s.until, now), [this, pe = s.pe] {
      fault_event(pe, "pe-slow-end");
    });
  }
  // Likewise partitions: the transport consults the injector per transfer.
  for (const auto& p : cfg.faults.bus_partitions) {
    const std::string a = std::to_string(p.cluster_a);
    const std::string b = std::to_string(p.cluster_b);
    eng.schedule(std::max(p.from, now), [this, a, b] {
      fault_event(0, "bus-partition-begin " + a + "|" + b,
                  "CLUSTERS " + a + " AND " + b + " PARTITIONED");
    });
    eng.schedule(std::max(p.until, now), [this, a, b] {
      fault_event(0, "bus-partition-end " + a + "|" + b);
    });
  }
  for (const auto& r : cfg.faults.pe_recoveries) {
    eng.schedule(std::max(r.at, now), [this, pe = r.pe] { on_pe_recover(pe); });
  }
}

void Recovery::fault_event(int pe, const std::string& info,
                           const std::string& banner) {
  rt_->trace_event(trace::EventKind::fault, {}, {}, pe, 0, info);
  if (!banner.empty()) {
    rt_->console().write_line(rt_->engine().now(), "PISCES FAULT: " + banner);
  }
}

void Recovery::on_pe_halt(int pe) {
  if (faults_ == nullptr || faults_->pe_halted(pe)) return;
  faults_->mark_halted(pe);
  fault_event(pe, "pe-halt", "PE " + std::to_string(pe) + " HALTED");
  for (auto& cl : rt_->clusters_) {
    // A cluster whose primary PE died loses its controllers: mark it dead
    // so ANY/OTHER placement routes around it. Held initiates migrate to a
    // surviving cluster when the supervision layer asked for it; otherwise
    // (or when nobody survives) they dead-letter.
    if (cl->cfg.primary_pe == pe) {
      cl->dead = true;
      const TaskId dead_ctl = cl->controller_id();
      for (auto& req : cl->pending) {
        if (!migrate_initiate(dead_ctl, req.parent, pe, 0,
                              "migrate-initiate " + req.tasktype,
                              {Value(req.tasktype), Value::list(std::move(req.args)),
                               Value(static_cast<std::int64_t>(req.tag))},
                              rt_->stats_.initiates_migrated)) {
          rt_->dead_letter(dead_ctl, req.parent, pe, 0, "_INITIATE " + req.tasktype);
        }
      }
      cl->pending.clear();
      reclaim_controllers(*cl, pe);
    }
    // A task with a force member on the dead PE can never pass its next
    // barrier; abort the whole task so the surviving members unwind instead
    // of wedging. (The lost member's process dies with the kernel below.)
    for (auto& recp : cl->slots) {
      TaskRecord& rec = *recp;
      if (rec.state == TaskState::free_slot || rec.proc == nullptr) continue;
      if (rec.pe == pe) continue;  // dies with its kernel anyway
      for (auto* member : rec.force_members) {
        if (member->pe() == pe) {
          rec.proc->kill();
          break;
        }
      }
    }
  }
  // The watchdog sweep: the halted kernel kills every process it hosts;
  // each task's exit callback runs finish_task, which reclaims the slot,
  // releases queued-message heap storage, and notifies the parent.
  rt_->system().kernel(pe).halt();
  if (!rt_->system().kernel(pe).live_count_consistent()) {
    throw std::logic_error("PE " + std::to_string(pe) +
                           " live counter drifted after halt sweep");
  }
}

void Recovery::reclaim_controllers(Cluster& cl, int pe) {
  // Controllers have no exit callbacks (they never finish normally), so
  // without this sweep their records would stay `running` with dead
  // processes: posts to them would "deliver" into queues nobody drains and
  // the heap storage would leak. Free the slots (ids stay, so stale sends
  // dead-letter with the old id in the trace) and settle every queued
  // message exactly once — migrated or dead-lettered.
  for (int s = 0; s < kFirstUserSlot && s < static_cast<int>(cl.slots.size());
       ++s) {
    auto& rec = cl.slot(s);
    if (rec.state == TaskState::free_slot) continue;
    for (const Message& m : rec.in_queue) {
      if (m.type != "_INITIATE" ||
          !migrate_initiate(rec.id, m.sender, pe, m.seq,
                            "migrate-message _INITIATE", m.args,
                            rt_->stats_.messages_migrated)) {
        rt_->dead_letter(rec.id, m.sender, pe, m.seq, m.type);
      }
      rt_->transport_.heap_release(m.heap_offset);
    }
    rec.in_queue.clear();
    for (const Message& m : rec.replies) {
      rt_->dead_letter(rec.id, m.sender, pe, m.seq, m.type);
      rt_->transport_.heap_release(m.heap_offset);
    }
    rec.replies.clear();
    rec.proc = nullptr;  // the process dies with the kernel
    rec.state = TaskState::free_slot;
  }
}

void Recovery::on_pe_recover(int pe) {
  if (faults_ == nullptr || !faults_->pe_halted(pe)) return;
  faults_->mark_recovered(pe);
  fault_event(pe, "pe-recover", "PE " + std::to_string(pe) + " REJOINED");
  rt_->system().kernel(pe).restart();
  if (!rt_->system().kernel(pe).live_count_consistent()) {
    throw std::logic_error("PE " + std::to_string(pe) +
                           " live counter drifted across halt/recover");
  }
  // Clusters that lost their primary rejoin cold: fresh controllers with
  // new unique ids. Taskids minted before the halt keep dead-lettering —
  // the old incarnation's state is gone.
  for (auto& cl : rt_->clusters_) {
    if (cl->cfg.primary_pe == pe && cl->dead) {
      cl->dead = false;
      rt_->start_controllers(*cl);
      rt_->trace_event(trace::EventKind::supervision, cl->controller_id(), {}, pe,
                       0, "cluster-rejoin " + std::to_string(cl->cfg.number));
      // Kick the fresh task controller: slots freed while the cluster was
      // dead may already be waiting for work.
      if (auto* ctl = cl->slot(kTaskControllerSlot).proc) ctl->wake();
    }
  }
}

int Recovery::pick_survivor(int dead_cluster) const {
  const int c = rt_->resolve_where(Where::Any(), dead_cluster);
  auto it = rt_->by_number_.find(c);
  return (it != rt_->by_number_.end() && !it->second->dead) ? c : -1;
}

bool Recovery::migrate_initiate(TaskId dead_ctl, TaskId parent, int pe,
                                std::uint64_t seq, const std::string& label,
                                std::vector<Value> args, std::uint64_t& migrated) {
  const bool migrate = rt_->observer_ != nullptr && rt_->observer_->migrate_work();
  const int target = migrate ? pick_survivor(dead_ctl.cluster) : -1;
  if (target < 0) return false;
  rt_->trace_event(trace::EventKind::supervision, dead_ctl, parent, pe, seq,
                   label + " cluster=" + std::to_string(target));
  // A false post already dead-lettered itself (heap denial).
  if (rt_->post(parent, nullptr, rt_->by_number_[target]->controller_id(),
                "_INITIATE", std::move(args))) {
    ++migrated;
  }
  return true;
}

int Recovery::halted_pe_count(const Cluster& cl) const {
  int n = pe_usable(cl.cfg.primary_pe) ? 0 : 1;
  for (int pe : cl.cfg.secondary_pes) {
    if (!pe_usable(pe)) ++n;
  }
  return n;
}

}  // namespace pisces::rt
