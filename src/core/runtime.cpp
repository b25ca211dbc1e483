#include "core/runtime.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace pisces::rt {

namespace {
/// Modelled sizes of the shared-memory system tables (Section 11, use 1).
constexpr std::size_t kGlobalTableBytes = 256;
constexpr std::size_t kClusterTableBytes = 32;
/// Per-PE run-time bookkeeping in local memory (free lists, trace flags...).
constexpr std::size_t kPerPeDataBytes = 2048;
/// Default SHARED COMMON area size.
constexpr std::size_t kCommonAreaBytes = 256 * 1024;
}  // namespace

const char* kill_result_name(KillResult r) {
  switch (r) {
    case KillResult::killed: return "killed";
    case KillResult::not_found: return "not-found";
    case KillResult::protected_controller: return "protected-controller";
  }
  return "?";
}

Runtime::Runtime(mmos::System& sys, config::Configuration cfg)
    : sys_(&sys),
      cfg_(std::move(cfg)),
      transport_(sys.machine(), cfg_, tracer_, stats_,
                 {this,
                  [](void* rt, Message&& msg, TaskId to, bool reply) {
                    return static_cast<Runtime*>(rt)->deliver(std::move(msg), to, reply);
                  },
                  [](void* rt, TaskId from, TaskId to, const std::string& type, int n,
                     const char* why) {
                    static_cast<Runtime*>(rt)->surface_send_fail(from, to, type, n, why);
                  }}),
      recovery_(*this) {}

Runtime::~Runtime() {
  // Task bodies capture `this`; unwind them before members are destroyed.
  sys_->engine().shutdown_processes();
}

void Runtime::register_tasktype(std::string name, TaskBody body) {
  if (!tasktypes_.emplace(std::move(name), std::move(body)).second) {
    throw std::logic_error("tasktype registered twice");
  }
}

void Runtime::declare_message(std::string type, int arity) {
  if (arity < 0) throw std::invalid_argument("negative message arity");
  message_arity_[std::move(type)] = arity;
}

void Runtime::attach_file_store(int cluster, fsim::FileStore store, int disk_pe) {
  if (booted_) throw std::logic_error("attach_file_store must precede boot()");
  if (!sys_->machine().has_disk(disk_pe)) {
    throw std::invalid_argument("PE " + std::to_string(disk_pe) + " has no disk");
  }
  pending_file_stores_.emplace_back(cluster, std::move(store), disk_pe);
}

void Runtime::boot() {
  if (booted_) throw std::logic_error("Runtime::boot called twice");
  auto errors = cfg_.validate(sys_->machine().spec());
  if (!errors.empty()) {
    std::ostringstream os;
    os << "bad configuration '" << cfg_.name << "':";
    for (const auto& e : errors) os << "\n  - " << e;
    throw std::invalid_argument(os.str());
  }

  // Boot the machine with the configured interconnect. A default (shared)
  // configuration leaves whatever the machine was constructed with intact,
  // so directly-built hier/numa machines (benches, tests) keep their
  // topology under a plain config.
  if (cfg_.topology != flex::TopologySpec{} &&
      cfg_.topology != sys_->machine().spec().topology) {
    sys_->machine().configure_topology(cfg_.topology);
  }

  if (!sys_->loaded()) sys_->load(cfg_.loadfile);

  // Shared-memory layout: system tables, the message heap, the SHARED
  // COMMON area (Section 11's three uses of shared memory).
  auto& shared = sys_->machine().shared_memory();
  shared.allocate_static(kGlobalTableBytes, "system-tables");
  shared.allocate_static(cfg_.message_heap_bytes, "message-heap");
  shared.allocate_static(kCommonAreaBytes, "shared-common");
  common_heap_ = std::make_unique<flex::SharedHeap>(kCommonAreaBytes);

  // Per-PE run-time data for every PE the configuration touches.
  std::vector<int> used_pes;
  for (const auto& c : cfg_.clusters) {
    used_pes.push_back(c.primary_pe);
    used_pes.insert(used_pes.end(), c.secondary_pes.begin(), c.secondary_pes.end());
  }
  std::sort(used_pes.begin(), used_pes.end());
  used_pes.erase(std::unique(used_pes.begin(), used_pes.end()), used_pes.end());
  for (int pe : used_pes) {
    sys_->machine().local_memory(pe).allocate_static(kPerPeDataBytes, "pisces-data");
  }

  for (int k = 0; k < trace::kEventKindCount; ++k) {
    tracer_.set_kind(static_cast<trace::EventKind>(k),
                     cfg_.trace.kind_on[static_cast<std::size_t>(k)]);
  }

  for (const auto& ccfg : cfg_.clusters) {
    auto cl = std::make_unique<Cluster>();
    cl->cfg = ccfg;
    const int total_slots = kFirstUserSlot + ccfg.slots;
    shared.allocate_static(
        kClusterTableBytes + static_cast<std::size_t>(total_slots) * TaskRecord::kTableBytes,
        "system-tables");
    for (int s = 0; s < total_slots; ++s) {
      cl->slots.push_back(std::make_unique<TaskRecord>());
      if (s >= kFirstUserSlot) cl->free_slots.insert(s);
    }
    if (!terminal_cluster_.has_value() && ccfg.has_terminal) {
      terminal_cluster_ = ccfg.number;
    }
    by_number_[ccfg.number] = cl.get();
    clusters_.push_back(std::move(cl));
  }

  for (auto& [number, store, disk_pe] : pending_file_stores_) {
    auto it = by_number_.find(number);
    if (it == by_number_.end()) {
      throw std::invalid_argument("file store attached to unknown cluster " +
                                  std::to_string(number));
    }
    it->second->files = std::move(store);
    it->second->disk_pe = disk_pe;
  }
  pending_file_stores_.clear();

  for (auto& cl : clusters_) start_controllers(*cl);

  recovery_.arm_faults();
  deadline_ = sys_->engine().now() + cfg_.time_limit;
  booted_ = true;
}

// ---- controllers ----

void Runtime::start_controllers(Cluster& cl) {
  auto make_controller = [this, &cl](int slot, const std::string& tasktype,
                                     void (Runtime::*body)(Cluster&, TaskContext&)) {
    auto& rec = cl.slot(slot);
    rec.id = TaskId{cl.cfg.number, slot, ++next_unique_};
    rec.tasktype = tasktype;
    rec.state = TaskState::running;
    rec.pe = cl.cfg.primary_pe;  // controllers always run on the primary
    rec.initiated_at = sys_->engine().now();
    auto& proc = sys_->kernel(cl.cfg.primary_pe)
                     .create_process(tasktype + "@" + std::to_string(cl.cfg.number),
                                     [this, &cl, slot, body](mmos::Proc& p) {
                                       TaskContext ctx(*this, cl.slot(slot), p);
                                       (this->*body)(cl, ctx);
                                     });
    rec.proc = &proc;
  };
  make_controller(kTaskControllerSlot, "_TCONTR", &Runtime::task_controller_body);
  if (cl.cfg.has_terminal) {
    make_controller(kUserControllerSlot, "_UCONTR", &Runtime::user_controller_body);
  }
  if (cl.files.has_value()) {
    make_controller(kFileControllerSlot, "_FCONTR", &Runtime::file_controller_body);
  }
}

int Runtime::place_task_pe(Cluster& cl) {
  switch (cl.cfg.place) {
    case config::PlacePolicy::primary:
      return cl.cfg.primary_pe;
    case config::PlacePolicy::least_loaded: {
      // Strict < over the primary-first order: ties go to the earlier PE, so
      // an idle configuration places exactly like `primary` would. Halted
      // PEs are skipped so new initiates degrade onto the survivors, and a
      // PE inside a slowdown window carries its load scaled by the clock
      // stretch (an idle half-speed PE loses to an idle healthy one).
      const sim::Tick now = sys_->engine().now();
      int best = -1;
      double best_load = 0.0;
      auto consider = [&](int pe) {
        if (!recovery_.pe_usable(pe)) return;
        const auto* faults = recovery_.faults();
        const double factor = faults != nullptr ? faults->slowdown_factor(pe, now) : 1.0;
        const double load =
            static_cast<double>(sys_->kernel(pe).live_count() + 1) * factor;
        if (best < 0 || load < best_load) {
          best = pe;
          best_load = load;
        }
      };
      consider(cl.cfg.primary_pe);
      for (int pe : cl.cfg.secondary_pes) consider(pe);
      return best < 0 ? cl.cfg.primary_pe : best;
    }
    case config::PlacePolicy::round_robin: {
      const std::size_t n = 1 + cl.cfg.secondary_pes.size();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t k = cl.rr_next++ % n;
        const int pe = k == 0 ? cl.cfg.primary_pe
                              : cl.cfg.secondary_pes[k - 1];
        if (recovery_.pe_usable(pe)) return pe;
      }
      return cl.cfg.primary_pe;
    }
  }
  return cl.cfg.primary_pe;
}

Matrix* Runtime::live_window_array(const Window& w) {
  TaskRecord* owner = live_record(w.owner);
  if (owner == nullptr) return nullptr;
  auto it = owner->arrays.find(w.array);
  if (it == owner->arrays.end()) return nullptr;
  return &it->second.data;
}

void Runtime::task_controller_body(Cluster& cl, TaskContext& ctx) {
  while (true) {
    // Drain held initiate requests into freed slots first.
    while (!cl.pending.empty() && !cl.free_slots.empty()) {
      PendingInitiate req = std::move(cl.pending.front());
      cl.pending.pop_front();
      start_task(cl, ctx, std::move(req));
    }
    if (ctx.record().in_queue.empty()) {
      ctx.proc().block();
      continue;
    }
    Message m = ctx.wait_any_message();
    if (m.type == "_INITIATE") {
      const std::uint64_t tag =
          m.args.size() > 2 ? static_cast<std::uint64_t>(m.args[2].as_int()) : 0;
      PendingInitiate req{m.args.at(0).as_str(), m.sender, m.args.at(1).as_list(), tag};
      if (cl.free_slots.empty()) {
        cl.pending.push_back(std::move(req));
        ++stats_.initiates_held;
      } else {
        start_task(cl, ctx, std::move(req));
      }
    } else if (m.type == "_WINREAD" || m.type == "_WINWRITE") {
      serve_window(ctx, m);
    } else {
      ++stats_.controller_unknown_messages;
    }
  }
}

void Runtime::start_task(Cluster& cl, TaskContext& ctl, PendingInitiate req) {
  auto it = tasktypes_.find(req.tasktype);
  if (it == tasktypes_.end()) {
    console().write_line(sys_->engine().now(),
                         "PISCES ERROR: unknown tasktype '" + req.tasktype + "'");
    return;
  }
  ctl.proc().compute(costs().task_setup);
  const int slot = *cl.free_slots.begin();
  cl.free_slots.erase(slot);
  auto& rec = cl.slot(slot);
  rec.id = TaskId{cl.cfg.number, slot, ++next_unique_};
  rec.tasktype = req.tasktype;
  rec.parent = req.parent;
  rec.state = TaskState::starting;
  rec.initiated_at = sys_->engine().now();
  rec.init_args = std::move(req.args);
  ++stats_.tasks_started;
  const TaskId id = rec.id;
  const int pe = place_task_pe(cl);
  rec.pe = pe;
  TaskBody body = it->second;
  auto& proc = sys_->kernel(pe)
                   .create_process(req.tasktype + id.str(),
                                   [this, &cl, slot, body](mmos::Proc& p) {
                                     auto& r = cl.slot(slot);
                                     TaskContext task_ctx(*this, r, p);
                                     r.state = TaskState::running;
                                     body(task_ctx);
                                   });
  rec.proc = &proc;
  proc.on_exit([this, &cl, slot, id] { finish_task(cl, slot, id); });
  trace_event(trace::EventKind::task_init, id, req.parent, pe, 0, req.tasktype);
  if (observer_ != nullptr) {
    observer_->on_task_start(id, req.parent, req.tasktype, req.tag);
  }
}

void Runtime::finish_task(Cluster& cl, int slot, TaskId id) {
  auto& rec = cl.slot(slot);
  if (rec.id != id || rec.state == TaskState::free_slot) return;
  trace_event(trace::EventKind::task_term, id, {}, rec.pe, 0, rec.tasktype);
  const bool abnormal = rec.proc != nullptr && rec.proc->was_killed();
  const TaskId parent = rec.parent;
  const int pe = rec.pe;
  const std::string tasktype = rec.tasktype;
  // The supervision layer restarts from the original initiate arguments;
  // take them out (leaving the record's list empty) before the scrub below.
  std::vector<Value> saved_args = std::move(rec.init_args);
  // Reap force members left behind by a kill mid-force.
  for (auto* member : rec.force_members) member->kill();
  rec.force_members.clear();
  for (const Message& m : rec.in_queue) transport_.heap_release(m.heap_offset);
  for (const Message& m : rec.replies) transport_.heap_release(m.heap_offset);
  rec.in_queue.clear();
  rec.replies.clear();
  rec.arrays.clear();
  rec.array_names.clear();
  rec.shared_blocks.clear();  // frees the SHARED COMMON area
  rec.locks.clear();
  if (abnormal) ++stats_.tasks_killed;
  rec.proc = nullptr;
  rec.state = TaskState::free_slot;
  if (slot >= kFirstUserSlot) cl.free_slots.insert(slot);
  ++stats_.tasks_finished;
  if (abnormal) {
    // Abnormal termination is reported to the parent (_CHILDTERM carries the
    // child's taskid — first-class data — so parents can react in ACCEPT
    // handlers). Posted after the slot is reclaimed so a parent reacting
    // immediately sees the freed slot.
    const std::string reason = recovery_.pe_usable(pe) ? "killed" : "pe-halt";
    trace_event(trace::EventKind::child_term, id, parent, pe, 0, reason);
    // Only a parent that can still consume its in-queue gets the
    // notification. A parent whose record survives but whose process was
    // killed with its PE (its own finish_task just hasn't run yet — halt
    // sweeps are same-tick) would queue the message into a record about to
    // be scrubbed; that must be a dead letter, exactly once, not a
    // phantom delivery.
    TaskRecord* prec = live_record(parent);
    const bool parent_viable = prec != nullptr && prec->proc != nullptr &&
                               !prec->proc->finished() &&
                               !prec->proc->was_killed() &&
                               recovery_.pe_usable(prec->pe);
    if (parent_viable) {
      ++stats_.childterms_posted;
      post(id, nullptr, parent, "_CHILDTERM", {Value(id), Value(reason)});
    } else if (parent.valid()) {
      dead_letter(parent, id, pe, 0, "_CHILDTERM");
    }
    if (observer_ != nullptr) {
      observer_->on_termination(id, parent, tasktype, saved_args);
    }
  }
  // Wake the cluster's task controller so held initiates can proceed.
  if (auto* ctl = cl.slot(kTaskControllerSlot).proc) ctl->wake();
}

void Runtime::user_controller_body(Cluster& /*cl*/, TaskContext& ctx) {
  while (true) {
    Message m = ctx.wait_any_message();
    std::string text;
    if (m.type == "_PRINT" && m.args.size() == 1) {
      text = m.args[0].as_str();
    } else {
      std::ostringstream os;
      os << "FROM " << m.sender.str() << ": " << m.type << "(";
      for (std::size_t i = 0; i < m.args.size(); ++i) {
        if (i > 0) os << ", ";
        os << m.args[i].str();
      }
      os << ")";
      text = os.str();
    }
    ctx.proc().compute(static_cast<sim::Tick>(text.size()) *
                       costs().console_per_char);
    console().write_line(sys_->engine().now(), text);
  }
}

void Runtime::file_controller_body(Cluster& cl, TaskContext& ctx) {
  while (true) {
    Message m = ctx.wait_any_message();
    if (m.type == "_FWIN" || m.type == "_WINREAD" || m.type == "_WINWRITE") {
      serve_file_window(cl, ctx, m);
    } else {
      ++stats_.controller_unknown_messages;
    }
  }
}

// ---- window service ----

void Runtime::refuse_window(TaskContext& ctl, const Message& m,
                            const std::string& reason) {
  post(ctl.self(), &ctl.proc(), m.sender, "_WINERR", {m.args.at(0), Value(reason)},
       /*to_reply_queue=*/true);
}

bool Runtime::refuse_misfit(TaskContext& ctl, const Message& m, const Window& w,
                            const Matrix& arr, const char* kind) {
  if (!fsim::rect_inside(arr, w.rect)) {
    refuse_window(ctl, m, "window " + w.rect.str() + " outside " + kind);
  } else if (m.type == "_WINWRITE" &&
             m.args.at(2).as_real_array().size() != w.elements()) {
    refuse_window(ctl, m, "write data size mismatch");
  } else {
    return false;
  }
  return true;
}

void Runtime::serve_window(TaskContext& ctl, const Message& m) {
  const TaskId requester = m.sender;
  const auto rid = m.args.at(0).as_int();
  const Window w = m.args.at(1).as_window();
  TaskRecord* owner = live_record(w.owner);
  if (owner == nullptr) {
    refuse_window(ctl, m, "window owner " + w.owner.str() + " is not running");
    return;
  }
  auto it = owner->arrays.find(w.array);
  if (it == owner->arrays.end()) {
    refuse_window(ctl, m, "owner has no array id " + std::to_string(w.array));
    return;
  }
  if (refuse_misfit(ctl, m, w, it->second.data, "array")) return;
  // Validate everything before charging: a rejected request must not be
  // billed for a copy that never happens. The charge blocks the controller,
  // so the array must be re-resolved afterwards — the owner may be killed
  // while the copy is in flight, destroying the storage the window names.
  // When the owner's task was placed on another PE, the controller pulls
  // the window across the bus instead of out of its own local memory.
  if (owner->pe != ctl.proc().pe()) {
    transport_.charge_transfer(ctl.proc(), w.bytes(), owner->pe, ctl.proc().pe());
  } else {
    ctl.proc().compute(static_cast<sim::Tick>(w.elements()) * costs().local_access);
  }
  Matrix* arr = live_window_array(w);
  if (arr == nullptr) {
    refuse_window(ctl, m, "window owner " + w.owner.str() + " died during the transfer");
    return;
  }
  if (m.type == "_WINREAD") {
    Matrix part = fsim::copy_rect(*arr, w.rect);
    ++stats_.window_reads;
    post(ctl.self(), &ctl.proc(), requester, "_WINDATA",
         {Value(rid), Value(std::move(part.data()))}, /*to_reply_queue=*/true);
  } else {
    Matrix part(w.rect.rows, w.rect.cols);
    part.data() = m.args.at(2).as_real_array();
    fsim::paste_rect(*arr, w.rect, part);
    ++stats_.window_writes;
    post(ctl.self(), &ctl.proc(), requester, "_WINACK", {Value(rid)},
         /*to_reply_queue=*/true);
  }
}

void Runtime::serve_file_window(Cluster& cl, TaskContext& ctl, const Message& m) {
  const TaskId requester = m.sender;
  const auto rid = m.args.at(0).as_int();
  const TaskId fc_id = cl.slot(kFileControllerSlot).id;
  if (!cl.files.has_value()) {
    refuse_window(ctl, m, "cluster has no file system");
    return;
  }

  if (m.type == "_FWIN") {
    const std::string& name = m.args.at(1).as_str();
    if (!cl.files->exists(name)) {
      refuse_window(ctl, m, "no file array '" + name + "'");
      return;
    }
    // File array ids count from 1 in the order the arrays were first named.
    const auto next_id = static_cast<std::uint32_t>(cl.file_array_names.size() + 1);
    auto [it, inserted] = cl.file_array_ids.try_emplace(name, next_id);
    if (inserted) cl.file_array_names.push_back(name);
    const Matrix& arr = cl.files->get(name);
    const Window w{fc_id, it->second, Rect{0, 0, arr.rows(), arr.cols()}, arr.rows(),
                   arr.cols()};
    post(fc_id, &ctl.proc(), requester, "_FWINDATA", {Value(rid), Value(w)},
         /*to_reply_queue=*/true);
    return;
  }

  const Window w = m.args.at(1).as_window();
  if (w.array < 1 || w.array > cl.file_array_names.size()) {
    refuse_window(ctl, m, "unknown file array id " + std::to_string(w.array));
    return;
  }
  const std::string name = cl.file_array_names[w.array - 1];
  if (refuse_misfit(ctl, m, w, cl.files->get(name), "file array")) return;
  const bool is_write = m.type == "_WINWRITE";
  std::vector<double> write_data;
  if (is_write) write_data = m.args.at(2).as_real_array();

  // Overlap-aware scheduling: conflicting operations wait; disjoint ones
  // pipeline through the disk. The controller does not block — the data
  // movement and the reply happen at the operation's completion tick.
  auto& sched = cl.file_schedulers[w.array];
  auto& disk = sys_->machine().disk(cl.disk_pe);
  const sim::Tick now = sys_->engine().now();
  const sim::Tick start = sched.earliest_start(w.rect, is_write, now);
  sim::Tick done = disk.transfer(start, w.bytes());
  // Fault injection: each pass over the platter may fail; a failed pass
  // still occupied the disk, and the bounded retry re-runs the transfer.
  bool io_failed = false;
  if (auto* faults = recovery_.faults();
      faults != nullptr && faults->plan().disk_error > 0.0) {
    int attempts = 1;
    while (faults->next_disk_error()) {
      disk.note_io_error();
      trace_event(trace::EventKind::fault, requester, fc_id, cl.disk_pe, 0,
                  "disk-error " + name);
      if (attempts >= Recovery::kDiskIoAttempts) {
        io_failed = true;
        break;
      }
      ++attempts;
      done = disk.transfer(done, w.bytes());
    }
  }
  sched.record(w.rect, is_write, now, done);
  ctl.proc().compute(costs().msg_accept_overhead);  // request bookkeeping
  // The data, the ack or the typed I/O error arrives when the operation's
  // last pass completes.
  Cluster* clp = &cl;
  sys_->engine().schedule(done, [this, clp, name, rect = w.rect, rid, requester,
                                 fc_id, io_failed, is_write,
                                 data = std::move(write_data)] {
    std::vector<Value> reply{Value(rid)};
    const char* type = "_WINACK";
    if (io_failed) {
      type = "_WINERR";
      reply.emplace_back("disk I/O error on '" + name + "'");
    } else if (is_write) {
      Matrix part(rect.rows, rect.cols);
      part.data() = data;
      clp->files->write_rect(name, rect, part);
      ++stats_.window_writes;
    } else {
      type = "_WINDATA";
      Matrix part = clp->files->read_rect(name, rect);
      ++stats_.window_reads;
      reply.emplace_back(std::move(part.data()));
    }
    post(fc_id, nullptr, requester, type, std::move(reply), /*to_reply_queue=*/true);
  });
}

// ---- the message path: post -> transport -> deliver ----

bool Runtime::post(TaskId from, mmos::Proc* sender_proc, TaskId to,
                   std::string type, std::vector<Value> args,
                   bool to_reply_queue, int via_pe) {
  if (auto it = message_arity_.find(type); it != message_arity_.end() &&
                                           static_cast<int>(args.size()) != it->second) {
    throw std::logic_error("message '" + type + "' declared with " +
                           std::to_string(it->second) + " argument(s), sent with " +
                           std::to_string(args.size()));
  }
  if (live_record(to) == nullptr) {
    dead_letter(to, from, 0, 0, type);
    return false;
  }
  Message msg{std::move(type), from, std::move(args)};
  const std::size_t off = transport_.heap_allocate_blocking(msg, sender_proc);
  if (off == Transport::kDeadline) {
    surface_send_fail(from, to, msg.type, 0, "deadline");
    return false;
  }
  if (off == Transport::kNoSpace) {
    dead_letter(to, from, 0, 0, msg.type + " (no message storage)");
    return false;
  }
  Route route;
  if (sender_proc != nullptr) {
    route.sender_pe = sender_proc->pe();
  } else if (TaskRecord* sender = live_record(from)) {
    route.sender_pe = sender->pe;  // proc-less sends (environment) still have a home PE
  }
  // The transfer is billed from the PE that physically re-issues it — the
  // relay's PE for broadcast tree hops — while the trace keeps the logical
  // sender. The receiver may have died while the sender blocked on the
  // heap, so re-resolve; the copy still travels to where the task lived.
  route.from = via_pe >= 0 ? via_pe : route.sender_pe;
  route.to = route.from;
  if (TaskRecord* dest = live_record(to)) route.to = dest->pe;
  return transport_.send(std::move(msg), off, sender_proc, to, to_reply_queue, route);
}

bool Runtime::deliver(Message&& msg, TaskId to, bool to_reply_queue) {
  // Re-check liveness at delivery time: the receiver may have terminated
  // while the sender waited for heap space or the bus, or while an injected
  // delay held the message in flight.
  TaskRecord* rec = live_record(to);
  if (rec == nullptr) {
    if (msg.chan_seq != 0) ++stats_.reliable_dead_letters;
    dead_letter(to, msg.sender, 0, msg.seq, msg.type);
    transport_.heap_release(msg.heap_offset);
    return false;
  }
  if (msg.chan_seq != 0) ++stats_.reliable_delivered;
  msg.arrived_at = sys_->engine().now();
  if (to_reply_queue) {
    rec->replies.push_back(std::move(msg));
  } else {
    rec->in_queue.push_back(std::move(msg));
  }
  if (rec->proc != nullptr) rec->proc->wake();
  return true;
}

void Runtime::surface_send_fail(TaskId from, TaskId to, const std::string& type,
                                int attempts, const char* reason) {
  ++stats_.send_failures;
  // The typed failure rides the same out-of-band path as _CHILDTERM: the
  // sender must learn the transport gave up even under the faults that
  // caused the give-up.
  (void)post(to, nullptr, from, "_SENDFAIL",
             {Value(type), Value(to), Value(static_cast<std::int64_t>(attempts)),
              Value(std::string(reason))});
  if (observer_ != nullptr) observer_->on_send_fail(from, to, type, attempts, reason);
}

int Runtime::resolve_where(const Where& where, int my_cluster) const {
  switch (where.kind) {
    case Where::Kind::cluster:
      if (by_number_.find(where.cluster) == by_number_.end()) {
        throw std::out_of_range("INITIATE names unconfigured cluster " +
                                std::to_string(where.cluster));
      }
      return where.cluster;
    case Where::Kind::same:
      return my_cluster;
    case Where::Kind::any:
    case Where::Kind::other: {
      // "ANY -- run in a system-chosen cluster": pick the most free slots;
      // equal free-slot counts tie-break on the shorter held-initiate
      // backlog (a congested cluster's free count says nothing about the
      // requests already queued for its slots), then on fewer halted PEs
      // (survivor rebalancing: a cluster that lost secondaries serves what
      // it accepts more slowly), then lowest number (deterministic).
      // free_user_slots()/pending are O(1) and the halted count only scans
      // the configured PE list, so the whole choice stays O(clusters · PEs).
      int best = -1;
      int best_free = -1;
      std::size_t best_backlog = 0;
      int best_halted = 0;
      for (const auto& cl : clusters_) {
        if (where.kind == Where::Kind::other && cl->cfg.number == my_cluster) {
          continue;
        }
        if (cl->dead) continue;  // primary PE halted: nobody to serve it
        const int f = cl->free_user_slots();
        const std::size_t backlog = cl->pending.size();
        const int halted =
            recovery_.faults() != nullptr ? recovery_.halted_pe_count(*cl) : 0;
        if (f > best_free ||
            (f == best_free &&
             (backlog < best_backlog ||
              (backlog == best_backlog && halted < best_halted)))) {
          best_free = f;
          best_backlog = backlog;
          best_halted = halted;
          best = cl->cfg.number;
        }
      }
      if (best < 0) return my_cluster;  // single-cluster OTHER degenerates
      return best;
    }
  }
  return my_cluster;
}

TaskRecord* Runtime::live_record(TaskId id) {
  auto it = by_number_.find(id.cluster);
  if (it == by_number_.end()) return nullptr;
  Cluster& cl = *it->second;
  if (id.slot < 0 || id.slot >= static_cast<int>(cl.slots.size())) return nullptr;
  TaskRecord& rec = cl.slot(id.slot);
  if (rec.state == TaskState::free_slot || rec.id != id) return nullptr;
  return &rec;
}

// ---- execution-environment operations ----

void Runtime::user_initiate(int cluster, std::string tasktype,
                            std::vector<Value> args) {
  if (!booted_) throw std::logic_error("user_initiate before boot");
  const TaskId controller = Runtime::cluster(cluster).controller_id();
  post(user_controller_id(), nullptr, controller, "_INITIATE",
       {Value(std::move(tasktype)), Value::list(std::move(args))});
}

bool Runtime::supervised_initiate(std::string tasktype, TaskId parent,
                                  std::vector<Value> args, std::uint64_t tag) {
  if (!booted_) throw std::logic_error("supervised_initiate before boot");
  const int target = recovery_.pick_survivor(clusters_.front()->cfg.number);
  if (target < 0) {
    dead_letter({}, parent, 0, 0, "_INITIATE " + tasktype + " (no live cluster)");
    return false;
  }
  return post(parent, nullptr, by_number_[target]->controller_id(),
              "_INITIATE",
              {Value(std::move(tasktype)), Value::list(std::move(args)),
               Value(static_cast<std::int64_t>(tag))});
}

bool Runtime::post_system(TaskId from, TaskId to, std::string type,
                          std::vector<Value> args) {
  return post(from, nullptr, to, std::move(type), std::move(args));
}

bool Runtime::user_send(TaskId to, std::string type, std::vector<Value> args) {
  return post(user_controller_id(), nullptr, to, std::move(type), std::move(args));
}

KillResult Runtime::try_kill_task(TaskId id) {
  TaskRecord* rec = live_record(id);
  if (rec == nullptr || rec->proc == nullptr) return KillResult::not_found;
  if (id.slot < kFirstUserSlot) return KillResult::protected_controller;
  rec->proc->kill();
  return KillResult::killed;
}

int Runtime::delete_messages(TaskId id, const std::string& type) {
  TaskRecord* rec = live_record(id);
  if (rec == nullptr) return 0;
  int deleted = 0;
  for (auto it = rec->in_queue.begin(); it != rec->in_queue.end();) {
    if (type.empty() || it->type == type) {
      transport_.heap_release(it->heap_offset);
      it = rec->in_queue.erase(it);
      ++deleted;
    } else {
      ++it;
    }
  }
  stats_.messages_deleted += static_cast<std::uint64_t>(deleted);
  return deleted;
}

TaskId Runtime::user_controller_id() const {
  if (!terminal_cluster_.has_value()) return {};
  auto it = by_number_.find(*terminal_cluster_);
  if (it == by_number_.end()) return {};
  return it->second->slot(kUserControllerSlot).id;
}

sim::Tick Runtime::run() {
  if (!booted_) boot();
  sys_->engine().run_until(deadline_);
  if (sys_->engine().pending_events() > 0) {
    timed_out_ = true;
    console().write_line(sys_->engine().now(), "PISCES: EXECUTION TIME LIMIT REACHED");
  }
  return sys_->engine().now();
}

sim::Tick Runtime::run_for(sim::Tick dt) {
  if (!booted_) boot();
  return sys_->engine().run_until(std::min(deadline_, sys_->engine().now() + dt));
}

// ---- introspection ----

std::vector<Runtime::TaskInfo> Runtime::running_tasks() const {
  std::vector<TaskInfo> out;
  for (const auto& cl : clusters_) {
    for (const auto& rec : cl->slots) {
      if (rec->state == TaskState::free_slot) continue;
      out.push_back({rec->id, rec->tasktype, rec->state, rec->pe,
                     rec->in_queue.size(), rec->initiated_at});
    }
  }
  return out;
}

Cluster& Runtime::cluster(int number) {
  auto it = by_number_.find(number);
  if (it == by_number_.end()) {
    throw std::out_of_range("no cluster " + std::to_string(number));
  }
  return *it->second;
}

const TaskRecord* Runtime::find_record(TaskId id) const {
  return const_cast<Runtime*>(this)->live_record(id);
}

}  // namespace pisces::rt
