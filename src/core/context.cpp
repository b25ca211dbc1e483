#include "core/context.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/runtime.hpp"
#include "fsim/file_store.hpp"

namespace pisces::rt {

namespace {
/// RAII reset for the in-ACCEPT flag (handlers must not nest ACCEPTs).
struct AcceptGuard {
  bool* flag;
  explicit AcceptGuard(bool* f) : flag(f) { *flag = true; }
  ~AcceptGuard() { *flag = false; }
};
}  // namespace

// ---- INITIATE ----

void TaskContext::initiate(Where where, std::string tasktype,
                           std::vector<Value> args) {
  const int target = rt_->resolve_where(where, cluster());
  proc_->compute(rt_->costs().initiate_overhead);
  rt_->post(self(), proc_, rt_->cluster(target).controller_id(), "_INITIATE",
            {Value(std::move(tasktype)), Value::list(std::move(args))});
}

// ---- SEND ----

TaskId TaskContext::resolve(const Dest& dest) const {
  switch (dest.kind) {
    case Dest::Kind::parent: return rec_->parent;
    case Dest::Kind::self: return rec_->id;
    case Dest::Kind::sender: return sender_;
    case Dest::Kind::user: return rt_->user_controller_id();
    case Dest::Kind::task: return dest.id;
    case Dest::Kind::tcontr: return rt_->cluster(dest.cluster).controller_id();
  }
  return {};
}

bool TaskContext::send(Dest dest, std::string type, std::vector<Value> args) {
  proc_->compute(rt_->costs().msg_send_overhead);
  const TaskId to = resolve(dest);
  if (!to.valid()) {
    rt_->dead_letter(to, self(), proc_->pe(), 0, type);
    return false;
  }
  return rt_->post(self(), proc_, to, std::move(type), std::move(args));
}

/// An in-flight TO ALL distribution tree. The target snapshot is fixed
/// when the broadcast is issued; positions 1..targets.size() form a k-ary
/// tree rooted at the sender (position 0), and each interior position
/// re-forwards to its children from the PE its own copy just reached, so
/// bus occupancy of sibling subtrees overlaps instead of serializing at
/// the root.
struct TaskContext::BroadcastPlan {
  TaskId origin{};
  std::string type;
  std::vector<Value> args;
  std::vector<TaskId> targets;  ///< position p >= 1 delivers to targets[p-1]
  int fanout = 4;
};

int TaskContext::broadcast(std::string type, std::vector<Value> args,
                           std::optional<int> cluster_number) {
  // Snapshot the target taskids before the first send: the root's own posts
  // can block on a full message heap, during which slots may empty and be
  // reused by new tasks. Iterating the live slot table across those blocks
  // would skip some tasks and deliver to ones initiated *after* the
  // broadcast began. Targets that die before their copy is dispatched (or
  // while it is in flight) become dead letters in post()/deliver().
  std::vector<TaskId> targets;
  for (const auto& cl : rt_->clusters_) {
    if (cluster_number.has_value() && cl->cfg.number != *cluster_number) continue;
    for (std::size_t s = kFirstUserSlot; s < cl->slots.size(); ++s) {
      const TaskRecord& r = *cl->slots[s];
      if (r.state == TaskState::free_slot || r.id == self()) continue;
      targets.push_back(r.id);
    }
  }
  const auto n = static_cast<int>(targets.size());
  if (n == 0) return 0;

  // Distribute over a k-ary tree: the sender posts only to positions
  // 1..min(k, n); each of those re-forwards to its own children as engine
  // events from the PE the copy reached, so the root pays O(k) sends and
  // completion takes O(log_k n) relay hops instead of n serialized sends.
  const int k = rt_->cfg_.collective_fanout < 2 ? 2 : rt_->cfg_.collective_fanout;
  const int depth = ForceContext::tree_depth(static_cast<std::size_t>(n) + 1,
                                             static_cast<std::size_t>(k));
  proc_->compute(rt_->costs().msg_send_overhead);
  rt_->trace_event(trace::EventKind::collective, self(), {}, proc_->pe(), 0,
                   "bcast targets=" + std::to_string(n) + " k=" +
                       std::to_string(k) + " depth=" + std::to_string(depth));

  auto plan = std::make_shared<BroadcastPlan>(
      BroadcastPlan{self(), std::move(type), std::move(args), std::move(targets), k});
  const auto root_children = std::min<std::size_t>(
      static_cast<std::size_t>(k), plan->targets.size());
  for (std::size_t pos = 1; pos <= root_children; ++pos) {
    dispatch_broadcast_copy(*rt_, plan, pos, proc_);
  }
  // The whole snapshot is now committed to the tree; copies past the first
  // level are in flight. Per-copy outcomes land in broadcast_copies /
  // dead_letters rather than the return value.
  return n;
}

void TaskContext::dispatch_broadcast_copy(Runtime& rt,
                                          const std::shared_ptr<BroadcastPlan>& plan,
                                          std::size_t pos, mmos::Proc* sender_proc,
                                          int via_pe) {
  if (rt.post(plan->origin, sender_proc, plan->targets[pos - 1], plan->type,
              plan->args, /*to_reply_queue=*/false, via_pe)) {
    ++rt.stats_.broadcast_copies;
  }
  // Forward regardless of this copy's own fate (dead letter, lost on the
  // bus): the subtree below `pos` was committed at snapshot time and each
  // target must get exactly one dispatch. Relayed copies are re-issued from
  // the PE the copy for `pos` landed on, so the hop is billed from the
  // relay's cluster (the origin stays the traced sender); the root's own
  // children, dispatched by broadcast(), bill from the origin.
  const std::size_t n = plan->targets.size();
  const auto k = static_cast<std::size_t>(plan->fanout);
  const sim::Tick now = rt.engine().now();
  const TaskRecord* relay = rt.live_record(plan->targets[pos - 1]);
  const int relay_pe = relay != nullptr ? relay->pe : -1;
  for (std::size_t j = 0, child = k * pos + 1; j < k && child <= n; ++j, ++child) {
    // The relay PE re-issues its children's copies one after another, each
    // costing one forward overhead; sibling relays elsewhere run in parallel
    // and only their bus transfers serialize (inside post -> shared_transfer).
    const sim::Tick at =
        now + static_cast<sim::Tick>(j + 1) * rt.costs().msg_forward_overhead;
    rt.engine().schedule(at, [rt = &rt, plan, child, relay_pe] {
      dispatch_broadcast_copy(*rt, plan, child, nullptr, relay_pe);
    });
  }
}

void TaskContext::print(const std::string& text) {
  send(Dest::User(), "_PRINT", {Value(text)});
}

// ---- ACCEPT ----

void TaskContext::on_message(std::string type, Handler handler) {
  handlers_[std::move(type)] = std::move(handler);
}

void TaskContext::record_accept(const Message& msg) {
  proc_->compute(rt_->costs().msg_accept_overhead + rt_->costs().heap_free);
  rt_->transport_.heap_release(msg.heap_offset);
  sender_ = msg.sender;
  ++rt_->stats_.messages_accepted;
  rt_->trace_event(trace::EventKind::msg_accept, self(), msg.sender, proc_->pe(),
                   msg.seq, msg.type);
}

void TaskContext::consume(Message msg, AcceptResult& res) {
  record_accept(msg);
  ++res.accepted[msg.type];
  auto it = handlers_.find(msg.type);
  if (it != handlers_.end()) it->second(*this, msg);
}

AcceptResult TaskContext::accept(AcceptSpec spec) {
  if (in_accept_) {
    throw std::logic_error("ACCEPT executed inside a message handler");
  }
  if (spec.types.empty()) {
    throw std::invalid_argument("ACCEPT lists no message types");
  }
  for (std::size_t i = 0; i < spec.types.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.types.size(); ++j) {
      if (spec.types[i].type == spec.types[j].type) {
        throw std::invalid_argument("ACCEPT lists message type '" +
                                    spec.types[i].type + "' twice");
      }
    }
  }
  AcceptGuard guard(&in_accept_);
  AcceptResult res;

  const bool only_all = std::all_of(spec.types.begin(), spec.types.end(),
                                    [](const auto& t) { return t.all; });

  // Count toward the targets only messages of listed types.
  auto listed_total = [&res, &spec] {
    int n = 0;
    for (const auto& [type, k] : res.accepted) {
      if (spec.lists(type)) n += k;
    }
    return n;
  };
  auto satisfied = [&] {
    if (spec.total_count.has_value()) return listed_total() >= *spec.total_count;
    for (const auto& t : spec.types) {
      if (!t.all && res.count(t.type) < t.count) return false;
    }
    return true;
  };
  auto wants = [&](const std::string& type) {
    for (const auto& t : spec.types) {
      if (t.type != type) continue;
      if (t.all) return true;
      if (spec.total_count.has_value()) {
        return listed_total() < *spec.total_count;
      }
      return res.count(type) < t.count;
    }
    return false;
  };
  // The per-type index finds each wanted type's earliest message directly;
  // merging the candidates by send sequence preserves the old full-scan's
  // arrival-order processing without touching unrelated queue entries.
  auto scan = [&] {
    auto& q = rec_->in_queue;
    while (true) {
      auto best = q.end();
      for (const auto& t : spec.types) {
        auto it = q.first_of(t.type);
        if (it == q.end() || !wants(t.type)) continue;
        if (best == q.end() || it->seq < best->seq) best = it;
      }
      if (best == q.end()) break;
      consume(q.take(best), res);  // handlers may push to the queue's back
    }
  };

  const sim::Tick deadline =
      spec.no_timeout
          ? sim::kForever
          : rt_->engine().now() +
                spec.delay.value_or(rt_->cfg_.accept_default_timeout);

  while (true) {
    scan();
    if (only_all || satisfied()) break;
    rec_->waiting_in_accept = true;
    const bool timed_out = proc_->block_with_timeout(deadline);
    rec_->waiting_in_accept = false;
    if (timed_out) {
      res.timed_out = true;
      ++rt_->stats_.accept_timeouts;
      if (spec.on_delay) {
        spec.on_delay();  // DELAY ... THEN <statement sequence>
      } else {
        res.accepted[kTimeoutType] = 1;  // system-generated timeout message
      }
      break;
    }
  }
  return res;
}

Message TaskContext::wait_any_message() {
  while (rec_->in_queue.empty()) proc_->block();
  Message m = rec_->in_queue.pop_front();
  record_accept(m);
  return m;
}

std::optional<Message> TaskContext::wait_reply_for(std::uint64_t request_id,
                                                   sim::Tick deadline) {
  while (true) {
    auto& q = rec_->replies;
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (!it->args.empty() && it->args[0].is_int() &&
          it->args[0].as_int() == static_cast<std::int64_t>(request_id)) {
        Message m = std::move(*it);
        q.erase(it);
        proc_->compute(rt_->costs().msg_accept_overhead + rt_->costs().heap_free);
        rt_->transport_.heap_release(m.heap_offset);
        return m;
      }
    }
    if (proc_->block_with_timeout(deadline)) return std::nullopt;
  }
}

Message TaskContext::window_transact(const TaskId& service, const char* op,
                                     std::vector<Value> args,
                                     const std::string& what) {
  // A fresh request id (args[0]) per attempt: a late reply to an abandoned
  // attempt must never satisfy a newer one. Abandoned replies sit in the
  // replies queue until task end, where finish_task releases their storage.
  // Every attempt but the last posts a copy of the request.
  const int attempts =
      rt_->recovery_.faults() != nullptr ? Recovery::kWindowRequestAttempts : 1;
  sim::Tick patience = rt_->cfg_.accept_default_timeout;
  for (int a = 1; a <= attempts; ++a, patience *= 2) {
    if (a > 1) ++rt_->stats_.window_retries;
    const std::uint64_t rid = ++rt_->next_request_id_;
    args[0] = Value(static_cast<std::int64_t>(rid));
    proc_->compute(rt_->costs().msg_send_overhead);
    if (!rt_->post(self(), proc_, service, op,
                   a == attempts ? std::move(args) : args)) {
      throw WindowError("window service unreachable for " + what);
    }
    const sim::Tick deadline =
        attempts == 1 ? sim::kForever : rt_->engine().now() + patience;
    if (auto rep = wait_reply_for(rid, deadline)) {
      if (rep->type == "_WINERR") throw WindowError(rep->args.at(1).as_str());
      return std::move(*rep);
    }
  }
  throw WindowError("no reply from window service for " + what + " after " +
                    std::to_string(attempts) + " attempts");
}

// ---- forces ----

void TaskContext::forcesplit(const std::function<void(ForceContext&)>& region) {
  Cluster& cl = rt_->cluster(cluster());
  const auto& secondaries = cl.cfg.secondary_pes;
  const int n = 1 + static_cast<int>(secondaries.size());
  ++rt_->stats_.forcesplits;
  rt_->trace_event(trace::EventKind::force_split, self(), {}, proc_->pe(), 0,
                   "members=" + std::to_string(n));
  proc_->compute(rt_->costs().forcesplit_per_member * n);

  const auto size = static_cast<std::size_t>(n);
  auto st = std::make_shared<ForceState>(ForceState{
      .members = n, .rec = rec_, .procs = std::vector<mmos::Proc*>(size),
      .fanout = rt_->cfg_.collective_fanout, .nodes = std::vector<ForceState::TreeNode>(size),
      .partial = std::vector<double>(size), .loops = {}});
  st->procs[0] = proc_;

  std::vector<mmos::Proc*> members;
  for (int i = 2; i <= n; ++i) {
    const int pe = secondaries[static_cast<std::size_t>(i - 2)];
    // Capture rt/rec by value, never `this`: if the primary is killed, the
    // members must not touch its (unwound) TaskContext.
    auto& p = rt_->system().kernel(pe).create_process(
        rec_->tasktype + "#f" + std::to_string(i),
        [rt = rt_, rec = rec_, st, i, region](mmos::Proc& mp) {
          ForceContext member_ctx(*rt, *rec, st, i, mp);
          region(member_ctx);
          member_ctx.barrier();  // implicit end-of-region barrier
        });
    st->procs[static_cast<std::size_t>(i - 1)] = &p;
    mmos::Proc* primary = proc_;
    p.on_exit([primary] { primary->wake(); });
    members.push_back(&p);
  }
  // Record the members so finish_task can reap them if this task is
  // killed mid-force (otherwise they would block at the barrier forever).
  rec_->force_members = members;

  ForceContext fc(*rt_, *rec_, st, 1, *proc_);
  region(fc);
  fc.barrier();  // implicit end-of-region barrier

  // Join: the force's resources (ForceState, this frame) must outlive every
  // member; wait for the secondary processes to fully exit.
  for (auto* p : members) {
    while (!p->finished()) proc_->block();
  }
  rec_->force_members.clear();
}

// ---- windows ----

LocalArray& TaskContext::local_array(const std::string& name, int rows, int cols) {
  auto it = rec_->array_names.find(name);
  if (it != rec_->array_names.end()) {
    LocalArray& la = rec_->arrays.at(it->second);
    if (la.data.rows() != rows || la.data.cols() != cols) {
      throw std::logic_error("local array '" + name + "' redeclared with a new shape");
    }
    return la;
  }
  const std::uint32_t id = rec_->next_array_id++;
  rec_->array_names[name] = id;
  return rec_->arrays[id] = LocalArray{id, name, Matrix(rows, cols)};
}

Matrix& TaskContext::array_data(const std::string& name) {
  auto it = rec_->array_names.find(name);
  if (it == rec_->array_names.end()) {
    throw WindowError("no local array '" + name + "'");
  }
  return rec_->arrays.at(it->second).data;
}

Window TaskContext::make_window(const std::string& array_name) const {
  auto it = rec_->array_names.find(array_name);
  if (it == rec_->array_names.end()) {
    throw WindowError("no local array '" + array_name + "'");
  }
  const Matrix& a = rec_->arrays.at(it->second).data;
  return Window{rec_->id, it->second, Rect{0, 0, a.rows(), a.cols()}, a.rows(), a.cols()};
}

Window TaskContext::file_window(int cluster_number, const std::string& file_array) {
  Cluster& cl = rt_->cluster(cluster_number);
  const TaskId fc = cl.slot(kFileControllerSlot).id;
  if (!fc.valid()) {
    throw WindowError("cluster " + std::to_string(cluster_number) +
                      " has no file controller");
  }
  const Message rep = window_transact(fc, "_FWIN", {Value(), Value(file_array)},
                                      "file array '" + file_array + "'");
  return rep.args.at(1).as_window();
}

Matrix* TaskContext::own_window_array(const Window& w) {
  if (w.owner != self()) return nullptr;
  auto it = rec_->arrays.find(w.array);
  if (it == rec_->arrays.end()) throw WindowError("window names a dropped array");
  proc_->compute(static_cast<sim::Tick>(w.elements()) *
                 rt_->costs().local_access * 2);
  return &it->second.data;
}

TaskId TaskContext::window_service(const Window& w) const {
  return w.is_file_window() ? w.owner
                            : rt_->cluster(w.owner.cluster).controller_id();
}

Matrix TaskContext::window_read(const Window& w) {
  if (!w.valid()) throw WindowError("reading through an invalid window");
  if (const Matrix* own = own_window_array(w)) return fsim::copy_rect(*own, w.rect);
  Message rep = window_transact(window_service(w), "_WINREAD",
                                {Value(), Value(w)}, w.owner.str());
  Matrix out(w.rect.rows, w.rect.cols);
  const auto& data = rep.args.at(1).as_real_array();
  if (data.size() != out.size()) throw WindowError("window read size mismatch");
  out.data() = data;
  return out;
}

void TaskContext::window_write(const Window& w, const Matrix& data) {
  if (!w.valid()) throw WindowError("writing through an invalid window");
  if (data.rows() != w.rect.rows || data.cols() != w.rect.cols) {
    throw WindowError("window write: data shape does not match the window");
  }
  if (Matrix* own = own_window_array(w)) {
    fsim::paste_rect(*own, w.rect, data);
    return;
  }
  (void)window_transact(
      window_service(w), "_WINWRITE",
      {Value(), Value(w), Value(std::vector<double>(data.data()))},
      w.owner.str());
}

}  // namespace pisces::rt
