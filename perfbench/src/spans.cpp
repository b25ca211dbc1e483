#include "spans.hpp"

#include <algorithm>

namespace perfbench {

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::step: return "sim.step";
    case SpanName::send: return "core.send";
    case SpanName::accept: return "core.accept";
    case SpanName::initiate: return "core.initiate";
    case SpanName::broadcast: return "core.broadcast";
    case SpanName::window_read: return "core.window_read";
    case SpanName::window_write: return "core.window_write";
    case SpanName::presched: return "core.presched";
    case SpanName::barrier: return "core.barrier";
    case SpanName::allreduce: return "core.allreduce";
  }
  return "?";
}

void SpanLog::reset() {
  origin_ = now_ns();
  step_index_ = 0;
  step_span_ = 0;
  step_start_ = origin_;
  claimed_ = 0;
  spans_.clear();
  open_.clear();
  for (auto& v : self_) v.clear();
  depth_sum_ = 0;
  heap_blocks_sum_ = 0;
  depth_samples_ = 0;
}

void SpanLog::begin_step() {
  step_start_ = now_ns();
  claimed_ = 0;
  step_span_ = spans_.size();
  Span s;
  s.start = step_start_ - origin_;
  spans_.push_back(s);
}

void SpanLog::end_step(std::size_t pending_events, std::size_t heap_live_blocks) {
  const std::int64_t t = now_ns();
  const std::int64_t dur = t - step_start_;
  for (Open& o : open_) {
    std::int64_t part = 0;
    if (o.opened_step == step_index_) {
      part = t - (spans_[o.span].start + origin_);
    } else if (o.proc->cpu_ticks() != o.cpu) {
      part = dur;  // the caller's fiber was resumed inside this step
    }
    o.cpu = o.proc->cpu_ticks();
    o.self += part;
    if (o.top) claimed_ += part;
  }
  self_[static_cast<std::size_t>(SpanName::step)].push_back(
      std::max<std::int64_t>(0, dur - claimed_));
  spans_[step_span_].end = t - origin_;
  depth_sum_ += static_cast<double>(pending_events);
  heap_blocks_sum_ += static_cast<double>(heap_live_blocks);
  ++depth_samples_;
  ++step_index_;
}

std::size_t SpanLog::open(SpanName name, pisces::rt::TaskId task,
                          pisces::mmos::Proc& proc, std::int64_t op) {
  Span s;
  s.start = now_ns() - origin_;
  s.parent = static_cast<std::int64_t>(step_span_);
  s.op = op;
  s.task = task;
  s.name = name;
  Open o;
  o.span = spans_.size();
  o.proc = &proc;
  o.cpu = proc.cpu_ticks();
  o.opened_step = step_index_;
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (it->proc == &proc) {
      s.parent = static_cast<std::int64_t>(it->span);
      o.top = false;
      break;
    }
  }
  spans_.push_back(s);
  open_.push_back(o);
  return o.span;
}

void SpanLog::close(std::size_t handle) {
  const std::int64_t t = now_ns();
  auto it = std::find_if(open_.rbegin(), open_.rend(),
                         [handle](const Open& o) { return o.span == handle; });
  if (it == open_.rend()) return;
  Open o = *it;
  open_.erase(std::next(it).base());
  const std::int64_t part = o.opened_step == step_index_
                                ? t - (spans_[o.span].start + origin_)
                                : t - step_start_;
  o.self += part;
  if (o.top) claimed_ += part;
  Span& s = spans_[o.span];
  s.end = t - origin_;
  self_[static_cast<std::size_t>(s.name)].push_back(
      std::max<std::int64_t>(0, o.self - o.children));
  if (!o.top) {
    for (auto p = open_.rbegin(); p != open_.rend(); ++p) {
      if (p->proc == o.proc) {
        p->children += o.self;
        break;
      }
    }
  }
}

double SpanLog::mean_queue_depth() const {
  return depth_samples_ == 0 ? 0.0 : depth_sum_ / static_cast<double>(depth_samples_);
}

double SpanLog::mean_heap_live_blocks() const {
  return depth_samples_ == 0 ? 0.0
                             : heap_blocks_sum_ / static_cast<double>(depth_samples_);
}

void SpanLog::write_tsv(std::ostream& os) const {
  os << "id\tparent\tname\tstart_ns\tend_ns\ttask\top\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << '\t' << s.parent << '\t' << span_name(s.name) << '\t' << s.start
       << '\t' << s.end << '\t' << (s.task.valid() ? s.task.str() : "-") << '\t'
       << s.op << '\n';
  }
}

}  // namespace perfbench
