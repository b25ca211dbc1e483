#include "trace/analyzer.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <sstream>
#include <string_view>

namespace pisces::trace {

std::string Record::format() const {
  std::ostringstream os;
  os << "TRACE " << kind_name(kind) << " t=" << at << " pe=" << pe
     << " task=" << task.cluster << ':' << task.slot << ':' << task.unique;
  if (other.valid()) {
    os << " other=" << other.cluster << ':' << other.slot << ':' << other.unique;
  }
  if (seq != 0) os << " seq=" << seq;
  if (!info.empty()) os << " info=" << info;
  return os.str();
}

Analyzer::Analyzer(std::vector<Record> records) : records_(std::move(records)) {}

std::uint64_t Analyzer::count(EventKind k) const {
  return static_cast<std::uint64_t>(
      std::count_if(records_.begin(), records_.end(),
                    [k](const Record& r) { return r.kind == k; }));
}

std::vector<Analyzer::TaskTiming> Analyzer::task_timings() const {
  std::map<rt::TaskId, TaskTiming> by_task;
  for (const Record& r : records_) {
    if (r.kind == EventKind::task_init) {
      auto& t = by_task[r.task];
      t.task = r.task;
      t.initiated = r.at;
    } else if (r.kind == EventKind::task_term) {
      auto& t = by_task[r.task];
      t.task = r.task;
      t.terminated = r.at;
    }
  }
  std::vector<TaskTiming> out;
  out.reserve(by_task.size());
  for (auto& [id, t] : by_task) out.push_back(t);
  return out;
}

std::vector<Analyzer::MessageTiming> Analyzer::message_timings() const {
  std::map<std::uint64_t, MessageTiming> by_seq;
  for (const Record& r : records_) {
    if (r.seq == 0) continue;
    if (r.kind == EventKind::msg_send) {
      auto& m = by_seq[r.seq];
      m.seq = r.seq;
      m.from = r.task;
      m.to = r.other;
      m.sent = r.at;
    } else if (r.kind == EventKind::msg_accept) {
      auto& m = by_seq[r.seq];
      m.seq = r.seq;
      m.accepted = r.at;
    }
  }
  std::vector<MessageTiming> out;
  for (auto& [seq, m] : by_seq) {
    if (m.sent != 0 && m.accepted != 0) out.push_back(m);
  }
  return out;
}

double Analyzer::mean_message_latency() const {
  auto ms = message_timings();
  if (ms.empty()) return 0.0;
  double sum = 0;
  for (const auto& m : ms) sum += static_cast<double>(m.latency());
  return sum / static_cast<double>(ms.size());
}

std::map<rt::TaskId, std::uint64_t> Analyzer::barrier_entries() const {
  std::map<rt::TaskId, std::uint64_t> out;
  for (const Record& r : records_) {
    if (r.kind == EventKind::barrier_enter) ++out[r.task];
  }
  return out;
}

std::map<std::string, std::uint64_t> Analyzer::message_type_counts() const {
  std::map<std::string, std::uint64_t> out;
  for (const Record& r : records_) {
    if (r.kind == EventKind::msg_send && !r.info.empty()) ++out[r.info];
  }
  return out;
}

std::map<rt::TaskId, std::string> Analyzer::abnormal_terminations() const {
  std::map<rt::TaskId, std::string> out;
  for (const Record& r : records_) {
    if (r.kind == EventKind::child_term) out[r.task] = r.info;
  }
  return out;
}

std::map<int, std::uint64_t> Analyzer::pe_activity() const {
  std::map<int, std::uint64_t> out;
  for (const Record& r : records_) {
    if (r.pe > 0) ++out[r.pe];
  }
  return out;
}

std::string Analyzer::report() const {
  std::ostringstream os;
  os << "=== trace analysis (" << records_.size() << " records) ===\n";
  static constexpr EventKind kAll[] = {
      EventKind::task_init,  EventKind::task_term, EventKind::msg_send,
      EventKind::msg_accept, EventKind::lock,      EventKind::unlock,
      EventKind::barrier_enter, EventKind::force_split,
      EventKind::dead_letter, EventKind::fault, EventKind::child_term};
  for (EventKind k : kAll) {
    os << "  " << kind_name(k) << ": " << count(k) << '\n';
  }
  const auto tasks = task_timings();
  os << "tasks observed: " << tasks.size() << '\n';
  for (const auto& t : tasks) {
    os << "  task " << t.task.str();
    if (t.initiated) os << " init=" << *t.initiated;
    if (t.terminated) os << " term=" << *t.terminated;
    if (auto lt = t.lifetime()) os << " lifetime=" << *lt;
    os << '\n';
  }
  const auto msgs = message_timings();
  os << "matched messages: " << msgs.size()
     << " mean latency=" << mean_message_latency() << " ticks\n";
  const auto types = message_type_counts();
  if (!types.empty()) {
    os << "messages by type:";
    for (const auto& [type, n] : types) os << " " << type << "=" << n;
    os << '\n';
  }
  const auto pes = pe_activity();
  if (!pes.empty()) {
    os << "events by PE:";
    for (const auto& [pe, n] : pes) os << " pe" << pe << "=" << n;
    os << '\n';
  }
  return os.str();
}

namespace {

/// Read `field` whole into `out`; false when it is empty, has trailing
/// characters or is out of range.
template <class T>
bool read(std::string_view field, T& out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// A taskid written "cluster:slot:unique".
bool read(std::string_view field, rt::TaskId& out) {
  const auto a = field.find(':');
  const auto b = field.find(':', a + 1);  // npos when `a` is
  return b != std::string_view::npos && read(field.substr(0, a), out.cluster) &&
         read(field.substr(a + 1, b - a - 1), out.slot) &&
         read(field.substr(b + 1), out.unique);
}

/// One line as Record::format writes it, or nullopt when it is not one.
/// `info` is the rest of the line, spaces included.
std::optional<Record> parse_line(std::string_view line) {
  auto next_token = [&line] {
    const auto space = line.find(' ');
    const std::string_view token = line.substr(0, space);
    line = space == std::string_view::npos ? std::string_view{} : line.substr(space + 1);
    return token;
  };
  if (next_token() != "TRACE") return std::nullopt;
  const auto kind = kind_from_name(next_token());
  if (!kind.has_value()) return std::nullopt;
  Record r{.kind = *kind, .info = {}};
  while (!line.empty()) {
    if (line.starts_with("info=")) {
      r.info = line.substr(5);
      break;
    }
    const std::string_view field = next_token();
    const auto eq = field.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = field.substr(0, eq);
    const std::string_view val = field.substr(eq + 1);
    const bool ok = key == "t"       ? read(val, r.at)
                    : key == "pe"    ? read(val, r.pe)
                    : key == "seq"   ? read(val, r.seq)
                    : key == "task"  ? read(val, r.task)
                    : key == "other" ? read(val, r.other)
                                     : false;
    if (!ok) return std::nullopt;
  }
  return r;
}

}  // namespace

std::vector<Record> Analyzer::parse(std::istream& is) {
  std::vector<Record> out;
  std::string line;
  while (std::getline(is, line)) {
    if (auto r = parse_line(line)) out.push_back(std::move(*r));
  }
  return out;
}

}  // namespace pisces::trace
