#include "config/options.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <type_traits>

namespace pisces::config {

namespace {

using C = Configuration;
using FP = flex::FaultPlan;

bool parse(const std::string& tok, std::string& out) {
  out = tok;
  return true;
}

bool parse(const std::string& tok, bool& out) {
  out = tok == "1" || tok == "on";
  return out || tok == "0" || tok == "off";
}

/// The whole token must be a V; unsigned types reject a leading '-'.
template <class V>
bool parse(const std::string& tok, V& out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

template <class V>
bool read(std::istream& in, V& out) {
  std::string tok;
  return in >> tok && parse(tok, out);
}

template <class V>
void put(std::ostream& os, const V& v) {
  if constexpr (std::is_same_v<V, bool>) {
    os << (v ? 1 : 0);
  } else if constexpr (std::is_floating_point_v<V>) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                                   std::numeric_limits<V>::max_digits10);
    os.write(buf, res.ptr - buf);
  } else {
    os << v;
  }
}

template <class M>
struct MemberOf;
template <class R, class V>
struct MemberOf<V R::*> {
  using Rec = R;
  using Value = V;
};

template <class V>
constexpr Kind kind_of() {
  if constexpr (std::is_same_v<V, bool>) return Kind::flag;
  else if constexpr (std::is_same_v<V, std::string>) return Kind::word;
  else if constexpr (std::is_floating_point_v<V>) return Kind::real;
  else if constexpr (std::is_unsigned_v<V>) return Kind::natural;
  else return Kind::integer;
}

/// The field stored at member `M` of its record.
template <auto M>
Field field(const char* name, Range range = {}, const char* sub = nullptr) {
  using R = typename MemberOf<decltype(M)>::Rec;
  using V = typename MemberOf<decltype(M)>::Value;
  Field f{name, kind_of<V>(), range, sub,
          [](void* r, std::istream& in) { return read(in, static_cast<R*>(r)->*M); },
          [](const void* r, std::ostream& os) { put(os, static_cast<const R*>(r)->*M); },
          nullptr};
  if constexpr (std::is_arithmetic_v<V> && !std::is_same_v<V, bool>) {
    if (range.lo != Range{}.lo || range.hi != Range{}.hi) {
      f.number = [](const void* r) { return static_cast<double>(static_cast<const R*>(r)->*M); };
    }
  }
  return f;
}

/// A string field that takes the rest of the line, trimmed.
template <auto M>
Field text(const char* name) {
  Field f = field<M>(name);
  f.kind = Kind::text;
  f.read = [](void* r, std::istream& in) {
    std::string& out = static_cast<typename MemberOf<decltype(M)>::Rec*>(r)->*M;
    out.clear();
    std::getline(in >> std::ws, out);
    out.erase(out.find_last_not_of(" \t\r") + 1);
    return !out.empty();
  };
  return f;
}

template <auto M>
Switch toggle() {
  using R = typename MemberOf<decltype(M)>::Rec;
  return {[](const void* r) { return static_cast<const R*>(r)->*M; },
          [](void* r, bool on) { static_cast<R*>(r)->*M = on; }};
}

template <class T>
constexpr bool kIsList = false;
template <class E>
constexpr bool kIsList<std::vector<E>> = true;

/// The record at `cfg.*Path...`, or each element when that is a vector.
template <auto... Path>
Records at() {
  using T = std::remove_cvref_t<decltype((std::declval<C&>() .* ... .* Path))>;
  if constexpr (kIsList<T>) {
    return {[](const C& c) { return (c .* ... .* Path).size(); },
            [](const C& c, std::size_t i) -> const void* { return &(c .* ... .* Path)[i]; },
            [](C& c) -> void* { return &(c .* ... .* Path).emplace_back(); }};
  } else {
    return {[](const C&) -> std::size_t { return 1; },
            [](const C& c, std::size_t) -> const void* { return &(c .* ... .* Path); },
            [](C& c) -> void* { return &(c .* ... .* Path); }};
  }
}

constexpr Range kPositive{.lo = 0, .above = true};
constexpr Range kNonNegative{.lo = 0};
constexpr Range kProbability{.lo = 0, .hi = 1};
constexpr const char* kFault = "fault";

/// `<count> backoff <base> <factor> <cap> <rest...>`: the layout shared by
/// the supervision and reliable sections (see sim::capped_backoff).
template <class S>
std::vector<Field> backoff_section(Field count, std::initializer_list<Field> rest) {
  std::vector<Field> f{count, field<&S::backoff_base>("base", kPositive, "backoff"),
                       field<&S::backoff_factor>("factor", Range{.lo = 1}),
                       field<&S::backoff_cap>("cap")};
  f.insert(f.end(), rest);
  return f;
}

template <class S>
void backoff_check(const void* rec, const char* key, Problems& out) {
  const auto& s = *static_cast<const S*>(rec);
  if (s.backoff_cap < s.backoff_base) {
    out.push_back(std::string(key) + " backoff cap must be >= the base");
  }
}

// One uniform draw per physical transfer picks at most one of
// loss/dup/delay, so the three probabilities share a single unit budget.
// Duplication and loss still compose on one *logical* transfer once
// retransmission is on: each retry is its own draw.
void bus_check(const void* rec, const char*, Problems& out) {
  const auto& f = *static_cast<const FP*>(rec);
  const double sum = f.bus_loss + f.bus_duplication + f.bus_delay_probability;
  if (sum <= 1.0) return;
  std::ostringstream msg;
  msg << "bus fault probabilities must sum to <= 1 because one draw per transfer "
         "picks at most one fault: loss " << f.bus_loss << " + dup " << f.bus_duplication
      << " + delay-prob " << f.bus_delay_probability << " = " << sum;
  out.push_back(msg.str());
}

void save_clusters(const C& cfg, std::ostream& os) {
  for (const auto& c : cfg.clusters) {
    os << "cluster " << c.number << " primary " << c.primary_pe << " slots "
       << c.slots << " terminal " << (c.has_terminal ? 1 : 0);
    if (c.place != PlacePolicy::primary) {
      os << " place " << place_policy_name(c.place);
    }
    os << " secondaries";
    for (int pe : c.secondary_pes) os << " " << pe;
    os << "\n";
  }
}

bool load_cluster(C& cfg, std::istream& in) {
  ClusterConfig c;
  std::string word;
  bool ok = read(in, c.number);
  while (ok && in >> word) ok = read_cluster_setting(c, word, in);
  if (ok) cfg.clusters.push_back(std::move(c));
  return ok;
}

void save_topology(const C& cfg, std::ostream& os) {
  const auto& t = cfg.topology;
  if (t == flex::TopologySpec{}) return;
  os << "topology " << flex::topology_name(t.kind) << " " << t.pes_per_cluster
     << " " << t.backbone_access << " " << t.backbone_per_word << " "
     << t.numa_hop_per_word << "\n";
}

bool load_topology(C& cfg, std::istream& in) {
  auto& t = cfg.topology;
  std::string kind;
  const auto k = in >> kind ? flex::topology_from_name(kind) : std::nullopt;
  if (k.has_value()) t.kind = *k;
  return k.has_value() && read(in, t.pes_per_cluster) && read(in, t.backbone_access) &&
         read(in, t.backbone_per_word) && read(in, t.numa_hop_per_word);
}

void save_trace(const C& cfg, std::ostream& os) {
  os << "trace";
  for (bool on : cfg.trace.kind_on) os << " " << (on ? 1 : 0);
  os << "\n";
}

bool load_trace(C& cfg, std::istream& in) {
  // Older files carry fewer flags; kinds a file predates load as off.
  auto& flags = cfg.trace.kind_on;
  std::string tok;
  for (std::size_t k = 0; in >> tok; ++k) {
    if (k == flags.size() || !parse(tok, flags[k])) return false;
  }
  return true;
}

}  // namespace

bool read_cluster_setting(ClusterConfig& c, const std::string& word, std::istream& in) {
  std::string val;
  if (word == "secondaries") {
    c.secondary_pes.clear();
    while (in >> val) {
      const auto dash = val.find('-');
      int lo = 0;
      int hi = 0;
      if (!parse(val.substr(0, dash), lo) ||
          !parse(dash == std::string::npos ? val : val.substr(dash + 1), hi) || hi < lo ||
          hi - lo >= flex::kMaxPes) {
        return false;
      }
      for (int pe = lo; pe <= hi; ++pe) c.secondary_pes.push_back(pe);
    }
    return true;
  }
  if (!(in >> val)) return false;
  if (word == "primary") return parse(val, c.primary_pe);
  if (word == "slots") return parse(val, c.slots);
  if (word == "terminal") return parse(val, c.has_terminal);
  const auto p = place_policy_from_name(val);
  if (word != "place" || !p.has_value()) return false;
  c.place = *p;
  return true;
}

const std::vector<Option>& options() {
  using Sup = SupervisionConfig;
  using Rel = ReliableConfig;
  using Load = mmos::Loadfile;
  static const std::vector<Option> table{
      {.key = "name", .records = at<>(), .fields = {text<&C::name>("text")}},
      {.key = "timelimit", .records = at<>(),
       .fields = {field<&C::time_limit>("ticks", kPositive)}},
      {.key = "accept-timeout", .records = at<>(),
       .fields = {field<&C::accept_default_timeout>("ticks")}},
      {.key = "heap", .records = at<>(),
       .fields = {field<&C::message_heap_bytes>("bytes", Range{.lo = 4096})}},
      {.key = "loadfile", .verb = "", .records = at<&C::loadfile>(),
       .fields = {field<&Load::name>("file"), field<&Load::mmos_kernel_bytes>("kernel"),
                  field<&Load::pisces_code_bytes>("pisces"),
                  field<&Load::user_code_bytes>("user")}},
      {.key = "cluster", .verb = "", .save = save_clusters, .load = load_cluster},
      {.key = "collective-fanout", .verb = "fanout", .records = at<>(),
       .fields = {field<&C::collective_fanout>("k", Range{.lo = 2})},
       .shown = [](const C& c) { return c.collective_fanout != C{}.collective_fanout; }},
      {.key = "topology", .verb = "", .save = save_topology, .load = load_topology},
      {.key = "trace", .verb = "", .save = save_trace, .load = load_trace},
      {.key = "fault-seed", .verb = kFault, .records = at<&C::faults>(),
       .fields = {field<&FP::seed>("n")},
       .shown = [](const C& c) { return c.faults.any() || c.faults.seed != FP{}.seed; },
       .clear = [](C& c) { c.faults = FP{}; }},
      {.key = "fault-halt", .verb = kFault, .records = at<&C::faults, &FP::pe_halts>(),
       .fields = {field<&FP::PeHalt::pe>("pe"), field<&FP::PeHalt::at>("tick", kNonNegative)}},
      {.key = "fault-bus", .verb = kFault, .records = at<&C::faults>(),
       .fields = {field<&FP::bus_loss>("loss", kProbability),
                  field<&FP::bus_duplication>("dup", kProbability),
                  field<&FP::bus_delay_probability>("delay-prob", kProbability),
                  field<&FP::bus_delay_ticks>("delay-ticks", kNonNegative)},
       .shown = [](const C& c) {
         const auto& f = c.faults;
         return f.bus_loss > 0 || f.bus_duplication > 0 || f.bus_delay_probability > 0;
       },
       .check = bus_check,
       .note = "  (one draw per transfer picks at most one fault, so the\n"
               "   probabilities must sum to <= 1; with `reliable on`, loss\n"
               "   and duplication still compose across retries of one send)"},
      {.key = "fault-heap", .verb = kFault, .records = at<&C::faults, &FP::heap_outages>(),
       .fields = {field<&FP::HeapOutage::from>("from"), field<&FP::HeapOutage::until>("until")}},
      {.key = "fault-disk", .verb = kFault, .records = at<&C::faults>(),
       .fields = {field<&FP::disk_error>("prob", kProbability)},
       .shown = [](const C& c) { return c.faults.disk_error > 0; }},
      {.key = "fault-slow", .verb = kFault, .records = at<&C::faults, &FP::pe_slowdowns>(),
       .fields = {field<&FP::PeSlowdown::pe>("pe"),
                  field<&FP::PeSlowdown::from>("from", kNonNegative),
                  field<&FP::PeSlowdown::until>("until"),
                  field<&FP::PeSlowdown::factor>("factor", kPositive)}},
      {.key = "fault-partition", .verb = kFault,
       .records = at<&C::faults, &FP::bus_partitions>(),
       .fields = {field<&FP::BusPartition::cluster_a>("cluster-a", Range{.lo = 1}),
                  field<&FP::BusPartition::cluster_b>("cluster-b", Range{.lo = 1}),
                  field<&FP::BusPartition::from>("from", kNonNegative),
                  field<&FP::BusPartition::until>("until")}},
      {.key = "fault-recover", .verb = kFault, .records = at<&C::faults, &FP::pe_recoveries>(),
       .fields = {field<&FP::PeRecover::pe>("pe"),
                  field<&FP::PeRecover::at>("tick", kNonNegative)}},
      {.key = "supervision", .verb = "supervise", .records = at<&C::supervision>(),
       .fields = backoff_section<Sup>(
           field<&Sup::max_restarts>("count", kNonNegative, "restarts"),
           {field<&Sup::migrate>("setting", {}, "migrate")}),
       .enabled = toggle<&Sup::enabled>(),
       .check = backoff_check<Sup>},
      {.key = "reliable", .records = at<&C::reliable>(),
       .fields = backoff_section<Rel>(
           field<&Rel::max_retries>("count", kNonNegative, "retries"),
           {field<&Rel::ack_flush_ticks>("ticks", kPositive, "ack-flush"),
            field<&Rel::send_deadline>("ticks", kNonNegative, "deadline")}),
       .enabled = toggle<&Rel::enabled>(),
       .check = backoff_check<Rel>},
  };
  return table;
}

void check_record(const Option& o, const void* rec, Problems& out) {
  const char* group = nullptr;
  for (const Field& f : o.fields) {
    if (f.sub != nullptr) group = f.sub;
    if (f.number == nullptr || f.range.holds(f.number(rec))) continue;
    std::ostringstream msg;  // e.g. "supervision backoff base must be > 0"
    msg << o.key << " ";
    if (group != nullptr) msg << group << " ";
    msg << f.name << " must be ";
    if (f.range.above) {
      msg << "> " << f.range.lo;
    } else if (f.range.hi < std::numeric_limits<double>::infinity()) {
      msg << "in [" << f.range.lo << ", " << f.range.hi << "]";
    } else {
      msg << ">= " << f.range.lo;
    }
    out.push_back(msg.str());
  }
  if (o.check != nullptr) o.check(rec, o.key, out);
}

}  // namespace pisces::config
