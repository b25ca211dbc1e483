#pragma once

#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "config/configuration.hpp"

namespace pisces::config {

/// Allowed values of a numeric field: [lo, hi], or (lo, hi] when `above`.
/// `bound` names `lo` in messages when it is another field's value.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool above = false;
  const char* bound = nullptr;

  [[nodiscard]] bool holds(double v) const { return (above ? v > lo : v >= lo) && v <= hi; }
};

constexpr Range kPositive{.lo = 0, .above = true};
constexpr Range kNonNegative{.lo = 0};
constexpr Range kProbability{.lo = 0, .hi = 1};

/// One value on an option's line.
struct Field {
  const char* name;           ///< `<name>` in usage text; labels range errors
  Range range{};
  const char* sub = nullptr;  ///< menu sub-verb of the group starting here
  bool text = false;          ///< a string that takes the rest of the line, trimmed
};

using Problems = std::vector<std::string>;

struct Option {
  const char* key;  ///< file key
  /// Menu verb; null: the key; "": none. Options that share a verb are a
  /// family (`fault-halt` is `fault halt`): a member's sub-verb is its key
  /// after the "<verb>-" prefix, and `clear` resets the first member's record.
  const char* verb = nullptr;
  bool shown = true;  ///< saved only when set, so default files omit it
  void (*check)(const Configuration&, Problems&) = nullptr;  ///< across the record's fields
  const char* note = nullptr;  ///< printed under the usage line
  bool partial = false;  ///< a line may end early; the fields it lacks keep their values
};

// Token grammars, picked by the member's type. The whole token must parse:
// unsigned types refuse a leading '-', flags read 1|0|on|off and save as
// 1|0, and reals save with max_digits10 so they round-trip bit-exactly.
template <class V>
bool parse(const std::string& tok, V& out) {
  if constexpr (std::is_same_v<V, bool>) {
    out = tok == "1" || tok == "on";
    return out || tok == "0" || tok == "off";
  } else if constexpr (std::is_same_v<V, std::string>) {
    out = tok;
    return true;
  } else if constexpr (std::is_same_v<V, flex::Topology>) {
    const auto kind = flex::topology_from_name(tok);
    if (kind.has_value()) out = *kind;
    return kind.has_value();
  } else {
    const char* end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
    return ec == std::errc{} && ptr == end;
  }
}

template <class V>
bool read(std::istream& in, V& out) {
  std::string tok;
  return in >> tok && parse(tok, out);
}

template <class V>
void put(std::ostream& os, const V& v) {
  if constexpr (std::is_same_v<V, flex::Topology>) {
    os << flex::topology_name(v);
  } else if constexpr (std::is_floating_point_v<V>) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                                   std::numeric_limits<V>::max_digits10);
    os.write(buf, res.ptr - buf);
  } else {
    os << v;
  }
}

// A cluster line has a grammar of its own: `<number>` then settings (see
// read_cluster_setting).
bool read(std::istream& in, ClusterConfig& c);
void put(std::ostream& os, const ClusterConfig& c);

/// Read one setting of a cluster line into `c`: `primary <pe>`, `slots
/// <n>`, `terminal 0|1`, `place <policy>` or `secondaries <pe|lo-hi>...`
/// (the rest of the line). The menu's cluster verbs take the same values.
bool read_cluster_setting(ClusterConfig& c, const std::string& word, std::istream& in);

template <class V>
bool read_field(std::istream& in, const Field& f, V& v) {
  if constexpr (std::is_same_v<V, std::string>) {
    if (f.text) {  // the rest of the line, trimmed
      if (std::getline(in >> std::ws, v)) v.erase(v.find_last_not_of(" \t\r") + 1);
      return !in.fail();
    }
  }
  return read(in, v);
}

/// An option with one line per element (`fault-halt`, `cluster`).
template <class R>
concept List = requires(R r) { r.emplace_back(); };

/// A switched section: loading its line turns it on and the menu adds `on`
/// and `off`. Its option is shown only while it is on.
template <class R>
concept Switched = requires(R r) { r.enabled; };

/// The records an option's lines hold: the record, or each list element.
template <class R>
auto records(R& recs) {
  if constexpr (List<std::remove_const_t<R>>) return std::span(recs);
  else return std::span(&recs, 1);
}

/// The record a loaded line or a menu command sets: a list gets a new one.
template <class R>
auto& edit_record(R& recs) {
  if constexpr (List<R>) return recs.emplace_back();
  else return recs;
}

/// "<key> [<group>] <field> must be <range>", e.g. "supervision backoff
/// base must be > 0".
std::string range_problem(const char* key, const char* group, const Field& f);

/// Append the problems of one record of option `o` in `c`: each field out
/// of its range, then the option's check.
template <class R, class Fields>
void check_record(const Configuration& c, const Option& o, const R& rec, Fields fields,
                  Problems& out) {
  const char* group = nullptr;
  fields(rec, [&](const Field& f, const auto& v) {
    if (f.sub != nullptr) group = f.sub;
    if constexpr (std::is_arithmetic_v<std::remove_cvref_t<decltype(v)>>) {
      if (!f.range.holds(static_cast<double>(v))) out.push_back(range_problem(o.key, group, f));
    }
  });
  if (o.check != nullptr) o.check(c, out);
}

// One uniform draw per physical transfer picks at most one of
// loss/dup/delay, so the three probabilities share a single unit budget.
void bus_check(const Configuration& c, Problems& out);

/// `backoff <base> <factor> <cap>`: the group shared by the supervision and
/// reliable sections (see sim::capped_backoff).
template <class R, class F>
void backoff_fields(R& r, F& f) {
  f({"base", kPositive, "backoff"}, r.backoff_base);
  f({"factor", {.lo = 1}}, r.backoff_factor);
  f({"cap", {.lo = static_cast<double>(r.backoff_base), .bound = "the base"}}, r.backoff_cap);
}

/// Every setting, described once, in saved-file order: `v(option, records,
/// fields)`, where `records` is the record the option's line sets or a list
/// with one line per element, and `fields(rec, f)` calls `f(Field, member)`
/// for each value on the line. Configuration::save, load and validate and
/// ConfigMenu::apply are visitors over it. `Cfg` may be const.
template <class Cfg, class V>
void each_option(Cfg& c, V&& v) {
  static const Configuration d;  // the defaults, which saved files leave implicit
  auto& fp = c.faults;
  constexpr const char* kFault = "fault";
  v({"name"}, c, [](auto& r, auto&& f) { f({"text", {}, nullptr, true}, r.name); });
  v({"timelimit"}, c, [](auto& r, auto&& f) { f({"ticks", kPositive}, r.time_limit); });
  v({"accept-timeout"}, c, [](auto& r, auto&& f) { f({"ticks"}, r.accept_default_timeout); });
  v({"heap"}, c, [](auto& r, auto&& f) { f({"bytes", {.lo = 4096}}, r.message_heap_bytes); });
  v({"loadfile", ""}, c.loadfile, [](auto& r, auto&& f) {
    f({"file"}, r.name);
    f({"kernel"}, r.mmos_kernel_bytes);
    f({"pisces"}, r.pisces_code_bytes);
    f({"user"}, r.user_code_bytes);
  });
  v({"cluster", ""}, c.clusters, [](auto& r, auto&& f) { f({"cluster"}, r); });
  v({"collective-fanout", "fanout", c.collective_fanout != d.collective_fanout}, c,
    [](auto& r, auto&& f) { f({"k", {.lo = 2}}, r.collective_fanout); });
  v({"topology", "", c.topology != d.topology}, c.topology, [](auto& r, auto&& f) {
    f({"kind"}, r.kind);
    f({"pes-per-cluster"}, r.pes_per_cluster);
    f({"backbone-access"}, r.backbone_access);
    f({"backbone-per-word"}, r.backbone_per_word);
    f({"hop-per-word"}, r.numa_hop_per_word);
  });
  // One flag per event kind; an older file lacks the newer kinds.
  v({.key = "trace", .verb = "", .partial = true}, c.trace, [](auto& r, auto&& f) {
    for (auto& on : r.kind_on) f({"on"}, on);
  });
  v({"fault-seed", kFault, fp.any() || fp.seed != d.faults.seed}, fp,
    [](auto& r, auto&& f) { f({"n"}, r.seed); });
  v({"fault-halt", kFault}, fp.pe_halts, [](auto& r, auto&& f) {
    f({"pe"}, r.pe);
    f({"tick", kNonNegative}, r.at);
  });
  v({"fault-bus", kFault,
     fp.bus_loss > 0 || fp.bus_duplication > 0 || fp.bus_delay_probability > 0, bus_check,
     "  (one draw per transfer picks at most one fault, so the\n"
     "   probabilities must sum to <= 1; with `reliable on`, loss\n"
     "   and duplication still compose across retries of one send)"},
    fp, [](auto& r, auto&& f) {
      f({"loss", kProbability}, r.bus_loss);
      f({"dup", kProbability}, r.bus_duplication);
      f({"delay-prob", kProbability}, r.bus_delay_probability);
      f({"delay-ticks", kNonNegative}, r.bus_delay_ticks);
    });
  v({"fault-heap", kFault}, fp.heap_outages, [](auto& r, auto&& f) {
    f({"from"}, r.from);
    f({"until"}, r.until);
  });
  v({"fault-disk", kFault, fp.disk_error > 0}, fp,
    [](auto& r, auto&& f) { f({"prob", kProbability}, r.disk_error); });
  v({"fault-slow", kFault}, fp.pe_slowdowns, [](auto& r, auto&& f) {
    f({"pe"}, r.pe);
    f({"from", kNonNegative}, r.from);
    f({"until"}, r.until);
    f({"factor", kPositive}, r.factor);
  });
  v({"fault-partition", kFault}, fp.bus_partitions, [](auto& r, auto&& f) {
    f({"cluster-a", {.lo = 1}}, r.cluster_a);
    f({"cluster-b", {.lo = 1}}, r.cluster_b);
    f({"from", kNonNegative}, r.from);
    f({"until"}, r.until);
  });
  v({"fault-recover", kFault}, fp.pe_recoveries, [](auto& r, auto&& f) {
    f({"pe"}, r.pe);
    f({"tick", kNonNegative}, r.at);
  });
  v({"supervision", "supervise", c.supervision.enabled}, c.supervision, [](auto& r, auto&& f) {
    f({"count", kNonNegative, "restarts"}, r.max_restarts);
    backoff_fields(r, f);
    f({"setting", {}, "migrate"}, r.migrate);
  });
  v({"reliable", nullptr, c.reliable.enabled}, c.reliable, [](auto& r, auto&& f) {
    f({"count", kNonNegative, "retries"}, r.max_retries);
    backoff_fields(r, f);
    f({"ticks", kPositive, "ack-flush"}, r.ack_flush_ticks);
    f({"ticks", kNonNegative, "deadline"}, r.send_deadline);
  });
}

}  // namespace pisces::config
