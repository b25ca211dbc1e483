#include "config/menu.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "config/options.hpp"

namespace pisces::config {

namespace {

/// A family member's sub-verb, its key after the "<verb>-" prefix
/// (`halt` for `fault-halt` under `fault`); empty for any other option.
std::string_view member_sub(const Option& o, const std::string& verb) {
  const std::string_view key = o.key;
  return key.starts_with(verb + "-") ? key.substr(verb.size() + 1) : std::string_view{};
}

/// Apply a command to the options with menu verb `verb`, all or nothing:
/// it commits only if every field parses, no token is left over and the
/// record passes its checks. False when no option has the verb.
bool apply_option(Configuration& cfg, const std::string& verb, std::istream& is,
                  std::ostream& out) {
  auto mine = [&verb](const Option& o) { return verb == (o.verb != nullptr ? o.verb : o.key); };
  // The sub-verbs in order: `on` and `off` for a switched record, each
  // family member's and `clear`, or each field group's; {""} for none.
  std::vector<std::string_view> subs;
  bool family = false;
  each_option(cfg, [&](const Option& o, const auto& recs, auto fields) {
    if (!mine(o)) return;
    using R = std::remove_cvref_t<decltype(recs)>;
    const std::string_view m = member_sub(o, verb);
    if (subs.empty() && Switched<R>) subs.insert(subs.end(), {"on", "off"});
    family = family || !m.empty();
    if (!m.empty()) {
      subs.push_back(m);
    } else if constexpr (!List<R>) {
      bool lead = true;  // the first field starts a group
      fields(recs, [&](const Field& f, const auto&) {
        if (std::exchange(lead, false) || f.sub != nullptr) subs.emplace_back(f.sub ? f.sub : "");
      });
    }
  });
  if (family) subs.push_back("clear");
  if (subs.empty()) return false;
  std::string sub;
  if (!subs.front().empty() && !(is >> sub)) {
    out << "usage: " << verb << " ";
    for (const auto s : subs) out << (s == subs.front() ? "" : "|") << s;
    out << " ...\n";
    return true;
  }
  if (std::find(subs.begin(), subs.end(), sub) == subs.end()) {
    out << "unknown " << verb << " subcommand '" << sub << "'\n";
    return true;
  }
  const bool whole = sub == "on" || sub == "off" || sub == "clear";  // the first record
  Configuration next = cfg;
  bool commit = whole;
  bool first = true;
  each_option(next, [&](const Option& o, auto& recs, auto fields) {
    if (!mine(o)) return;
    using R = std::remove_cvref_t<decltype(recs)>;
    if (std::exchange(first, false) && whole) {
      if constexpr (Switched<R>) recs.enabled = sub == "on";
      else recs = R{};
      return;
    }
    const std::string_view m = member_sub(o, verb);
    if (whole || (!m.empty() && m != sub)) return;
    auto& r = edit_record(recs);
    std::string usage = "usage: " + verb + (sub.empty() ? "" : " " + sub);
    bool ok = true;
    std::string_view group = m;
    fields(r, [&](const Field& f, auto& v) {
      if (m.empty() && f.sub != nullptr) group = f.sub;
      if (group != sub) return;
      const bool flag = std::is_same_v<std::remove_cvref_t<decltype(v)>, bool>;
      usage += flag ? std::string(" on|off") : std::string(" <") + f.name + ">";
      ok = ok && read_field(is, f, v);
    });
    std::string extra;
    Problems problems;
    if (ok && !(is >> extra)) {
      check_record(next, o, r, fields, problems);
      commit = problems.empty();
    }
    if (commit) return;
    for (const auto& p : problems) out << "error: " << p << "\n";
    out << usage << "\n";
    if (o.note != nullptr) out << o.note << "\n";
  });
  if (commit) cfg = std::move(next);
  return true;
}

}  // namespace

bool ConfigMenu::apply(const std::string& line, std::ostream& out) {
  std::istringstream is(line);
  std::string cmd;
  if (!(is >> cmd)) return true;
  if (cmd == "done") return false;

  if (apply_option(cfg_, cmd, is, out)) return true;
  // The cluster verbs, `<verb> <cluster> [<value>]`, with their usage text.
  static const std::map<std::string, const char*> kClusterVerbs{
      {"cluster", "<n>"},
      {"terminal", "<cluster>"},
      {"primary", "<cluster> <pe>"},
      {"secondaries", "<cluster> <pe|lo-hi>..."},
      {"place", "<cluster> <primary|least-loaded|round-robin>"},
      {"slots", "<cluster> <count>"}};
  std::string extra;
  if (const auto v = kClusterVerbs.find(cmd); v != kClusterVerbs.end()) {
    // A new cluster number adds a cluster whose primary is the lowest MMOS
    // PE that no cluster has as its primary yet. The value is read as on a
    // saved cluster line; `terminal` also takes the terminal from every
    // other cluster.
    Configuration next = cfg_;
    auto& all = next.clusters;
    int n = 0;
    const bool numbered = read(is, n);
    std::string value;
    std::getline(is >> std::ws, value);
    std::istringstream vs(value);
    auto c = std::ranges::find(all, n, &ClusterConfig::number);
    if (c == all.end()) {
      int pe = spec_.first_mmos_pe();
      while (std::ranges::find(all, pe, &ClusterConfig::primary_pe) != all.end()) ++pe;
      c = all.insert(c, {.number = n, .primary_pe = pe});
    }
    const bool set = cmd == "cluster" || cmd == "terminal" || read_cluster_setting(*c, cmd, vs);
    if (numbered && n < 0) {
      out << "cluster numbers must be non-negative\n";
    } else if (numbered && set && !(vs >> extra)) {
      if (cmd == "terminal") {
        for (auto& other : all) other.has_terminal = &other == &*c;
      }
      cfg_ = std::move(next);
    } else if (numbered && !set && cmd == "place" && !value.empty()) {
      out << "unknown placement policy '" << value.substr(0, value.find(' '))
          << "' (use primary, least-loaded, round-robin)\n";
    } else {
      out << "usage: " << cmd << " " << v->second << "\n";
    }
  } else if (cmd == "topology") {
    std::string kind;
    flex::TopologySpec next;  // a command states the whole topology, as a saved line does
    const bool named = is >> kind && parse(kind, next.kind);
    bool ok = named;
    bool known = true;
    while (ok && is >> extra) {
      if (extra == "pes-per-cluster") ok = read(is, next.pes_per_cluster);
      else if (extra == "backbone-access") ok = read(is, next.backbone_access);
      else if (extra == "backbone-per-word") ok = read(is, next.backbone_per_word);
      else if (extra == "hop-per-word") ok = read(is, next.numa_hop_per_word);
      else ok = known = false;
    }
    const auto problems = ok ? next.validate(spec_.pe_count) : std::vector<std::string>{};
    if (!kind.empty() && !named) {
      out << "unknown topology '" << kind << "' (use shared, hier, numa)\n";
    } else if (!known) {
      out << "unknown topology option '" << extra << "'\n";
    } else if (!ok) {
      out << "usage: topology <shared|hier|numa> [pes-per-cluster <n>] "
             "[backbone-access <t>] [backbone-per-word <t>] [hop-per-word <t>]\n";
    }
    for (const auto& p : problems) out << "error: " << p << "\n";
    if (ok && problems.empty()) cfg_.topology = next;
  } else if (cmd == "trace") {
    std::string kind;
    bool on = false;
    if (!(is >> kind) || !read(is, on) || is >> extra) {
      out << "usage: trace <kind> on|off\n";
    } else if (const auto k = trace::kind_from_name(kind)) {
      cfg_.trace.set(*k, on);
    } else {
      out << "unknown event kind '" << kind << "'\n";
    }
  } else if (cmd == "show") {
    cfg_.save(out);
  } else if (cmd == "validate") {
    const auto errors = cfg_.validate(spec_);
    if (errors.empty()) out << "configuration OK\n";
    for (const auto& e : errors) out << "error: " << e << "\n";
  } else {
    out << "unknown command '" << cmd << "'\n";
  }
  return true;
}

Configuration ConfigMenu::repl(std::istream& in, std::ostream& out) {
  out << "PISCES CONFIGURATION ENVIRONMENT (type 'done' to finish)\n";
  std::string line;
  do {
    out << "config> " << std::flush;
  } while (std::getline(in, line) && apply(line, out));
  return cfg_;
}

}  // namespace pisces::config
