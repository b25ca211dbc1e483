#include "config/menu.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "config/options.hpp"

namespace pisces::config {

namespace {

/// The fields [first, last) of one option that a menu command sets
/// together, under sub-verb `sub` (null when the verb takes none).
struct Group {
  const Option* option;
  std::size_t first;
  std::size_t last;
  const char* sub;
};

/// The groups behind `verb`: a run of fields from one sub-verb to the
/// next, or a family member's whole line.
std::vector<Group> groups_of(const std::string& verb) {
  std::vector<Group> groups;
  for (const Option& o : options()) {
    if (verb != (o.verb != nullptr ? o.verb : o.key)) continue;
    for (std::size_t i = 0; i < o.fields.size(); ++i) {
      if (i == 0 || o.fields[i].sub != nullptr) {
        groups.push_back({&o, i, i + 1, o.fields[i].sub});
      } else {
        ++groups.back().last;
      }
    }
  }
  if (!groups.empty() && groups.front().option != groups.back().option) {
    for (Group& g : groups) g.sub = g.option->key + verb.size() + 1;
  }
  return groups;
}

void print_usage(const std::string& verb, const Group& g, std::ostream& out) {
  out << "usage: " << verb;
  if (g.sub != nullptr) out << " " << g.sub;
  for (std::size_t i = g.first; i < g.last; ++i) {
    const Field& f = g.option->fields[i];
    if (f.kind == Kind::flag) out << " on|off";
    else out << " <" << f.name << ">";
  }
  out << "\n";
  if (g.option->note != nullptr) out << g.option->note << "\n";
}

/// Apply a command to a table option, all or nothing; false when no
/// option has the verb.
bool apply_option(Configuration& cfg, const std::string& verb, std::istream& is,
                  std::ostream& out) {
  const auto groups = groups_of(verb);
  if (groups.empty()) return false;
  const Option& head = *groups.front().option;
  auto g = groups.begin();
  std::string sub;
  if (g->sub != nullptr && !(is >> sub)) {
    out << "usage: " << verb << " " << (head.enabled.set != nullptr ? "on|off|" : "");
    for (const Group& x : groups) out << x.sub << (&x != &groups.back() ? "|" : "");
    out << (head.clear != nullptr ? "|clear" : "") << " ...\n";
    return true;
  }
  if (head.enabled.set != nullptr && (sub == "on" || sub == "off")) {
    head.enabled.set(head.records.edit(cfg), sub == "on");
    return true;
  }
  if (head.clear != nullptr && sub == "clear") {
    head.clear(cfg);
    return true;
  }
  if (g->sub != nullptr) {
    g = std::find_if(groups.begin(), groups.end(), [&](const Group& x) { return sub == x.sub; });
    if (g == groups.end()) {
      out << "unknown " << verb << " subcommand '" << sub << "'\n";
      return true;
    }
  }
  Configuration next = cfg;
  void* rec = g->option->records.edit(next);
  bool ok = true;
  for (std::size_t i = g->first; ok && i < g->last; ++i) {
    ok = g->option->fields[i].read(rec, is);
  }
  if (ok && !(is >> sub)) {
    Problems problems;
    check_record(*g->option, rec, problems);
    for (const auto& p : problems) out << "error: " << p << "\n";
    if (problems.empty()) {
      cfg = std::move(next);
      return true;
    }
  }
  print_usage(verb, *g, out);
  return true;
}

}  // namespace

ClusterConfig* ConfigMenu::find_or_add(int number, std::ostream& out) {
  for (auto& c : cfg_.clusters) {
    if (c.number == number) return &c;
  }
  if (number < 0) {
    out << "cluster numbers must be non-negative\n";
    return nullptr;
  }
  ClusterConfig c;
  c.number = number;
  c.primary_pe = spec_.first_mmos_pe() + static_cast<int>(cfg_.clusters.size());
  cfg_.clusters.push_back(c);
  return &cfg_.clusters.back();
}

bool ConfigMenu::apply(const std::string& line, std::ostream& out) {
  std::istringstream is(line);
  std::string cmd;
  if (!(is >> cmd)) return true;
  if (cmd == "done") return false;

  if (apply_option(cfg_, cmd, is, out)) return true;
  // The cluster verbs that set one value, with its usage text.
  static const std::map<std::string, const char*> kClusterValues{
      {"primary", "<pe>"},
      {"secondaries", "<pe|lo-hi>..."},
      {"place", "<primary|least-loaded|round-robin>"},
      {"slots", "<count>"}};
  if (cmd == "cluster") {
    int n = 0;
    if (is >> n) find_or_add(n, out);
    else out << "usage: cluster <n>\n";
  } else if (const auto v = kClusterValues.find(cmd); v != kClusterValues.end()) {
    // `<verb> <cluster> <value>`, the value read as on a saved cluster line.
    const Configuration before = cfg_;
    int n = 0;
    const bool numbered = bool(is >> n);
    ClusterConfig* c = numbered ? find_or_add(n, out) : nullptr;
    const bool found = c != nullptr;  // else find_or_add explained why
    std::string value;
    std::getline(is >> std::ws, value);
    std::istringstream vs(value);
    const bool read = found && read_cluster_setting(*c, cmd, vs);
    std::string extra;
    if (!read || vs >> extra) {
      cfg_ = before;
      if (cmd == "place" && found && !read && !value.empty()) {
        out << "unknown placement policy '" << value.substr(0, value.find(' '))
            << "' (use primary, least-loaded, round-robin)\n";
      } else if (found || !numbered) {
        out << "usage: " << cmd << " <cluster> " << v->second << "\n";
      }
    }
  } else if (cmd == "terminal") {
    int n = 0;
    if (is >> n) {
      for (auto& c : cfg_.clusters) c.has_terminal = false;
      if (auto* c = find_or_add(n, out)) c->has_terminal = true;
    } else {
      out << "usage: terminal <cluster>\n";
    }
  } else if (cmd == "topology") {
    std::string kind;
    if (!(is >> kind)) {
      out << "usage: topology <shared|hier|numa> [pes-per-cluster <n>] "
             "[backbone-access <t>] [backbone-per-word <t>] "
             "[hop-per-word <t>]\n";
    } else {
      auto t = flex::topology_from_name(kind);
      if (!t.has_value()) {
        out << "unknown topology '" << kind << "' (use shared, hier, numa)\n";
      } else {
        auto next = cfg_.topology;
        next.kind = *t;
        std::string opt;
        bool ok = true;
        while (ok && is >> opt) {
          if (opt == "pes-per-cluster") ok = bool(is >> next.pes_per_cluster);
          else if (opt == "backbone-access") ok = bool(is >> next.backbone_access);
          else if (opt == "backbone-per-word") ok = bool(is >> next.backbone_per_word);
          else if (opt == "hop-per-word") ok = bool(is >> next.numa_hop_per_word);
          else {
            out << "unknown topology option '" << opt << "'\n";
            ok = false;
          }
        }
        if (ok) {
          auto problems = next.validate(spec_.pe_count);
          if (problems.empty()) {
            cfg_.topology = next;
          } else {
            for (const auto& p : problems) out << "error: " << p << "\n";
          }
        }
      }
    }
  } else if (cmd == "trace") {
    std::string kind;
    std::string setting;
    if (is >> kind >> setting) {
      bool found = false;
      for (int k = 0; k < trace::kEventKindCount; ++k) {
        const auto ek = static_cast<trace::EventKind>(k);
        if (trace::kind_name(ek) == kind) {
          cfg_.trace.set(ek, setting == "on");
          found = true;
        }
      }
      if (!found) out << "unknown event kind '" << kind << "'\n";
    } else {
      out << "usage: trace <kind> on|off\n";
    }
  } else if (cmd == "show") {
    cfg_.save(out);
  } else if (cmd == "validate") {
    auto errors = cfg_.validate(spec_);
    if (errors.empty()) {
      out << "configuration OK\n";
    } else {
      for (const auto& e : errors) out << "error: " << e << "\n";
    }
  } else {
    out << "unknown command '" << cmd << "'\n";
  }
  return true;
}

Configuration ConfigMenu::repl(std::istream& in, std::ostream& out) {
  out << "PISCES CONFIGURATION ENVIRONMENT (type 'done' to finish)\n";
  std::string line;
  while (true) {
    out << "config> " << std::flush;
    if (!std::getline(in, line)) break;
    if (!apply(line, out)) break;
  }
  return cfg_;
}

}  // namespace pisces::config
