#include "config/configuration.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>

#include "config/options.hpp"

namespace pisces::config {

const char* place_policy_name(PlacePolicy p) {
  switch (p) {
    case PlacePolicy::primary: return "primary";
    case PlacePolicy::least_loaded: return "least-loaded";
    case PlacePolicy::round_robin: return "round-robin";
  }
  return "?";
}

std::optional<PlacePolicy> place_policy_from_name(const std::string& name) {
  for (PlacePolicy p : {PlacePolicy::primary, PlacePolicy::least_loaded,
                        PlacePolicy::round_robin}) {
    if (name == place_policy_name(p)) return p;
  }
  return std::nullopt;
}

const ClusterConfig* Configuration::find_cluster(int number) const {
  for (const auto& c : clusters) {
    if (c.number == number) return &c;
  }
  return nullptr;
}

std::vector<std::string> Configuration::validate(const flex::MachineSpec& spec) const {
  std::vector<std::string> errors;
  auto err = [&errors](std::string msg) { errors.push_back(std::move(msg)); };

  if (clusters.empty()) err("configuration has no clusters");
  const int max_clusters = spec.pe_count - spec.unix_pe_count;
  if (static_cast<int>(clusters.size()) > max_clusters) {
    err("more clusters (" + std::to_string(clusters.size()) + ") than MMOS PEs (" +
        std::to_string(max_clusters) + ")");
  }

  auto is_mmos = [&spec](int pe) {
    return pe > spec.unix_pe_count && pe <= spec.pe_count;
  };

  std::set<int> numbers;
  std::set<int> primaries;
  int terminals = 0;
  for (const auto& c : clusters) {
    const std::string tag = "cluster " + std::to_string(c.number) + ": ";
    if (c.number < 0) err(tag + "cluster numbers must be non-negative");
    if (!numbers.insert(c.number).second) err(tag + "duplicate cluster number");
    if (!is_mmos(c.primary_pe)) {
      err(tag + "primary PE " + std::to_string(c.primary_pe) +
          " is not an MMOS PE (PEs 1-" + std::to_string(spec.unix_pe_count) +
          " run Unix only)");
    }
    if (!primaries.insert(c.primary_pe).second) {
      err(tag + "primary PE " + std::to_string(c.primary_pe) +
          " already primary for another cluster");
    }
    if (c.slots < 1) err(tag + "needs at least one user slot");
    std::set<int> secs;
    for (int pe : c.secondary_pes) {
      if (!is_mmos(pe)) {
        err(tag + "secondary PE " + std::to_string(pe) + " is not an MMOS PE");
      }
      if (pe == c.primary_pe) {
        err(tag + "secondary PE " + std::to_string(pe) +
            " is the cluster's own primary");
      }
      if (!secs.insert(pe).second) {
        err(tag + "secondary PE " + std::to_string(pe) + " listed twice");
      }
    }
    if (c.has_terminal) ++terminals;
  }
  if (!clusters.empty() && terminals == 0) {
    err("no cluster has a terminal (user controller)");
  }
  if (message_heap_bytes > spec.shared_memory_bytes) {
    err("message heap exceeds shared memory");
  }
  for (auto& problem : topology.validate(spec.pe_count)) {
    errors.push_back("topology: " + std::move(problem));
  }
  for (const Option& o : options()) {
    if (o.records.count == nullptr) continue;
    for (std::size_t i = 0, n = o.records.count(*this); i < n; ++i) {
      check_record(o, o.records.get(*this, i), errors);
    }
  }
  for (auto& problem : faults.validate(spec)) errors.push_back(std::move(problem));
  // Partition windows are cluster-level faults: cross-check the pair
  // against the configured cluster numbers (FaultPlan::validate only sees
  // the machine description).
  for (const auto& p : faults.bus_partitions) {
    for (int c : {p.cluster_a, p.cluster_b}) {
      if (find_cluster(c) == nullptr) {
        err("fault-partition names unconfigured cluster " + std::to_string(c));
      }
    }
  }
  return errors;
}

void Configuration::save(std::ostream& os) const {
  os << "pisces-config v1\n";
  for (const Option& o : options()) {
    if (o.save != nullptr) {
      o.save(*this, os);
      continue;
    }
    if (o.shown != nullptr && !o.shown(*this)) continue;
    for (std::size_t i = 0; i < o.records.count(*this); ++i) {
      const void* rec = o.records.get(*this, i);
      if (o.enabled.on != nullptr && !o.enabled.on(rec)) continue;
      os << o.key;
      for (const Field& f : o.fields) {
        os << " ";
        f.write(rec, os);
      }
      os << "\n";
    }
  }
  os << "end\n";
}

Configuration Configuration::load(std::istream& is) {
  Configuration cfg;
  cfg.clusters.clear();
  std::string line;
  if (!std::getline(is, line) || line != "pisces-config v1") {
    throw std::runtime_error("Configuration::load: missing 'pisces-config v1' header");
  }
  const auto& table = options();
  for (int number = 2; std::getline(is, line); ++number) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    if (key == "end") break;
    const auto o = std::find_if(table.begin(), table.end(),
                                [&key](const Option& x) { return key == x.key; });
    bool ok = o != table.end();
    if (ok && o->load != nullptr) {
      ok = o->load(cfg, ls);
    } else if (ok) {
      void* rec = o->records.edit(cfg);
      for (auto f = o->fields.begin(); ok && f != o->fields.end(); ++f) ok = f->read(rec, ls);
      if (o->enabled.set != nullptr) o->enabled.set(rec, true);
    }
    if (!ok || ls >> line) {
      const std::string why = o == table.end() ? "unknown key '" + key + "'"
                                               : "malformed '" + key + "' line";
      throw std::runtime_error("Configuration::load: line " + std::to_string(number) + ": " + why);
    }
  }
  return cfg;
}

Configuration Configuration::simple(int n_clusters, int slots) {
  Configuration cfg;
  cfg.name = "simple" + std::to_string(n_clusters);
  for (int i = 0; i < n_clusters; ++i) {
    ClusterConfig c;
    c.number = i + 1;
    c.primary_pe = 3 + i;
    c.slots = slots;
    c.has_terminal = (i == 0);
    cfg.clusters.push_back(std::move(c));
  }
  return cfg;
}

Configuration Configuration::section9_example() {
  Configuration cfg = simple(4, 4);
  cfg.name = "section9";
  // "Use PE's 7-15 to run forces for both clusters 3 and 4."
  for (int pe = 7; pe <= 15; ++pe) {
    cfg.clusters[2].secondary_pes.push_back(pe);
    cfg.clusters[3].secondary_pes.push_back(pe);
  }
  // "Use PE's 16-20 to run forces for cluster 2."
  for (int pe = 16; pe <= 20; ++pe) {
    cfg.clusters[1].secondary_pes.push_back(pe);
  }
  // "Allocate no secondary PE's to run forces for cluster 1."
  return cfg;
}

}  // namespace pisces::config
