#include "config/configuration.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "config/options.hpp"

namespace pisces::config {

constexpr const char* kPlacePolicyNames[] = {"primary", "least-loaded", "round-robin"};

const char* place_policy_name(PlacePolicy p) {
  return kPlacePolicyNames[static_cast<int>(p)];
}

std::optional<PlacePolicy> place_policy_from_name(const std::string& name) {
  const auto p = std::ranges::find(kPlacePolicyNames, name);
  if (p == std::end(kPlacePolicyNames)) return std::nullopt;
  return static_cast<PlacePolicy>(p - kPlacePolicyNames);
}

const ClusterConfig* Configuration::find_cluster(int number) const {
  const auto c = std::ranges::find(clusters, number, &ClusterConfig::number);
  return c == clusters.end() ? nullptr : &*c;
}

std::vector<std::string> Configuration::validate(const flex::MachineSpec& spec) const {
  // Every message is built only when its check fails, so a passing
  // configuration allocates nothing.
  std::vector<std::string> errors;

  if (clusters.empty()) errors.push_back("configuration has no clusters");
  const int max_clusters = spec.pe_count - spec.unix_pe_count;
  if (static_cast<int>(clusters.size()) > max_clusters) {
    errors.push_back("more clusters (" + std::to_string(clusters.size()) + ") than MMOS PEs (" +
                     std::to_string(max_clusters) + ")");
  }

  for (auto c = clusters.begin(); c != clusters.end(); ++c) {
    auto bad = [&errors, &c](const std::string& what) {
      errors.push_back("cluster " + std::to_string(c->number) + ": " + what);
    };
    auto earlier = [&](auto same) { return std::any_of(clusters.begin(), c, same); };
    if (c->number < 0) bad("cluster numbers must be non-negative");
    if (earlier([&c](const ClusterConfig& o) { return o.number == c->number; })) {
      bad("duplicate cluster number");
    }
    if (!spec.is_mmos_pe(c->primary_pe)) {
      bad("primary PE " + std::to_string(c->primary_pe) + " is not an MMOS PE (PEs 1-" +
          std::to_string(spec.unix_pe_count) + " run Unix only)");
    }
    if (earlier([&c](const ClusterConfig& o) { return o.primary_pe == c->primary_pe; })) {
      bad("primary PE " + std::to_string(c->primary_pe) + " already primary for another cluster");
    }
    if (c->slots < 1) bad("needs at least one user slot");
    for (auto pe = c->secondary_pes.begin(); pe != c->secondary_pes.end(); ++pe) {
      auto secondary = [&](const char* what) { bad("secondary PE " + std::to_string(*pe) + what); };
      if (!spec.is_mmos_pe(*pe)) secondary(" is not an MMOS PE");
      if (*pe == c->primary_pe) secondary(" is the cluster's own primary");
      if (std::find(c->secondary_pes.begin(), pe, *pe) != pe) secondary(" listed twice");
    }
  }
  if (!clusters.empty() && std::ranges::none_of(clusters, &ClusterConfig::has_terminal)) {
    errors.push_back("no cluster has a terminal (user controller)");
  }
  if (message_heap_bytes > spec.shared_memory_bytes) {
    errors.push_back("message heap exceeds shared memory");
  }
  for (auto& problem : topology.validate(spec.pe_count)) {
    errors.push_back("topology: " + std::move(problem));
  }
  each_option(*this, [this, &errors](const Option& o, const auto& recs, auto fields) {
    for (const auto& r : records(recs)) check_record(*this, o, r, fields, errors);
  });
  for (auto& problem : faults.validate(spec)) errors.push_back(std::move(problem));
  // Partition windows are cluster-level faults: cross-check the pair
  // against the configured cluster numbers (FaultPlan::validate only sees
  // the machine description).
  for (const auto& p : faults.bus_partitions) {
    for (int c : {p.cluster_a, p.cluster_b}) {
      if (find_cluster(c) == nullptr) {
        errors.push_back("fault-partition names unconfigured cluster " + std::to_string(c));
      }
    }
  }
  return errors;
}

void Configuration::save(std::ostream& os) const {
  os << "pisces-config v1\n";
  each_option(*this, [&os](const Option& o, const auto& recs, auto fields) {
    if (!o.shown) return;
    for (const auto& r : records(recs)) {
      os << o.key;
      fields(r, [&os](const Field&, const auto& v) { put(os << " ", v); });
      os << "\n";
    }
  });
  os << "end\n";
}

Configuration Configuration::load(std::istream& is) {
  Configuration cfg;
  std::string line;
  if (!std::getline(is, line) || line != "pisces-config v1") {
    throw std::runtime_error("Configuration::load: missing 'pisces-config v1' header");
  }
  for (int number = 2; std::getline(is, line); ++number) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    if (key == "end") break;
    bool known = false;
    bool ok = false;
    each_option(cfg, [&](const Option& o, auto& recs, auto fields) {
      if (key != o.key) return;
      auto& r = edit_record(recs);
      known = ok = true;
      fields(r, [&](const Field& f, auto& v) {
        if (ok && !(o.partial && (ls >> std::ws).eof())) ok = read_field(ls, f, v);
      });
      if constexpr (Switched<std::remove_cvref_t<decltype(r)>>) r.enabled = true;
    });
    if (!ok || ls >> line) {
      const std::string why = known ? "malformed '" + key + "' line" : "unknown key '" + key + "'";
      throw std::runtime_error("Configuration::load: line " + std::to_string(number) + ": " + why);
    }
  }
  return cfg;
}

Configuration Configuration::simple(int n_clusters, int slots) {
  Configuration cfg;
  cfg.name = "simple" + std::to_string(n_clusters);
  for (int i = 0; i < n_clusters; ++i) {
    cfg.clusters.push_back(
        {.number = i + 1, .primary_pe = 3 + i, .slots = slots, .has_terminal = i == 0});
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
