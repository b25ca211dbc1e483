#include "config/options.hpp"

#include <cmath>
#include <sstream>

namespace pisces::config {

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
  if (word == "primary") return read(in, c.primary_pe);
  if (word == "slots") return read(in, c.slots);
  if (word == "terminal") return read(in, c.has_terminal);
  const auto p = word == "place" && in >> val ? place_policy_from_name(val) : std::nullopt;
  if (p.has_value()) c.place = *p;
  return p.has_value();
}

bool read(std::istream& in, ClusterConfig& c) {
  std::string word;
  bool ok = read(in, c.number);
  while (ok && in >> word) ok = read_cluster_setting(c, word, in);
  return ok;
}

void put(std::ostream& os, const ClusterConfig& c) {
  os << c.number << " primary " << c.primary_pe << " slots " << c.slots << " terminal "
     << (c.has_terminal ? 1 : 0);
  if (c.place != PlacePolicy::primary) os << " place " << place_policy_name(c.place);
  os << " secondaries";
  for (int pe : c.secondary_pes) os << " " << pe;
}

std::string range_problem(const char* key, const char* group, const Field& f) {
  std::ostringstream msg;
  msg << key << " ";
  if (group != nullptr) msg << group << " ";
  msg << f.name << " must be ";
  if (f.range.bound != nullptr) msg << ">= " << f.range.bound;
  else if (f.range.above) msg << "> " << f.range.lo;
  else if (!std::isinf(f.range.hi)) msg << "in [" << f.range.lo << ", " << f.range.hi << "]";
  else msg << ">= " << f.range.lo;
  return msg.str();
}

// Duplication and loss still compose on one *logical* transfer once
// retransmission is on: each retry is its own draw.
void bus_check(const Configuration& c, Problems& out) {
  const auto& f = c.faults;
  const double sum = f.bus_loss + f.bus_duplication + f.bus_delay_probability;
  if (sum <= 1.0) return;
  std::ostringstream msg;
  msg << "bus fault probabilities must sum to <= 1 because one draw per transfer "
         "picks at most one fault: loss " << f.bus_loss << " + dup " << f.bus_duplication
      << " + delay-prob " << f.bus_delay_probability << " = " << sum;
  out.push_back(msg.str());
}

}  // namespace pisces::config
