#pragma once

#include <iosfwd>
#include <string>

#include "config/configuration.hpp"

namespace pisces::config {

/// The PISCES configuration environment (Sections 9, 11): an interactive,
/// menu/command-driven editor for run configurations. "In creating a
/// configuration on the FLEX/32, the programmer chooses: how many clusters
/// to use and their numbers; the primary FLEX PE for each cluster; the
/// secondary FLEX PEs to run force members; the number of slots."
///
/// Commands, one per line: every menu verb of the option table
/// (config/options.hpp; a verb alone prints its usage), the cluster verbs
/// `cluster`, `primary`, `secondaries`, `place`, `slots` and `terminal`,
/// `topology`, `trace`, `show`, `validate` and `done`.
class ConfigMenu {
 public:
  explicit ConfigMenu(flex::MachineSpec spec = {}) : spec_(std::move(spec)) {}

  /// Start from an existing configuration ("edited as desired for later
  /// runs").
  void edit(Configuration base) { cfg_ = std::move(base); }

  /// Drive the command loop; returns the resulting configuration.
  Configuration repl(std::istream& in, std::ostream& out);

  /// Apply one command line; returns false on "done".
  bool apply(const std::string& line, std::ostream& out);

  [[nodiscard]] const Configuration& current() const { return cfg_; }

 private:
  flex::MachineSpec spec_;
  Configuration cfg_;
};

}  // namespace pisces::config
