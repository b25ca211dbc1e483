#pragma once

#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "config/configuration.hpp"

namespace pisces::config {

// The option table states each setting once — file key, menu verb, fields
// and their ranges, when it is saved, usage text — and Configuration::save,
// load and validate and ConfigMenu::apply loop over it. `cluster`,
// `topology` and `trace` keep hand-written grammars (`save`/`load` hooks
// here, their verbs in menu.cpp).

/// Allowed values of a numeric field: [lo, hi], or (lo, hi] when `above`.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool above = false;

  [[nodiscard]] bool holds(double v) const { return (above ? v > lo : v >= lo) && v <= hi; }
};

/// A field's token grammar. Reals are saved with max_digits10 so they
/// round-trip bit-exactly; flags read 1|0|on|off and save as 1|0; text is
/// the rest of the line, trimmed.
enum class Kind { integer, natural, real, flag, word, text };

/// One value on a saved line and in the menu command that sets it. `rec`
/// is a record that the owning Option's `records` yield.
struct Field {
  const char* name;  ///< `<name>` in usage text; labels range errors
  Kind kind;
  Range range;
  const char* sub;   ///< menu sub-verb of the group starting here, or null
  bool (*read)(void* rec, std::istream& in);  ///< false: missing or malformed
  void (*write)(const void* rec, std::ostream& out);
  double (*number)(const void* rec);  ///< null when there is no range to check
};

/// Where an option's values live: one record, or each element of a list.
struct Records {
  std::size_t (*count)(const Configuration&);
  const void* (*get)(const Configuration&, std::size_t i);
  void* (*edit)(Configuration&);  ///< the record, or a new list element
};

/// A section's on/off switch: loading its line turns it on, the menu adds
/// `on` and `off` sub-verbs, and the line is saved only while it is on.
struct Switch {
  bool (*on)(const void* rec);
  void (*set)(void* rec, bool on);
};

using Problems = std::vector<std::string>;

struct Option {
  const char* key;             ///< file key
  /// Menu verb; null: the key; "": none. Options that share a verb are a
  /// family (`fault-halt` is `fault halt`): a member's sub-verb is its key
  /// after the "<verb>-" prefix.
  const char* verb = nullptr;
  Records records{};
  std::vector<Field> fields{};
  /// Saved only when this holds (null: always), so default files omit it.
  bool (*shown)(const Configuration&) = nullptr;
  Switch enabled{};
  /// A check across the fields of one record.
  void (*check)(const void* rec, const char* key, Problems& out) = nullptr;
  void (*clear)(Configuration&) = nullptr;  ///< the family's `clear` sub-verb
  const char* note = nullptr;               ///< printed under the usage line
  /// A hand-written grammar in place of `fields`.
  void (*save)(const Configuration&, std::ostream&) = nullptr;
  bool (*load)(Configuration&, std::istream&) = nullptr;
};

/// Every option, in saved-file order.
[[nodiscard]] const std::vector<Option>& options();

/// Read one setting of a saved `cluster` line into `c`: `primary <pe>`,
/// `slots <n>`, `terminal 0|1`, `place <policy>` or `secondaries
/// <pe|lo-hi>...` (the rest of the line). The menu's cluster verbs take the
/// same values after the cluster number.
bool read_cluster_setting(ClusterConfig& c, const std::string& word, std::istream& in);

/// Append the range problems and the `check` problems of one record.
void check_record(const Option& o, const void* rec, Problems& out);

}  // namespace pisces::config
