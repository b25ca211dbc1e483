#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/matrix.hpp"
#include "core/window.hpp"

namespace pisces::fsim {

/// The simulated file system holding large arrays on secondary storage.
/// The NASA FLEX had its disks on the Unix PEs; PISCES file controllers
/// "control access to the files on disks directly accessible from their
/// cluster" (Section 5). A FileStore is the content of one disk: named
/// 2-D REAL arrays. Transfer timing is charged by the owning disk model;
/// the store is pure state.
class FileStore {
 public:
  /// Create (or replace) a named array file.
  void create(const std::string& name, rt::Matrix data) {
    files_[name] = std::move(data);
  }
  void create(const std::string& name, int rows, int cols, double fill = 0.0) {
    files_[name] = rt::Matrix(rows, cols, fill);
  }

  [[nodiscard]] bool exists(const std::string& name) const {
    return files_.count(name) != 0;
  }
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(files_.size());
    for (const auto& [name, m] : files_) out.push_back(name);
    return out;
  }

  [[nodiscard]] const rt::Matrix& get(const std::string& name) const {
    auto it = files_.find(name);
    if (it == files_.end()) throw std::out_of_range("no file array '" + name + "'");
    return it->second;
  }
  [[nodiscard]] rt::Matrix& get(const std::string& name) {
    auto it = files_.find(name);
    if (it == files_.end()) throw std::out_of_range("no file array '" + name + "'");
    return it->second;
  }

  /// Copy out a rectangular section.
  [[nodiscard]] rt::Matrix read_rect(const std::string& name, const rt::Rect& r) const;
  /// Write a rectangular section (shape of `data` must equal `r`).
  void write_rect(const std::string& name, const rt::Rect& r, const rt::Matrix& data);

  [[nodiscard]] std::size_t total_bytes() const {
    std::size_t n = 0;
    for (const auto& [name, m] : files_) n += m.bytes();
    return n;
  }

 private:
  std::map<std::string, rt::Matrix> files_;
};

/// True if `r` is non-empty and lies inside `m`: the bounds check behind
/// copy_rect, paste_rect and both window services.
[[nodiscard]] inline bool rect_inside(const rt::Matrix& m, const rt::Rect& r) {
  return r.valid() && r.row0 + r.rows <= m.rows() && r.col0 + r.cols <= m.cols();
}
/// Copy `r` of `src` into a fresh rect-shaped matrix. Shared by FileStore
/// and the task-array window service.
rt::Matrix copy_rect(const rt::Matrix& src, const rt::Rect& r);
/// Paste `data` (shaped like `r`) into `dst` at `r`.
void paste_rect(rt::Matrix& dst, const rt::Rect& r, const rt::Matrix& data);

}  // namespace pisces::fsim
