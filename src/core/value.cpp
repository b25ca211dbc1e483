#include "core/value.hpp"

#include <stdexcept>

namespace pisces::rt {
namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw std::runtime_error(std::string("Value: not a ") + wanted);
}

// Packed sizes of the fixed-size kinds: cluster, slot and a 64-bit unique
// id; a window adds its array id, rectangle and array shape.
constexpr std::size_t kTaskIdBytes = 4 + 4 + 8;
constexpr std::size_t kWindowBytes = kTaskIdBytes + 4 + 4 * 4 + 2 * 4;

}  // namespace

std::int64_t Value::as_int() const {
  if (const auto* p = std::get_if<std::int64_t>(&v_)) return *p;
  type_error("INTEGER");
}

double Value::as_real() const {
  if (const auto* p = std::get_if<double>(&v_)) return *p;
  if (const auto* p = std::get_if<std::int64_t>(&v_)) return static_cast<double>(*p);
  type_error("REAL");
}

bool Value::as_bool() const {
  if (const auto* p = std::get_if<bool>(&v_)) return *p;
  type_error("LOGICAL");
}

const std::string& Value::as_str() const {
  if (const auto* p = std::get_if<std::string>(&v_)) return *p;
  type_error("CHARACTER");
}

TaskId Value::as_taskid() const {
  if (const auto* p = std::get_if<TaskId>(&v_)) return *p;
  type_error("TASKID");
}

Window Value::as_window() const {
  if (const auto* p = std::get_if<Window>(&v_)) return *p;
  type_error("WINDOW");
}

const std::vector<double>& Value::as_real_array() const {
  if (const auto* p = std::get_if<std::vector<double>>(&v_)) return *p;
  type_error("REAL array");
}

const std::vector<std::int64_t>& Value::as_int_array() const {
  if (const auto* p = std::get_if<std::vector<std::int64_t>>(&v_)) return *p;
  type_error("INTEGER array");
}

const ValueList& Value::as_list() const {
  if (const auto* p = std::get_if<std::shared_ptr<const ValueList>>(&v_)) return **p;
  type_error("argument list");
}

std::size_t Value::encoded_size() const {
  return 1 + std::visit(
                 [](const auto& x) -> std::size_t {
                   using T = std::decay_t<decltype(x)>;
                   if constexpr (std::is_same_v<T, std::int64_t>) return 8;
                   if constexpr (std::is_same_v<T, double>) return 8;
                   if constexpr (std::is_same_v<T, bool>) return 1;
                   if constexpr (std::is_same_v<T, std::string>) return 4 + x.size();
                   if constexpr (std::is_same_v<T, TaskId>) return kTaskIdBytes;
                   if constexpr (std::is_same_v<T, Window>) return kWindowBytes;
                   if constexpr (std::is_same_v<T, std::vector<double>>)
                     return 4 + 8 * x.size();
                   if constexpr (std::is_same_v<T, std::vector<std::int64_t>>)
                     return 4 + 8 * x.size();
                   if constexpr (std::is_same_v<T, std::shared_ptr<const ValueList>>) {
                     std::size_t n = 4;
                     for (const auto& v : *x) n += v.encoded_size();
                     return n;
                   }
                 },
                 v_);
}

std::string Value::str() const {
  return std::visit(
      [](const auto& x) -> std::string {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::int64_t>) return std::to_string(x);
        if constexpr (std::is_same_v<T, double>) return std::to_string(x);
        if constexpr (std::is_same_v<T, bool>) return x ? ".TRUE." : ".FALSE.";
        if constexpr (std::is_same_v<T, std::string>) return "'" + x + "'";
        if constexpr (std::is_same_v<T, TaskId>) return x.str();
        if constexpr (std::is_same_v<T, Window>) return x.str();
        if constexpr (std::is_same_v<T, std::vector<double>>)
          return "real[" + std::to_string(x.size()) + "]";
        if constexpr (std::is_same_v<T, std::vector<std::int64_t>>)
          return "int[" + std::to_string(x.size()) + "]";
        if constexpr (std::is_same_v<T, std::shared_ptr<const ValueList>>)
          return "list[" + std::to_string(x->size()) + "]";
      },
      v_);
}

bool operator==(const Value& a, const Value& b) {
  if (a.v_.index() != b.v_.index()) return false;
  if (a.is_list()) {
    const auto& la = a.as_list();
    const auto& lb = b.as_list();
    return la == lb;
  }
  return a.v_ == b.v_;
}

std::size_t encoded_args_size(const std::vector<Value>& args) {
  std::size_t n = 4;
  for (const Value& v : args) n += v.encoded_size();
  return n;
}

}  // namespace pisces::rt
