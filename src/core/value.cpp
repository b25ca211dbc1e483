#include "core/value.hpp"

#include <stdexcept>

namespace pisces::rt {
namespace {

/// The `T` alternative held in `v`; a type error naming `wanted` otherwise.
template <class T>
const T& held(const Value::Storage& v, const char* wanted) {
  if (const auto* p = std::get_if<T>(&v)) return *p;
  throw std::runtime_error(std::string("Value: not a ") + wanted);
}

// Packed sizes of the fixed-size kinds: cluster, slot and a 64-bit unique
// id; a window adds its array id, rectangle and array shape.
constexpr std::size_t kTaskIdBytes = 4 + 4 + 8;
constexpr std::size_t kWindowBytes = kTaskIdBytes + 4 + 4 * 4 + 2 * 4;

}  // namespace

std::int64_t Value::as_int() const { return held<std::int64_t>(v_, "INTEGER"); }
bool Value::as_bool() const { return held<bool>(v_, "LOGICAL"); }
const std::string& Value::as_str() const { return held<std::string>(v_, "CHARACTER"); }
TaskId Value::as_taskid() const { return held<TaskId>(v_, "TASKID"); }
Window Value::as_window() const { return held<Window>(v_, "WINDOW"); }
const std::vector<double>& Value::as_real_array() const {
  return held<std::vector<double>>(v_, "REAL array");
}
const std::vector<std::int64_t>& Value::as_int_array() const {
  return held<std::vector<std::int64_t>>(v_, "INTEGER array");
}
const ValueList& Value::as_list() const {
  return *held<std::shared_ptr<const ValueList>>(v_, "argument list");
}

double Value::as_real() const {
  if (const auto* p = std::get_if<std::int64_t>(&v_)) return static_cast<double>(*p);
  return held<double>(v_, "REAL");
}

std::size_t Value::encoded_size() const {
  return 1 + std::visit(
                 [](const auto& x) -> std::size_t {
                   using T = std::decay_t<decltype(x)>;
                   if constexpr (std::is_same_v<T, std::int64_t> ||
                                 std::is_same_v<T, double>) return 8;
                   if constexpr (std::is_same_v<T, bool>) return 1;
                   if constexpr (std::is_same_v<T, std::string>) return 4 + x.size();
                   if constexpr (std::is_same_v<T, TaskId>) return kTaskIdBytes;
                   if constexpr (std::is_same_v<T, Window>) return kWindowBytes;
                   if constexpr (std::is_same_v<T, std::vector<double>> ||
                                 std::is_same_v<T, std::vector<std::int64_t>>)
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
  if (a.is_list()) return a.as_list() == b.as_list();
  return a.v_ == b.v_;
}

std::size_t encoded_args_size(const std::vector<Value>& args) {
  std::size_t n = 4;
  for (const Value& v : args) n += v.encoded_size();
  return n;
}

}  // namespace pisces::rt
