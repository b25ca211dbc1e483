#include "fsim/file_store.hpp"

namespace pisces::fsim {

rt::Matrix copy_rect(const rt::Matrix& src, const rt::Rect& r) {
  if (!rect_inside(src, r)) {
    throw std::out_of_range("copy_rect: " + r.str() + " outside " +
                            std::to_string(src.rows()) + "x" +
                            std::to_string(src.cols()));
  }
  rt::Matrix out(r.rows, r.cols);
  for (int i = 0; i < r.rows; ++i) {
    for (int j = 0; j < r.cols; ++j) {
      out.at(i, j) = src.at(r.row0 + i, r.col0 + j);
    }
  }
  return out;
}

void paste_rect(rt::Matrix& dst, const rt::Rect& r, const rt::Matrix& data) {
  if (data.rows() != r.rows || data.cols() != r.cols) {
    throw std::invalid_argument("paste_rect: data shape does not match rect");
  }
  if (!rect_inside(dst, r)) {
    throw std::out_of_range("paste_rect: " + r.str() + " outside " +
                            std::to_string(dst.rows()) + "x" +
                            std::to_string(dst.cols()));
  }
  for (int i = 0; i < r.rows; ++i) {
    for (int j = 0; j < r.cols; ++j) {
      dst.at(r.row0 + i, r.col0 + j) = data.at(i, j);
    }
  }
}

rt::Matrix FileStore::read_rect(const std::string& name, const rt::Rect& r) const {
  return copy_rect(get(name), r);
}

void FileStore::write_rect(const std::string& name, const rt::Rect& r,
                           const rt::Matrix& data) {
  paste_rect(get(name), r, data);
}

}  // namespace pisces::fsim
