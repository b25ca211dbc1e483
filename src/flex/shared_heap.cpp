#include "flex/shared_heap.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace pisces::flex {

std::size_t SharedHeap::size_class(std::size_t size) {
  // Class k holds sizes in [kGranule * 2^k, kGranule * 2^(k+1)). Sizes are
  // always >= kGranule after round_up, so granules >= 1.
  const std::size_t granules = std::max<std::size_t>(size / kGranule, 1);
  const auto k = static_cast<std::size_t>(std::bit_width(granules)) - 1;
  return std::min(k, kSizeClasses - 1);
}

std::optional<std::size_t> SharedHeap::allocate(std::size_t bytes) {
  if (outage_) {
    ++failed_allocations_;
    return std::nullopt;
  }
  const std::size_t need = round_up(std::max<std::size_t>(bytes, 1));
  // The request's own class may hold blocks smaller than `need`; a
  // lower_bound skips them. Every block in a higher class fits, so take its
  // smallest entry (lowest offset on ties) — no scanning.
  for (std::size_t k = size_class(need); k < kSizeClasses; ++k) {
    const Bin& bin = bins_[k];
    auto it = bin.lower_bound({need, 0});
    if (it == bin.end()) continue;
    const auto [size, offset] = *it;
    erase_free(free_blocks_.find(offset));
    const std::size_t remainder = size - need;
    if (remainder > 0) insert_free(offset + need, remainder);
    relink(allocated_, alloc_spares_, {offset, need});
    in_use_ += need;
    peak_in_use_ = std::max(peak_in_use_, in_use_);
    ++total_allocations_;
    return offset;
  }
  ++failed_allocations_;
  return std::nullopt;
}

void SharedHeap::release(std::size_t offset) {
  auto it = allocated_.find(offset);
  if (it == allocated_.end()) {
    throw std::logic_error("SharedHeap::release: unknown block offset " +
                           std::to_string(offset));
  }
  std::size_t start = it->first;
  std::size_t size = it->second;
  alloc_spares_.push_back(allocated_.extract(it));
  in_use_ -= size;

  // Coalesce with the following free block.
  auto next = free_blocks_.lower_bound(start);
  if (next != free_blocks_.end() && start + size == next->first) {
    size += next->second.size;
    next = erase_free(next);
  }
  // Coalesce with the preceding free block.
  if (next != free_blocks_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second.size == start) {
      start = prev->first;
      size += prev->second.size;
      erase_free(prev);
    }
  }
  insert_free(start, size);
}

std::size_t SharedHeap::block_size(std::size_t offset) const {
  auto it = allocated_.find(offset);
  return it == allocated_.end() ? 0 : it->second;
}

std::size_t SharedHeap::largest_free_block() const {
  // The highest non-empty class holds the largest block as its last entry
  // (bins are ordered by size): O(classes), not O(free blocks).
  for (std::size_t k = kSizeClasses; k-- > 0;) {
    const Bin& bin = bins_[k];
    if (!bin.empty()) return std::prev(bin.end())->first;
  }
  return 0;
}

double SharedHeap::fragmentation() const {
  const std::size_t total_free = capacity_ - in_use_;
  if (total_free == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_block()) /
                   static_cast<double>(total_free);
}

}  // namespace pisces::flex
