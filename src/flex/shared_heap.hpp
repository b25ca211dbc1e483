#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace pisces::flex {

/// The message-passing area of shared memory (paper Section 11): "a heap
/// with explicit allocation/deallocation as messages are sent and accepted."
///
/// Allocation is best fit: free blocks are indexed by (size, offset), so
/// one lower_bound finds the smallest fitting block (lowest offset on ties)
/// in O(log free blocks) instead of a first-fit walk of the whole free
/// list, and the index's last entry is the largest free block. The
/// address-ordered map of free blocks is kept alongside the index so
/// adjacent free blocks still coalesce on release. Offsets model
/// shared-memory addresses; the heap tracks live/peak usage so the Section
/// 13 storage experiment can show that message storage is dynamically
/// recovered and reused.
///
/// The bookkeeping nodes are recycled: a node unlinked from the size index,
/// the free map or the allocated map is kept (as a C++17 node handle) in a
/// spare stash and relinked on the next insert, so once the heap has seen
/// its peak block count no allocate() or release() calls the host
/// allocator.
class SharedHeap {
 public:
  explicit SharedHeap(std::size_t capacity) : capacity_(capacity) {
    if (capacity > 0) insert_free(0, capacity);
  }

  /// Allocate `bytes` (rounded up to the 8-byte allocation granule).
  /// Returns the block offset, or nullopt when no free block fits (or an
  /// injected outage is active).
  std::optional<std::size_t> allocate(std::size_t bytes);

  /// Fault injection: while an outage is active every allocate() fails (and
  /// counts as a failed allocation); releases still succeed, so storage
  /// drains but cannot grow.
  void set_outage(bool on) { outage_ = on; }
  [[nodiscard]] bool outage() const { return outage_; }

  /// Release a block previously returned by allocate(). The offset must be
  /// exact; releasing an unknown offset throws std::logic_error.
  void release(std::size_t offset);

  /// Size in bytes of the live block at `offset` (0 if unknown).
  [[nodiscard]] std::size_t block_size(std::size_t offset) const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  [[nodiscard]] std::size_t peak_in_use() const { return peak_in_use_; }
  [[nodiscard]] std::size_t live_blocks() const { return allocated_.size(); }
  [[nodiscard]] std::size_t free_block_count() const { return free_blocks_.size(); }
  [[nodiscard]] std::size_t largest_free_block() const;
  [[nodiscard]] std::uint64_t total_allocations() const { return total_allocations_; }
  [[nodiscard]] std::uint64_t failed_allocations() const { return failed_allocations_; }

  /// External fragmentation: 1 - largest_free / total_free (0 when empty).
  [[nodiscard]] double fragmentation() const;

  static constexpr std::size_t kGranule = 8;
  static std::size_t round_up(std::size_t bytes) {
    return (bytes + kGranule - 1) / kGranule * kGranule;
  }

 private:
  /// Free blocks ordered by (size, offset), so a lower_bound on size
  /// yields the smallest fitting block deterministically.
  using SizeIndex = std::set<std::pair<std::size_t, std::size_t>>;

  /// Value of the address-ordered free map: the block size plus a handle
  /// into the size index, so unlinking never re-searches it.
  struct FreeEntry {
    std::size_t size = 0;
    SizeIndex::iterator by_size_it;
  };
  using FreeMap = std::map<std::size_t, FreeEntry>;

  using AllocMap = std::map<std::size_t, std::size_t>;

  /// Insert `v`, relinking a stashed spare node when there is one instead
  /// of allocating a fresh node.
  template <class Container>
  static typename Container::iterator relink(
      Container& c, std::vector<typename Container::node_type>& spares,
      typename Container::value_type v) {
    if (spares.empty()) return c.insert(std::move(v)).first;
    auto node = std::move(spares.back());
    spares.pop_back();
    if constexpr (requires { node.key(); }) {
      node.key() = v.first;
      node.mapped() = v.second;
    } else {
      node.value() = v;
    }
    return c.insert(std::move(node)).position;
  }

  void insert_free(std::size_t offset, std::size_t size) {
    auto by_size_it = relink(by_size_, size_spares_, {size, offset});
    relink(free_blocks_, free_spares_, {offset, FreeEntry{size, by_size_it}});
  }
  FreeMap::iterator erase_free(FreeMap::iterator it) {
    size_spares_.push_back(by_size_.extract(it->second.by_size_it));
    auto next = std::next(it);
    free_spares_.push_back(free_blocks_.extract(it));
    return next;
  }

  std::size_t capacity_;
  FreeMap free_blocks_;                             ///< offset -> entry (address order)
  SizeIndex by_size_;                               ///< (size, offset) of each free block
  AllocMap allocated_;                              ///< offset -> size
  // Unlinked nodes kept for reuse (see the class comment).
  std::vector<SizeIndex::node_type> size_spares_;
  std::vector<FreeMap::node_type> free_spares_;
  std::vector<AllocMap::node_type> alloc_spares_;
  bool outage_ = false;
  std::size_t in_use_ = 0;
  std::size_t peak_in_use_ = 0;
  std::uint64_t total_allocations_ = 0;
  std::uint64_t failed_allocations_ = 0;
};

}  // namespace pisces::flex
