#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <list>
#include <string>
#include <vector>

#include "core/message.hpp"

namespace pisces::rt {

/// A task's in-queue with a per-type index (the paper's task record keeps
/// "pointers to the task's in-queue" in the shared system tables; this is
/// the same idea extended with one arrival-ordered bucket per message type).
///
/// Messages live in an arrival-ordered std::list so iterators stay valid
/// across unrelated erases; the index maps each message type to the
/// arrival-ordered list positions of its messages. ACCEPT can therefore
/// find the next message of a wanted type without rescanning the whole
/// queue on every wake.
///
/// Nothing is allocated per message in steady state. A taken message's list
/// node is spliced onto a spare list and reused by the next push. The index
/// is a small flat table with one bucket per type; a bucket keeps its
/// storage when it empties and is reused for the next new type, and the
/// consumed prefix of a bucket is compacted away, so the table stays as
/// large as the most messages and types the queue has held at once.
class MessageQueue {
 public:
  using List = std::list<Message>;
  using iterator = List::iterator;
  using const_iterator = List::const_iterator;

  [[nodiscard]] bool empty() const { return list_.empty(); }
  [[nodiscard]] std::size_t size() const { return list_.size(); }
  [[nodiscard]] const_iterator begin() const { return list_.begin(); }
  [[nodiscard]] const_iterator end() const { return list_.end(); }
  [[nodiscard]] iterator begin() { return list_.begin(); }
  [[nodiscard]] iterator end() { return list_.end(); }
  [[nodiscard]] const Message& front() const { return list_.front(); }

  void push_back(Message m) {
    if (spare_.empty()) {
      list_.push_back(std::move(m));
    } else {
      list_.splice(list_.end(), spare_, spare_.begin());
      list_.back() = std::move(m);
    }
    const iterator pos = std::prev(list_.end());
    bucket_for(pos->type).positions.push_back(pos);
  }

  /// Messages of `type` currently queued.
  [[nodiscard]] std::size_t count(const std::string& type) const {
    const std::size_t i = index_of(type);
    return i == buckets_.size() ? 0 : buckets_[i].live();
  }

  /// Earliest-arrived message of `type`, or end() if none is queued.
  [[nodiscard]] iterator first_of(const std::string& type) {
    const std::size_t i = index_of(type);
    return i == buckets_.size() ? list_.end()
                                : buckets_[i].positions[buckets_[i].head];
  }

  /// Remove and return the earliest message (queue must be non-empty).
  Message pop_front() { return take(list_.begin()); }

  /// Remove and return the message at `it` (must be valid).
  Message take(iterator it) {
    unlink(it);
    Message m = std::move(*it);
    spare_.splice(spare_.end(), list_, it);
    return m;
  }

  /// Remove the message at `it`; returns the next position (for erase
  /// loops, e.g. DELETE MESSAGES).
  iterator erase(iterator it) {
    unlink(it);
    return list_.erase(it);
  }

  /// Drop every message and release the queue's storage.
  void clear() {
    list_.clear();
    spare_.clear();
    buckets_.clear();
  }

 private:
  /// Arrival-ordered positions of one type's messages. Entries before
  /// `head` were consumed; the bucket is empty when head reaches the end.
  struct Bucket {
    std::string type;
    std::vector<iterator> positions;
    std::size_t head = 0;

    [[nodiscard]] std::size_t live() const { return positions.size() - head; }
  };

  /// Index of the live bucket of `type`, or buckets_.size() if none.
  [[nodiscard]] std::size_t index_of(const std::string& type) const {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i].live() != 0 && buckets_[i].type == type) return i;
    }
    return buckets_.size();
  }

  /// The live bucket of `type`, else an emptied bucket renamed to it, else
  /// a new one.
  Bucket& bucket_for(const std::string& type) {
    Bucket* idle = nullptr;
    for (Bucket& b : buckets_) {
      if (b.live() == 0) {
        if (idle == nullptr) idle = &b;
      } else if (b.type == type) {
        return b;
      }
    }
    if (idle == nullptr) idle = &buckets_.emplace_back();
    idle->type = type;
    return *idle;
  }

  void unlink(iterator it) {
    Bucket& b = buckets_[index_of(it->type)];
    // Almost always the bucket front (ACCEPT and pop_front take the
    // earliest of a type); the fallback handles mid-bucket deletes.
    if (b.positions[b.head] == it) {
      ++b.head;
    } else {
      b.positions.erase(
          std::find(b.positions.begin() + static_cast<std::ptrdiff_t>(b.head),
                    b.positions.end(), it));
    }
    // Compact the consumed prefix once it is at least half the bucket:
    // each surviving entry moves at most once per halving, and the
    // vector's capacity is kept for the next messages.
    if (b.head * 2 >= b.positions.size()) {
      b.positions.erase(b.positions.begin(),
                        b.positions.begin() + static_cast<std::ptrdiff_t>(b.head));
      b.head = 0;
    }
  }

  List list_;                    ///< arrival order
  List spare_;                   ///< recycled nodes of taken messages
  std::vector<Bucket> buckets_;  ///< per-type index, at most one live bucket per type
};

}  // namespace pisces::rt
