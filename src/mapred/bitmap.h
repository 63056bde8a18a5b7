// Bitmaps over dense indices: the dispatch path's offer sets (tracker
// indices), each job's pending tasks (task indices) and the fair order's
// buckets (job ids).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace hybridmr::mapred {

/// A set of small unsigned integers, one bit each in 64-bit words. It grows
/// to hold what is inserted and never shrinks; next() finds the least
/// member at or after a position with one count-trailing-zeros per word it
/// reads, so a walk in index order costs a word per 64 indices.
class Bitmap {
 public:
  /// What next() returns past the last member.
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// Adds `i` (a no-op when present).
  void insert(std::uint32_t i) {
    const std::size_t w = i >> 6;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    count_ += (words_[w] & bit) == 0 ? 1 : 0;
    words_[w] |= bit;
  }
  /// Removes `i` (a no-op when absent).
  void erase(std::uint32_t i) {
    const std::size_t w = i >> 6;
    if (w >= words_.size()) return;
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    count_ -= (words_[w] & bit) != 0 ? 1 : 0;
    words_[w] &= ~bit;
  }
  [[nodiscard]] bool contains(std::uint32_t i) const {
    const std::size_t w = i >> 6;
    return w < words_.size() && ((words_[w] >> (i & 63)) & 1) != 0;
  }
  /// The least member at or after `pos`, or kNone.
  [[nodiscard]] std::uint32_t next(std::uint32_t pos) const {
    std::size_t w = pos >> 6;
    if (w >= words_.size()) return kNone;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (pos & 63));
    while (bits == 0) {
      if (++w == words_.size()) return kNone;
      bits = words_[w];
    }
    return static_cast<std::uint32_t>(w * 64 +
                                      static_cast<std::size_t>(
                                          std::countr_zero(bits)));
  }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

/// Ids keyed by a small non-negative count, walked in (count, id) order:
/// one Bitmap of ids per count, so re-keying an id moves one bit. The
/// engine keys live job ids by running attempts (the FairScheduler's
/// order, ties in submit order).
class FairOrder {
 public:
  void insert(std::uint32_t id, int count) {
    bucket(count).insert(id);
    ++size_;
  }
  void erase(std::uint32_t id, int count) {
    buckets_[static_cast<std::size_t>(count)].erase(id);
    --size_;
  }
  /// Re-keys `id` from `from` to `to`.
  void move(std::uint32_t id, int from, int to) {
    buckets_[static_cast<std::size_t>(from)].erase(id);
    bucket(to).insert(id);
  }
  [[nodiscard]] bool contains(std::uint32_t id, int count) const {
    return static_cast<std::size_t>(count) < buckets_.size() &&
           buckets_[static_cast<std::size_t>(count)].contains(id);
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Calls `fn(id)` on each member in (count, id) order until it returns a
  /// non-null pointer, and returns that (null when none did). `fn` must not
  /// edit the order.
  template <typename Fn>
  auto find_first(Fn&& fn) const -> decltype(fn(std::uint32_t{})) {
    for (const Bitmap& ids : buckets_) {
      if (ids.empty()) continue;
      for (std::uint32_t id = ids.next(0); id != Bitmap::kNone;
           id = ids.next(id + 1)) {
        if (auto hit = fn(id)) return hit;
      }
    }
    return nullptr;
  }

 private:
  Bitmap& bucket(int count) {
    const auto c = static_cast<std::size_t>(count);
    if (c >= buckets_.size()) buckets_.resize(c + 1);
    return buckets_[c];
  }
  std::vector<Bitmap> buckets_;
  std::size_t size_ = 0;
};

}  // namespace hybridmr::mapred
