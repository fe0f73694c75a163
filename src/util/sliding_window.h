#ifndef SBQA_UTIL_SLIDING_WINDOW_H_
#define SBQA_UTIL_SLIDING_WINDOW_H_

/// \file
/// Fixed-capacity sliding window (ring buffer) over the most recent
/// observations. This is the "k last interactions" memory that the SbQA
/// satisfaction model (Definitions 1 and 2 of the paper) is built on.

#include <cstddef>
#include <vector>

#include "util/check.h"

namespace sbqa::util {

/// Keeps the `capacity` most recent elements in insertion order.
/// Pushing into a full window evicts the oldest element.
template <typename T>
class SlidingWindow {
 public:
  /// Requires capacity >= 1.
  explicit SlidingWindow(size_t capacity)
      : capacity_(capacity), head_(0), size_(0) {
    SBQA_CHECK_GE(capacity, 1u);
    items_.resize(capacity);
  }

  /// Appends `item`, evicting the oldest element when full.
  void Push(T item) {
    items_[Wrap(head_ + size_)] = std::move(item);
    if (size_ < capacity_) {
      ++size_;
    } else {
      head_ = Wrap(head_ + 1);
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  /// Element `i` in age order: 0 = oldest retained, size()-1 = newest.
  const T& operator[](size_t i) const {
    SBQA_DCHECK_LT(i, size_);
    return items_[Wrap(head_ + i)];
  }

  /// Most recent element; window must be non-empty.
  const T& newest() const {
    SBQA_CHECK(!empty());
    return (*this)[size_ - 1];
  }

  /// Oldest retained element; window must be non-empty.
  const T& oldest() const {
    SBQA_CHECK(!empty());
    return (*this)[0];
  }

  void Clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Copies the retained elements oldest-first.
  std::vector<T> ToVector() const {
    std::vector<T> out;
    out.reserve(size_);
    for (size_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
    return out;
  }

 private:
  /// Maps a ring position in [0, 2 * capacity) onto the storage by one
  /// compare: head_ < capacity and every offset added to it is at most
  /// capacity, so no position needs a division.
  size_t Wrap(size_t i) const { return i < capacity_ ? i : i - capacity_; }

  size_t capacity_;
  size_t head_;
  size_t size_;
  std::vector<T> items_;
};

/// Sliding window over doubles that additionally maintains the running sum,
/// giving O(1) windowed means. This is the workhorse behind the long-run
/// satisfaction values.
class WindowedMean {
 public:
  explicit WindowedMean(size_t capacity) : window_(capacity) {}

  void Push(double x) {
    if (window_.full()) sum_ -= window_.oldest();
    window_.Push(x);
    sum_ += x;
  }

  size_t size() const { return window_.size(); }
  size_t capacity() const { return window_.capacity(); }
  bool empty() const { return window_.empty(); }
  bool full() const { return window_.full(); }

  /// Mean of retained observations; `empty_value` when none.
  double Mean(double empty_value = 0.0) const {
    if (window_.empty()) return empty_value;
    return sum_ / static_cast<double>(window_.size());
  }

  /// Sum of retained observations (lets several windows merge into one
  /// weighted mean without re-walking their contents).
  double Sum() const { return sum_; }

  void Clear() {
    window_.Clear();
    sum_ = 0;
  }

  const SlidingWindow<double>& window() const { return window_; }

 private:
  SlidingWindow<double> window_;
  double sum_ = 0;
};

}  // namespace sbqa::util

#endif  // SBQA_UTIL_SLIDING_WINDOW_H_
