#ifndef SBQA_UTIL_SMALL_VEC_H_
#define SBQA_UTIL_SMALL_VEC_H_

/// \file
/// SmallVec<T, N>: a vector whose first N elements live inside the object.
///
/// The per-query state of a mediation is consultation-width data — the kn
/// providers KnBest keeps, their intentions, the q.n instances dispatched —
/// a few dozen values. Storing it inline lets a pooled in-flight slot exist
/// without a single heap allocation of its own, so a pool can be reserved
/// for an admission cap of thousands of queries and cost nothing until a
/// slot is first used. A vector that outgrows N spills to one heap buffer
/// (geometric growth) and keeps it across clear(), so a recycled slot that
/// once held a wide decision (SQLB, the full-scan baselines) reuses its
/// buffer instead of allocating again.
///
/// T must be trivially copyable: elements move with memcpy and are never
/// destroyed. The interface is the std::vector subset the call sites use;
/// a SmallVec is a contiguous sized range, so it converts implicitly to
/// std::span<const T> like a std::vector does.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>

#include "util/check.h"

namespace sbqa::util {

template <typename T, size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec moves elements with memcpy");
  static_assert(N > 0, "use std::vector for a vector without inline storage");

 public:
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;
  SmallVec(const SmallVec& other) { assign(other.begin(), other.end()); }
  SmallVec(SmallVec&& other) noexcept { Steal(&other); }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      Steal(&other);
    }
    return *this;
  }
  ~SmallVec() { FreeHeap(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  /// Whether the elements live in a heap buffer instead of inline.
  bool spilled() const { return data_ != InlineData(); }

  T& operator[](size_t i) {
    SBQA_DCHECK_LT(i, size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    SBQA_DCHECK_LT(i, size_);
    return data_[i];
  }
  T& back() {
    SBQA_DCHECK_GT(size_, 0u);
    return data_[size_ - 1];
  }

  void push_back(const T& value) {
    // Copy first: `value` may alias an element the growth relocates.
    const T copy = value;
    if (size_ == capacity_) Grow(size_ + 1);
    ::new (static_cast<void*>(data_ + size_)) T(copy);
    ++size_;
  }
  void pop_back() {
    SBQA_DCHECK_GT(size_, 0u);
    --size_;
  }
  /// Empties the vector; a spilled vector keeps its heap buffer.
  void clear() { size_ = 0; }

  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }
  /// Shrinks, or grows with value-initialized elements.
  void resize(size_t n) {
    reserve(n);
    for (size_t i = size_; i < n; ++i) {
      ::new (static_cast<void*>(data_ + i)) T();
    }
    size_ = static_cast<uint32_t>(n);
  }

  /// Replaces the contents with [first, last), which must not point into
  /// this vector.
  template <typename It>
  void assign(It first, It last) {
    const size_t n = static_cast<size_t>(std::distance(first, last));
    size_ = 0;
    reserve(n);
    std::uninitialized_copy(first, last, data_);
    size_ = static_cast<uint32_t>(n);
  }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  T* InlineData() { return reinterpret_cast<T*>(inline_); }
  const T* InlineData() const { return reinterpret_cast<const T*>(inline_); }

  /// Moves the elements into a heap buffer of at least `min_capacity`
  /// (doubling, so a vector growing one element at a time reallocates
  /// O(log n) times).
  void Grow(size_t min_capacity) {
    const size_t capacity = std::max<size_t>(min_capacity, 2 * capacity_);
    SBQA_CHECK_LE(capacity, size_t{UINT32_MAX});
    T* heap = std::allocator<T>().allocate(capacity);
    if (size_ > 0) {
      std::memcpy(static_cast<void*>(heap), data_, size_ * sizeof(T));
    }
    FreeHeap();
    data_ = heap;
    capacity_ = static_cast<uint32_t>(capacity);
  }

  void FreeHeap() {
    if (spilled()) std::allocator<T>().deallocate(data_, capacity_);
  }

  /// Takes `other`'s elements (its heap buffer when spilled) and leaves it
  /// empty and inline. This vector's own heap buffer must be freed already.
  void Steal(SmallVec* other) {
    size_ = other->size_;
    if (other->spilled()) {
      data_ = other->data_;
      capacity_ = other->capacity_;
      other->data_ = other->InlineData();
      other->capacity_ = N;
    } else {
      data_ = InlineData();
      capacity_ = N;
      if (size_ > 0) {
        std::memcpy(static_cast<void*>(data_), other->data_,
                    size_ * sizeof(T));
      }
    }
    other->size_ = 0;
  }

  T* data_ = InlineData();
  uint32_t size_ = 0;
  uint32_t capacity_ = N;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace sbqa::util

#endif  // SBQA_UTIL_SMALL_VEC_H_
