#ifndef SBQA_UTIL_EVENT_HEAP_H_
#define SBQA_UTIL_EVENT_HEAP_H_

/// \file
/// EventHeap: a 4-ary min-heap over ladder-queue entries, kept as the
/// reference structure the ladder queue is held to. It pops the identical
/// strict (when, key) sequence at O(log n) per operation, at roughly half
/// a binary heap's sift depth. No engine runs on it: the timer core always
/// orders its events with util::LadderQueue. Include this header from
/// tests and benches only — the differential suite replays its fuzzed
/// traces against it, and `bench_event_engine`'s raw-structure depth sweep
/// measures the ladder against it.

#include <cstddef>
#include <vector>

#include "util/ladder_queue.h"

namespace sbqa::util {

class EventHeap {
 public:
  using Entry = LadderQueue::Entry;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  void reserve(size_t n) { entries_.reserve(n); }
  const Entry& top() const { return entries_.front(); }

  void push(Entry entry) {
    size_t i = entries_.size();
    entries_.push_back(entry);
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!LadderQueue::Before(entry, entries_[parent])) break;
      entries_[i] = entries_[parent];
      i = parent;
    }
    entries_[i] = entry;
  }

  void pop() {
    const Entry last = entries_.back();
    entries_.pop_back();
    const size_t n = entries_.size();
    if (n == 0) return;
    size_t i = 0;
    while (true) {
      const size_t first_child = i * 4 + 1;
      if (first_child >= n) break;
      size_t best = first_child;
      const size_t end = first_child + 4 < n ? first_child + 4 : n;
      for (size_t c = first_child + 1; c < end; ++c) {
        if (LadderQueue::Before(entries_[c], entries_[best])) best = c;
      }
      if (!LadderQueue::Before(entries_[best], last)) break;
      entries_[i] = entries_[best];
      i = best;
    }
    entries_[i] = last;
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace sbqa::util

#endif  // SBQA_UTIL_EVENT_HEAP_H_
