#include "util/ladder_queue.h"

#include <algorithm>

#include "util/check.h"

namespace sbqa::util {

namespace {

/// Descending (when, key): sorting Bottom with it puts the minimum at
/// back(), where PopFront can pop_back it.
bool After(const LadderQueue::Entry& a, const LadderQueue::Entry& b) {
  return LadderQueue::Before(b, a);
}

/// Geometric growth for the assign() paths: assign alone reserves exactly
/// the element count, so a workload whose batch size creeps up by one
/// would reallocate on every creep instead of settling under a doubled
/// high-water mark like push_back does.
void GrowFor(std::vector<LadderQueue::Entry>& v, size_t n) {
  if (n > v.capacity()) v.reserve(std::max(n, v.capacity() * 2));
}

}  // namespace

LadderQueue::LadderQueue()
    : top_start_(-kNoBound), top_min_(kNoBound), top_max_(-kNoBound) {
  for (Rung& r : rungs_) {
    for (uint32_t& h : r.heads) h = kNil;
  }
  // Seed the flat vectors with a floor so light workloads (a handful of
  // pending events) never allocate past construction even as their batch
  // sizes jitter.
  top_.reserve(kMinReserve);
  bottom_.reserve(kMinReserve);
  bucket_scratch_.reserve(kMinReserve);
  arena_.reserve(kMinReserve);
  arena_free_.reserve(kMinReserve);
}

void LadderQueue::Reserve(size_t n) {
  top_.reserve(n);
  bottom_.reserve(n);
  bucket_scratch_.reserve(n);
  arena_.reserve(n);
  arena_free_.reserve(n);
}

void LadderQueue::Push(double when, uint64_t key) {
  ++size_;
  const Entry e{when, key};
  if (when >= top_start_) {
    if (when < top_min_) top_min_ = when;
    if (when > top_max_) top_max_ = when;
    top_.push_back(e);
    return;
  }
  // First rung (widest first) whose consumption threshold is at or below
  // the event. Exhausted rungs (cur == nbuckets) are skipped: anything at
  // or above their span was already caught by a shallower rung, so the
  // event belongs deeper (clamped into a last bucket if need be) or in
  // Bottom.
  for (size_t r = 0; r < nactive_; ++r) {
    Rung& rung = rungs_[r];
    if (rung.cur < rung.nbuckets && when >= Boundary(rung, rung.cur)) {
      PushRung(rung, e);
      return;
    }
  }
  PushBottom(e);
}

void LadderQueue::PushRung(Rung& r, Entry e) {
  const double fidx = (e.when - r.start) / r.width;
  size_t idx;
  if (!(fidx >= 0)) {
    idx = r.cur;
  } else if (fidx >= static_cast<double>(r.nbuckets)) {
    idx = r.nbuckets - 1;  // last bucket absorbs span overflow
  } else {
    idx = static_cast<size_t>(fidx);
    if (idx < r.cur) idx = r.cur;
  }
  // Make the placement agree with the boundary expression the consumption
  // threshold uses — the division above may round across a boundary, and
  // an entry on the wrong side would pop out of order.
  while (idx > r.cur && e.when < Boundary(r, idx)) --idx;
  while (idx + 1 < r.nbuckets && e.when >= Boundary(r, idx + 1)) ++idx;
  // Link a recycled (or fresh) arena node at the bucket head. List order
  // is irrelevant: every bucket is totally re-sorted by (when, key) on
  // its way into Bottom.
  uint32_t node;
  if (!arena_free_.empty()) {
    node = arena_free_.back();
    arena_free_.pop_back();
  } else {
    SBQA_DCHECK_LT(arena_.size(), static_cast<size_t>(kNil));
    node = static_cast<uint32_t>(arena_.size());
    arena_.emplace_back();
  }
  arena_[node].entry = e;
  arena_[node].next = r.heads[idx];
  r.heads[idx] = node;
  ++r.count;
}

void LadderQueue::PushBottom(Entry e) {
  bottom_.insert(std::upper_bound(bottom_.begin(), bottom_.end(), e, After),
                 e);
  // An overfull Bottom is spread over a new, deepest rung, so near-now
  // pushes stay O(1). Without this, a small Top transfer whose maximum is
  // one far event (a periodic sampling tick) leaves top_start_ far ahead,
  // and every push below it insert-sorts into an ever larger Bottom until
  // that event fires. Bottom's entries all lie below every active rung's
  // threshold (and below top_start_), so the new rung slots in under them.
  // Bottom is sorted descending: back() is its minimum, front() its
  // maximum. A full rung stack or a degenerate span keeps Bottom as is.
  if (bottom_.size() > kSpawnThreshold &&
      SpawnRung(bottom_.back().when, bottom_.front().when, bottom_)) {
    bottom_.clear();
  }
}

void LadderQueue::DrainBucket(Rung& r, size_t k) {
  bucket_scratch_.clear();
  uint32_t node = r.heads[k];
  r.heads[k] = kNil;
  while (node != kNil) {
    bucket_scratch_.push_back(arena_[node].entry);
    const uint32_t next = arena_[node].next;
    arena_free_.push_back(node);
    node = next;
  }
  r.count -= bucket_scratch_.size();
}

void LadderQueue::DumpScratchToBottom() {
  // Only ever called with Bottom empty (during a refill). COPY rather
  // than swap: Bottom and the scratch each keep their own high-water
  // capacity (entries are 16-byte PODs, the copy is a memcpy); swapping
  // would shuffle capacities around and reallocate forever instead of
  // settling.
  GrowFor(bottom_, bucket_scratch_.size());
  bottom_.assign(bucket_scratch_.begin(), bucket_scratch_.end());
  std::sort(bottom_.begin(), bottom_.end(), After);
}

bool LadderQueue::SpawnRung(double lo, double hi,
                            const std::vector<Entry>& entries) {
  if (nactive_ >= kMaxRungs) return false;
  const double width = (hi - lo) / static_cast<double>(kBucketsPerRung);
  // Degenerate span: the width underflows at the magnitude of `lo`, so
  // buckets cannot make progress — the caller sorts into Bottom instead.
  if (!(width > 0) || lo + width == lo) return false;
  Rung& r = rungs_[nactive_];
  r.start = lo;
  r.width = width;
  r.cur = 0;
  r.count = 0;
  r.nbuckets = kBucketsPerRung;
  // An inactive rung's buckets are all empty (consumption unlinks them,
  // deactivation requires count == 0), so this is 128 stores of kNil —
  // cheap insurance against a stale head, and no allocation either way:
  // the nodes live in the shared arena.
  for (uint32_t& h : r.heads) h = kNil;
  ++nactive_;
  for (const Entry& e : entries) PushRung(r, e);
  return true;
}

void LadderQueue::TransferTop() {
  // Copy + clear, not swap: Top keeps its accumulated capacity in place
  // (see DumpScratchToBottom).
  GrowFor(bucket_scratch_, top_.size());
  bucket_scratch_.assign(top_.begin(), top_.end());
  top_.clear();
  const double lo = top_min_;
  const double hi = top_max_;
  // Future arrivals at or above the old maximum accumulate in Top again;
  // ties at the boundary are safe because a later arrival always carries
  // a larger key (seqs are monotone).
  top_start_ = hi;
  top_min_ = kNoBound;
  top_max_ = -kNoBound;
  if (bucket_scratch_.size() > kSpawnThreshold &&
      SpawnRung(lo, hi, bucket_scratch_)) {
    return;
  }
  DumpScratchToBottom();
}

bool LadderQueue::FillBottom() {
  while (bottom_.empty()) {
    while (nactive_ > 0 && rungs_[nactive_ - 1].count == 0) --nactive_;
    if (nactive_ == 0) {
      if (top_.empty()) return false;
      TransferTop();
      continue;
    }
    Rung& r = rungs_[nactive_ - 1];
    // count > 0 guarantees a pending non-empty bucket at or after cur.
    while (r.heads[r.cur] == kNil) ++r.cur;
    const size_t k = r.cur;
    const double lo = Boundary(r, k);
    const double hi = Boundary(r, k + 1);
    // Advance past the bucket BEFORE spreading it: an entry arriving into
    // this span from here on must sort into Bottom (or the child rung),
    // never into a bucket that was already consumed.
    ++r.cur;
    DrainBucket(r, k);
    if (bucket_scratch_.size() > kSpawnThreshold &&
        SpawnRung(lo, hi, bucket_scratch_)) {
      continue;  // consume from the finer rung instead
    }
    DumpScratchToBottom();
  }
  return true;
}

const LadderQueue::Entry* LadderQueue::Front() {
  if (bottom_.empty() && !FillBottom()) return nullptr;
  return &bottom_.back();
}

void LadderQueue::PopFront() {
  SBQA_DCHECK(!bottom_.empty());
  bottom_.pop_back();
  --size_;
}

double LadderQueue::MinBound() const {
  if (!bottom_.empty()) return bottom_.back().when;
  for (size_t r = nactive_; r > 0; --r) {
    const Rung& rung = rungs_[r - 1];
    if (rung.count > 0) return Boundary(rung, rung.cur);
  }
  if (!top_.empty()) return top_min_;
  return kNoBound;
}

}  // namespace sbqa::util
