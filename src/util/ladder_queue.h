#ifndef SBQA_UTIL_LADDER_QUEUE_H_
#define SBQA_UTIL_LADDER_QUEUE_H_

/// \file
/// LadderQueue: the bucket-based priority structure behind the unified
/// timer core (util::TimerCore) — amortized O(1) Push/Front/PopFront at
/// event depths where a comparison heap pays O(log n) per operation.
///
/// The structure is the classic ladder queue (Tang, Goh & Thng 2005),
/// specialized for the engine's 16-byte entries {when, key}:
///
///   Top     — an unsorted append-only list of far-future events
///             (when >= top_start_). Pushing here is a plain push_back.
///   Rungs   — a stack of bucket arrays. Rung 0 is created by spreading
///             Top over [top_min, top_max]; consuming an overfull bucket
///             spawns the next, finer rung over just that bucket's span.
///             Pushes land in the first rung whose current-bucket
///             threshold is at or below the event (O(#rungs) <= 8).
///   Bottom  — a small sorted array (descending, so back() is the
///             minimum) holding the events about to fire. Buckets at or
///             under the spawn threshold are sorted into it wholesale;
///             near-now pushes insert-sort into it directly, and a Bottom
///             pushed past the spawn threshold is spread over a new,
///             deepest rung.
///
/// Steady-state traffic therefore touches O(1) entries per operation:
/// push_back into Top or a bucket, pop_back off Bottom, and the
/// occasional bucket consumption whose cost amortizes over the entries
/// it moves. Bucket storage is a single intrusive-freelist arena shared
/// by every bucket of every rung (a bucket is just a head index), so the
/// structure's entire allocation behavior is driven by ONE number — the
/// pending-entry high-water mark. Per-bucket vectors would instead grow
/// positionally, and because rung spans track the workload's (drifting)
/// event horizon, the bucket an entry lands in is not stationary: some
/// bucket somewhere keeps breaking its occupancy record forever, which
/// is measurable heap traffic in any fixed window. With the arena,
/// Reserve(n) pre-warms everything; a workload whose pending count stays
/// under n never allocates — the property the engine's 0-alloc gates
/// depend on.
///
/// Ordering contract (what the determinism gates depend on): entries are
/// popped in strictly increasing (when, key) order — bit-identical to
/// the 4-ary reference heap (util/event_heap.h) that the differential
/// suite replays every fuzzed trace against. Bucket boundaries are
/// computed once per placement with the same monotone expression
/// (start + k * width) that defines the consumption threshold, and
/// placements are nudged until they agree with that expression, so
/// floating-point rounding can never leave an entry on the wrong side of
/// a boundary. Degenerate spans (width underflows at the magnitude of
/// `start`) fall back to sorting into Bottom instead of spawning a rung.
///
/// Thread-compatibility: single owner context, like the SlotPool it sits
/// next to.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sbqa::util {

class LadderQueue {
 public:
  /// What the queue orders: 16 bytes per event, the callback stays in the
  /// caller's slot pool. `key` packs (seq << slot_bits) | slot; seqs are
  /// unique, so (when, key) is a strict total order.
  struct Entry {
    double when;
    uint64_t key;
  };

  /// Strict (when, key) order shared with the reference heap: any correct
  /// priority structure over it pops the exact same sequence.
  static bool Before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.key < b.key;
  }

  LadderQueue();
  LadderQueue(const LadderQueue&) = delete;
  LadderQueue& operator=(const LadderQueue&) = delete;

  void Push(double when, uint64_t key);

  /// The minimum entry, or nullptr when empty. May restructure (consume
  /// buckets into Bottom) — amortized O(1). The pointer is invalidated by
  /// the next Push/PopFront/Front call.
  const Entry* Front();

  /// Removes the entry Front() returned. Requires a preceding Front() on
  /// the current state.
  void PopFront();

  /// Lower bound on the minimum entry's `when` (kNoBound when empty):
  /// exact when Bottom is populated, otherwise the deepest pending
  /// bucket's threshold or Top's minimum — never above the true minimum,
  /// so parking/skip decisions made on it are safe. O(#rungs), const.
  double MinBound() const;
  static constexpr double kNoBound = 1e300;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes Top, Bottom, the scratch and the bucket arena for `n`
  /// concurrently pending entries: a workload whose pending count stays
  /// under n then never allocates — there is no residual bucket warm-up.
  void Reserve(size_t n);

 private:
  static constexpr size_t kMaxRungs = 8;
  /// Buckets at or below this size are sorted into Bottom rather than
  /// spread over a finer rung, and a Bottom grown past it by pushes is
  /// spread over a rung; Bottom therefore stays small and its insertion
  /// sort cheap.
  static constexpr size_t kSpawnThreshold = 64;
  /// Every rung has exactly this many buckets — resolution comes from
  /// rung DEPTH (kBucketsPerRung^kMaxRungs distinguishable spans), not
  /// from per-spawn sizing. A fixed count keeps rung spawning to plain
  /// arithmetic over the arena: no per-spawn sizing decisions, no
  /// allocation.
  static constexpr size_t kBucketsPerRung = 128;
  /// Construction-time capacity floor of Top/Bottom/scratch/arena: light
  /// workloads never allocate past the constructor.
  static constexpr size_t kMinReserve = 256;

  /// Arena node: one bucketed entry plus its intrusive bucket-list link.
  /// Nodes are recycled through `arena_free_`, so arena size tracks the
  /// pending high-water mark, not cumulative traffic.
  struct Node {
    Entry entry;
    uint32_t next = 0;
  };
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  /// One rung: `nbuckets` buckets spanning [start, start + nbuckets *
  /// width), consumed left to right from `cur`. A bucket is the head of
  /// an intrusive list through the shared arena (kNil = empty). `count`
  /// tracks entries across the pending buckets [cur, nbuckets).
  struct Rung {
    double start = 0;
    double width = 0;
    size_t cur = 0;
    size_t nbuckets = 0;
    size_t count = 0;
    uint32_t heads[kBucketsPerRung];
  };

  /// The bucket boundary expression. Monotone in k (width > 0), and the
  /// SAME expression gates placement and consumption, so an entry can
  /// never be placed below a threshold it will be compared against.
  static double Boundary(const Rung& r, size_t k) {
    return r.start + static_cast<double>(k) * r.width;
  }

  /// Insert-sorts `e` into Bottom; spills Bottom into a new rung once it
  /// outgrows the spawn threshold.
  void PushBottom(Entry e);
  void PushRung(Rung& r, Entry e);
  /// Unlinks bucket `k` of `r` into `bucket_scratch_` (arena nodes return
  /// to the free list) and subtracts its entries from `r.count`.
  void DrainBucket(Rung& r, size_t k);
  /// Moves `bucket_scratch_` into (empty) Bottom, sorted descending.
  void DumpScratchToBottom();
  /// Spreads `entries` over a fresh, deepest rung covering [lo, hi] (the
  /// last bucket absorbs anything at or past its start). Returns false,
  /// touching nothing, when the span is degenerate or the rung stack is
  /// full; the caller then keeps the entries in Bottom.
  bool SpawnRung(double lo, double hi, const std::vector<Entry>& entries);
  /// Spreads Top into rung 0 (or Bottom when small/degenerate) and resets
  /// the Top accumulator.
  void TransferTop();
  /// Refills Bottom from the rungs/Top. False when the queue is empty.
  bool FillBottom();

  std::vector<Entry> top_;
  /// Events at or above this go to Top; below it they belong to the
  /// rungs/Bottom. Starts at -infinity: everything accumulates in Top
  /// until the first consumption spreads it.
  double top_start_;
  double top_min_;
  double top_max_;

  Rung rungs_[kMaxRungs];
  size_t nactive_ = 0;

  /// Sorted descending — back() is the minimum, PopFront is pop_back.
  std::vector<Entry> bottom_;
  std::vector<Entry> bucket_scratch_;

  /// Shared bucket storage: every bucketed entry is one node, linked into
  /// its bucket's list. Grows geometrically with the pending high-water
  /// mark and never shrinks; `arena_free_` recycles nodes.
  std::vector<Node> arena_;
  std::vector<uint32_t> arena_free_;

  size_t size_ = 0;
};

}  // namespace sbqa::util

#endif  // SBQA_UTIL_LADDER_QUEUE_H_
