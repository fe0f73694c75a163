#ifndef SBQA_BASELINES_RANKING_H_
#define SBQA_BASELINES_RANKING_H_

/// \file
/// The ranking the capacity-based, economic and QLB baselines share:
/// candidates by ascending key, equal keys in a uniformly random order.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace sbqa::baselines {

/// Ranks candidate indexes by ascending key with random tie-breaking,
/// allocation-free once warm. It shuffles the indexes, then sorts them by
/// (key, position after the shuffle): the order a stable sort of the
/// shuffled indexes gives, without stable_sort's temporary buffer.
class RandomTieRanking {
 public:
  /// Ranks indexes [0, keys.size()), drawing the tie order from `rng`.
  void Rank(std::span<const double> keys, util::Rng& rng) {
    ranked_.resize(keys.size());
    for (uint32_t i = 0; i < ranked_.size(); ++i) ranked_[i] = {keys[i], i, 0};
    rng.Shuffle(&ranked_);
    for (uint32_t p = 0; p < ranked_.size(); ++p) ranked_[p].position = p;
    std::sort(ranked_.begin(), ranked_.end(),
              [](const Entry& a, const Entry& b) {
                if (a.key < b.key) return true;
                if (b.key < a.key) return false;
                return a.position < b.position;
              });
  }

  size_t size() const { return ranked_.size(); }
  /// The index ranked `rank`-th (0 = lowest key).
  uint32_t operator[](size_t rank) const { return ranked_[rank].index; }

 private:
  struct Entry {
    double key;
    uint32_t index;
    uint32_t position;  ///< after the shuffle: the tie order
  };
  std::vector<Entry> ranked_;
};

}  // namespace sbqa::baselines

#endif  // SBQA_BASELINES_RANKING_H_
