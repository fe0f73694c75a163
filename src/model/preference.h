#ifndef SBQA_MODEL_PREFERENCE_H_
#define SBQA_MODEL_PREFERENCE_H_

/// \file
/// Preference profiles: context-independent, signed interest values in
/// [-1, 1] that participants hold towards each other (consumers towards
/// providers, providers towards consumers/projects).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace sbqa::model {

/// Sparse map from target id to preference in [-1, 1] with a default for
/// unlisted targets. -1 = strongly against, 0 = indifferent, 1 = strongly
/// interested.
///
/// Stored as one flat vector sorted by target. Get first reads the entry
/// at index `target` and returns it when that entry's target matches —
/// which it always does in a dense profile (entries for ids 0..n-1, as a
/// project's view of every volunteer or a volunteer's view of every
/// project is built from dense registry ids), so the mediation decision's
/// per-candidate lookup is one load. A mismatch (sparse or gapped
/// profiles, negative or past-the-end ids) falls back to a binary search.
/// Profiles are built in ascending target order, so Set is an amortized
/// O(1) append during population construction.
class PreferenceProfile {
 public:
  /// `default_value` applies to ids without an explicit entry.
  explicit PreferenceProfile(double default_value = 0.0)
      : default_value_(Clamp(default_value)) {}

  /// Sets the preference for `target` (clamped into [-1, 1]).
  void Set(int32_t target, double preference) {
    const double value = Clamp(preference);
    if (prefs_.empty() || prefs_.back().target < target) {
      prefs_.push_back(Entry{target, value});  // in-order build: append
      return;
    }
    const auto it = LowerBound(target);
    if (it != prefs_.end() && it->target == target) {
      it->value = value;
    } else {
      prefs_.insert(it, Entry{target, value});
    }
  }

  /// Preference for `target`, or the default when unset.
  double Get(int32_t target) const {
    const Entry* e = Find(target);
    return e != nullptr ? e->value : default_value_;
  }

  bool Has(int32_t target) const { return Find(target) != nullptr; }

  double default_value() const { return default_value_; }
  size_t explicit_count() const { return prefs_.size(); }

  /// Mean of the explicitly set preferences (default when none set).
  double MeanExplicit() const {
    if (prefs_.empty()) return default_value_;
    double sum = 0;
    for (const Entry& e : prefs_) sum += e.value;
    return sum / static_cast<double>(prefs_.size());
  }

 private:
  struct Entry {
    int32_t target;
    double value;
  };

  /// The entry for `target`, or nullptr. Direct index first: entries are
  /// sorted with distinct targets, so a match at index `target` is the
  /// entry (a negative target wraps past the end and falls through).
  const Entry* Find(int32_t target) const {
    const size_t slot = static_cast<size_t>(target);
    if (slot < prefs_.size() && prefs_[slot].target == target) {
      return &prefs_[slot];
    }
    const auto it = LowerBound(target);
    return (it != prefs_.end() && it->target == target) ? &*it : nullptr;
  }

  std::vector<Entry>::iterator LowerBound(int32_t target) {
    return std::lower_bound(
        prefs_.begin(), prefs_.end(), target,
        [](const Entry& e, int32_t t) { return e.target < t; });
  }
  std::vector<Entry>::const_iterator LowerBound(int32_t target) const {
    return std::lower_bound(
        prefs_.begin(), prefs_.end(), target,
        [](const Entry& e, int32_t t) { return e.target < t; });
  }

  static double Clamp(double v) {
    if (v < -1.0) return -1.0;
    if (v > 1.0) return 1.0;
    return v;
  }

  double default_value_;
  std::vector<Entry> prefs_;  ///< sorted by target
};

}  // namespace sbqa::model

#endif  // SBQA_MODEL_PREFERENCE_H_
