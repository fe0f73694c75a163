#ifndef SBQA_CORE_CANDIDATE_INDEX_H_
#define SBQA_CORE_CANDIDATE_INDEX_H_

/// \file
/// Incrementally maintained candidate index: answers the mediation hot
/// path's "who can treat q, and give me k of them at random" in time that
/// depends on k — not on the provider population size |P|.
///
/// The paper's whole scalability argument (§III) is that KnBest only ever
/// touches a fixed-size random sample K of Pq. A full registry scan per
/// query would silently re-introduce the O(|P|) cost that sampling is
/// supposed to avoid, so the index keeps the eligible-provider sets hot at
/// all times, updated in O(1) from provider lifecycle events (departure,
/// churn offline/online, class restriction, runtime join) instead of being
/// recomputed per query:
///
///   - `alive`        every alive provider (sweeps, O(1) counts/capacity);
///   - `generalists`  alive providers with no class restriction;
///   - `by_class[c]`  alive providers restricted to a set containing c.
///
/// Pq for a query of class c is the disjoint union generalists ∪
/// by_class[c], so membership counts are O(1) and a uniform k-sample is
/// drawn in O(k) straight off the two dense arrays without materializing
/// the union. Single-threaded, like the simulator that owns it.

#include <cstddef>
#include <vector>

#include "core/provider.h"
#include "model/types.h"
#include "util/rng.h"

namespace sbqa::core {

/// The registry's always-current view of provider eligibility. Fed by
/// Provider eligibility notifications (via Registry); read by the mediator
/// on every query.
class CandidateIndex {
 public:
  CandidateIndex() = default;
  CandidateIndex(const CandidateIndex&) = delete;
  CandidateIndex& operator=(const CandidateIndex&) = delete;

  /// Makes room for provider ids below `providers` in the per-provider
  /// tables (the membership table and every set's position table,
  /// including class rows added later) without touching their pages.
  void Reserve(size_t providers);

  /// Registers a provider (id must be dense and new). Indexes it right away
  /// when it is alive.
  void OnProviderAdded(const Provider& provider);

  /// Re-evaluates one provider's memberships after any eligibility change
  /// (liveness toggle, departure, class restriction). O(#classes) ≈ O(1).
  void OnProviderChanged(const Provider& provider);

  /// Number of alive providers. O(1).
  size_t alive_count() const { return alive_.items.size(); }

  /// Sum of capacities of alive providers, maintained incrementally (and
  /// periodically re-summed exactly, so floating-point drift from long
  /// churn histories cannot accumulate). O(1).
  double alive_capacity() const {
    return alive_capacity_ > 0 ? alive_capacity_ : 0.0;
  }

  /// |Pq| for a query of class `query_class`. O(1).
  size_t CountFor(model::QueryClassId query_class) const;

  /// Alive providers with no class restriction. O(1).
  size_t alive_generalist_count() const { return generalists_.items.size(); }

  /// Replaces *out with (class, alive restricted-provider count) for every
  /// class the index currently tracks (ascending class order, zero counts
  /// included). O(#classes); feeds the cross-shard candidate directory.
  void CollectClassCounts(
      std::vector<std::pair<model::QueryClassId, size_t>>* out) const;

  /// Replaces *out with Pq for `query_class` (index order, not sorted).
  void CollectFor(model::QueryClassId query_class,
                  std::vector<model::ProviderId>* out) const;

  /// Replaces *out with every alive provider id (index order).
  void CollectAlive(std::vector<model::ProviderId>* out) const;

  /// Replaces *out with min(k, |Pq|) distinct providers drawn uniformly at
  /// random from Pq. O(k) for k << |Pq|, O(|Pq|) when k covers most of it
  /// (in which case the result is a full shuffle of Pq).
  void SampleFor(model::QueryClassId query_class, size_t k, util::Rng& rng,
                 std::vector<model::ProviderId>* out) const;

  /// Whether `provider` is currently in Pq for `query_class`. O(1).
  bool ContainsFor(model::QueryClassId query_class,
                   model::ProviderId provider) const;

 private:
  /// Unordered id set with O(1) insert/erase (swap-with-last) and a dense
  /// `items` array for O(1) random access during sampling.
  struct DenseIdSet {
    static constexpr size_t kAbsent = static_cast<size_t>(-1);

    std::vector<model::ProviderId> items;
    /// Position of each member in `items`, dense by provider id (kAbsent
    /// for non-members). A plain vector instead of a hash map: churn
    /// toggles Insert/Erase on every availability flip, and the elastic-
    /// membership gate requires those to be allocation-free in steady
    /// state — the vector only grows when a new highest id first enters
    /// (amortized, and in sharded mode only at epoch barriers). Also
    /// removes the last hashing from the membership path.
    std::vector<size_t> pos;

    bool contains(model::ProviderId id) const {
      const size_t i = static_cast<size_t>(id);
      return i < pos.size() && pos[i] != kAbsent;
    }
    void Insert(model::ProviderId id);
    void Erase(model::ProviderId id);
  };

  /// What the index currently believes about one provider; used to undo
  /// stale memberships before re-inserting on change.
  struct Membership {
    bool alive = false;
    bool generalist = false;
    /// Capacity credited to alive_capacity_ while alive (lets the index
    /// re-sum exactly without re-touching Provider objects).
    double capacity = 0;
    /// Classes the provider is indexed under when restricted.
    std::vector<model::QueryClassId> classes;
  };

  /// One row of the class table: the alive providers restricted to a set
  /// containing `query_class`.
  struct ClassEntry {
    model::QueryClassId query_class;
    DenseIdSet set;
  };

  void RemoveMemberships(model::ProviderId id);
  /// Row of `query_class` in the class table, or where it would be
  /// inserted. One binary search over a handful of rows.
  size_t ClassRow(model::QueryClassId query_class) const;
  /// The class's set, or nullptr when no alive provider is restricted to
  /// it.
  const DenseIdSet* ClassSet(model::QueryClassId query_class) const;
  /// The class's set, inserting an empty row in order when it is new.
  DenseIdSet& ClassSetOrInsert(model::QueryClassId query_class);

  DenseIdSet alive_;
  DenseIdSet generalists_;
  /// `by_class`, as one flat table sorted by class id: a decision finds
  /// its class without hashing, and rows only ever get added (a class
  /// whose providers all left keeps an empty row).
  std::vector<ClassEntry> by_class_;
  std::vector<Membership> members_;  ///< by provider id
  /// Provider ids the tables are reserved for (Reserve).
  size_t reserved_ = 0;
  double alive_capacity_ = 0;
  /// Mutations since the last exact re-sum of alive_capacity_.
  uint32_t capacity_updates_ = 0;
  /// Reused by SampleFor (the index is single-threaded, like the simulator
  /// that owns it) so sampling allocates nothing once warm.
  mutable std::vector<size_t> sample_scratch_;
  mutable util::SampleScratch sample_stamps_;
};

/// One mediation's candidate set Pq, as handed to allocation methods.
///
/// Index-backed in the real pipeline — size and uniform k-sampling never
/// materialize the candidate list, so KnBest-style methods stay O(k) — with
/// lazy materialization (into a caller-owned scratch buffer, in arbitrary
/// but deterministic index order) for the full-scan baselines that
/// genuinely need every candidate. Explicit-list mode exists for tests and
/// benches that craft contexts by hand, and for the mediator's retry path
/// (Pq minus the providers already tried).
class CandidateSet {
 public:
  /// Index-backed view. `scratch` backs lazy materialization and must
  /// outlive the set; its previous contents are discarded on first All().
  CandidateSet(const CandidateIndex* index, model::QueryClassId query_class,
               std::vector<model::ProviderId>* scratch);

  /// Explicit-list view (tests / crafted contexts / retries); `list` must
  /// outlive the set and is returned by All() verbatim.
  explicit CandidateSet(const std::vector<model::ProviderId>* list);

  /// |Pq|. O(1).
  size_t size() const;
  bool empty() const { return size() == 0; }

  /// The full candidate list. Materialized lazily in O(|Pq|); only the
  /// full-scan baselines pay this. Index-backed mode yields a
  /// deterministic but arbitrary order — consumers that need a specific
  /// order (e.g. round-robin rotation) sort their own copy.
  const std::vector<model::ProviderId>& All() const;

  /// Replaces *out with min(k, size()) distinct uniform candidates in O(k)
  /// (O(size) when k covers most of the set).
  void SampleUniform(size_t k, util::Rng& rng,
                     std::vector<model::ProviderId>* out) const;

 private:
  const CandidateIndex* index_ = nullptr;
  model::QueryClassId query_class_ = 0;
  std::vector<model::ProviderId>* scratch_ = nullptr;
  const std::vector<model::ProviderId>* list_ = nullptr;
  mutable bool materialized_ = false;
};

}  // namespace sbqa::core

#endif  // SBQA_CORE_CANDIDATE_INDEX_H_
