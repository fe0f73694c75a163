#ifndef SBQA_CORE_HOT_STATE_H_
#define SBQA_CORE_HOT_STATE_H_

/// \file
/// The registry's id-indexed block of per-provider state: every value the
/// query lifecycle reads or writes, and the only copy of each. A decision
/// gathers the state of kn random providers, and every consulted provider
/// records the proposal in its Definition-2 window; with the fields in
/// dense planes indexed by the registry's dense provider ids, those reads
/// and writes touch a few 8-byte entries per provider instead of pulling
/// whole Provider objects, their separately allocated windows and their
/// preference vectors through the cache.
///
/// Layout:
///   - one plane per scalar field (capacity, tau, busy-until, outstanding,
///     queue epoch, psi, policy kind, liveness, error rate, busy seconds,
///     instances performed);
///   - one dense preference column per consumer that any provider holds a
///     preference towards (entry = that provider's preference, 0 unset);
///   - one ProposalWindow record per provider (Definition 2's running sums
///     and ring cursor), whose k last proposals live in a shared arena of
///     a few large chunks that never move. An arena entry is the
///     normalized intention, negated when the provider performed the
///     query: the sign bit is the "performed" flag, so a performed
///     proposal that normalizes to 0 is stored as -0.0.
///
/// Provider, ProviderSatisfactionTracker and ProviderPreferences are views
/// over one slot; the per-query path (the batched gather, Dispatch,
/// arrival, completion) indexes the planes by provider id directly.
///
/// Rules (src/core/README.md has the field table):
///   - the owner shard is the only writer of a provider's slot;
///   - the block grows only at quiescent points (registration, and joins
///     applied at a barrier); growth moves planes (never arena entries),
///     so no view may cache a plane pointer across a membership epoch;
///   - no std::vector<bool>: adjacent slots may belong to different shards,
///     whose threads write adjacent bytes.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/satisfaction.h"
#include "model/intention.h"
#include "model/query.h"
#include "model/types.h"
#include "util/check.h"

namespace sbqa::core {

struct ProviderParams;

/// Dense per-provider planes, indexed by provider slot (== dense ProviderId
/// for registry-owned providers).
class ProviderHotState {
 public:
  ProviderHotState() = default;
  ProviderHotState(const ProviderHotState&) = delete;
  ProviderHotState& operator=(const ProviderHotState&) = delete;

  /// Makes room for `slots` providers whose windows hold `window_entries`
  /// proposals in total: one allocation per plane and at most one arena
  /// chunk, none of it written until a slot is appended (arena entries:
  /// until a proposal lands). Never shrinks.
  void Reserve(size_t slots, size_t window_entries);

  /// Adds one provider slot initialised from `params` (validated here);
  /// returns its index. A full block grows every plane together, to twice
  /// its slots (at least kMinSlots), with an arena chunk for the new slots.
  uint32_t Append(const ProviderParams& params);

  size_t size() const { return capacity_.size(); }

  // --- Queueing --------------------------------------------------------------

  /// Seconds of queued work remaining at time `now` (0 when idle).
  double Backlog(uint32_t slot, double now) const {
    const double b = busy_until_[slot] - now;
    return b > 0 ? b : 0.0;
  }

  /// Expected completion delay: backlog + cost / capacity.
  double ExpectedCompletion(uint32_t slot, double now, double cost) const {
    return Backlog(slot, now) + cost / capacity_[slot];
  }

  /// Enqueues `cost` work units at `now`; returns the absolute finish time.
  double Enqueue(uint32_t slot, double now, double cost) {
    const double start = busy_until_[slot] > now ? busy_until_[slot] : now;
    busy_until_[slot] = start + cost / capacity_[slot];
    ++outstanding_[slot];
    return busy_until_[slot];
  }

  /// Completion accounting: one instance of `cost` work units finished.
  void OnInstanceFinished(uint32_t slot, double cost) {
    SBQA_DCHECK_GT(outstanding_[slot], 0);
    --outstanding_[slot];
    busy_seconds_[slot] += cost / capacity_[slot];
    ++instances_performed_[slot];
  }

  /// Drops queued work and bumps the epoch (invalidating the pending
  /// completion of each mediator's service chain on this provider).
  void DropQueue(uint32_t slot, double now) {
    busy_until_[slot] = now;
    outstanding_[slot] = 0;
    ++queue_epoch_[slot];
  }

  /// Normalized utilization in [0, 1): backlog / (backlog + tau).
  double UtilizationNorm(uint32_t slot, double now) const {
    const double b = Backlog(slot, now);
    return b / (b + tau_[slot]);
  }

  double capacity(uint32_t slot) const { return capacity_[slot]; }
  double tau_utilization(uint32_t slot) const { return tau_[slot]; }
  double busy_until(uint32_t slot) const { return busy_until_[slot]; }
  int32_t outstanding(uint32_t slot) const { return outstanding_[slot]; }
  uint64_t queue_epoch(uint32_t slot) const { return queue_epoch_[slot]; }
  /// Total seconds of work completed, and instances completed.
  double busy_seconds(uint32_t slot) const { return busy_seconds_[slot]; }
  int64_t instances_performed(uint32_t slot) const {
    return instances_performed_[slot];
  }

  // --- Liveness and policy ---------------------------------------------------

  bool alive(uint32_t slot) const { return alive_[slot] != 0; }
  void set_alive(uint32_t slot, bool alive) {
    alive_[slot] = alive ? uint8_t{1} : uint8_t{0};
  }
  model::ProviderPolicyKind policy_kind(uint32_t slot) const {
    return static_cast<model::ProviderPolicyKind>(policy_[slot]);
  }
  double psi(uint32_t slot) const { return psi_[slot]; }
  double error_rate(uint32_t slot) const { return error_rate_[slot]; }

  /// PI_q[p] through the provider's policy object (the exact kernel's
  /// per-candidate path; the batched kernel evaluates the same policies as
  /// plane sweeps), clamped into [-1, 1].
  double Intention(uint32_t slot, const model::Query& query,
                   double now) const;

  // --- Preferences towards consumers -----------------------------------------

  /// The provider's preference for `consumer`, in [-1, 1]; 0 when unset
  /// (including negative and never-seen consumer ids).
  double Preference(uint32_t slot, model::ConsumerId consumer) const {
    const double* column = PreferenceColumn(consumer);
    return column != nullptr ? column[slot] : 0.0;
  }

  /// Every provider's preference for `consumer` (size() entries, indexed
  /// by slot), or nullptr when no provider ever set one.
  const double* PreferenceColumn(model::ConsumerId consumer) const {
    const size_t c = static_cast<size_t>(consumer);  // negative: past the end
    if (c >= pref_columns_.size() || pref_columns_[c].empty()) return nullptr;
    return pref_columns_[c].data();
  }

  /// Sets the preference (clamped into [-1, 1]); the first preference
  /// towards a consumer materializes its column. Quiescent points only.
  void SetPreference(uint32_t slot, model::ConsumerId consumer,
                     double preference);

  // --- Definition 2 ----------------------------------------------------------

  /// Records one mediation in which the provider was consulted: its
  /// expressed intention PPI_p[q] and whether it performed q.
  void RecordProposal(uint32_t slot, double intention, bool performed);

  /// Starts loading the arena entry the provider's next proposal writes
  /// (and, in a full window, evicts), so a mediation's burst of
  /// RecordProposal calls overlaps its cache misses.
  void PrefetchProposal(uint32_t slot) const {
    const ProposalWindow& w = windows_[slot];
    __builtin_prefetch(w.ring + w.next, /*rw=*/1);
  }

  /// Definition 2; 0 when no proposed query was performed.
  double Satisfaction(uint32_t slot) const {
    const ProposalWindow& w = windows_[slot];
    if (w.performed == 0) return 0.0;  // Definition 2: SQ^k_p = ∅ case
    const uint32_t denominator =
        w.mode == ProviderSatisfactionDenominator::kPerformedOnly
            ? w.performed
            : w.size;
    return w.sum_performed / static_cast<double>(denominator);
  }

  /// Mean normalized intention over every proposal in the window; 0 when
  /// nothing was proposed.
  double Adequation(uint32_t slot) const {
    const ProposalWindow& w = windows_[slot];
    if (w.size == 0) return 0.0;
    return w.sum_all / static_cast<double>(w.size);
  }

  /// Definition-2 satisfaction relative to the best achievable had the
  /// provider performed the proposals it wanted most; 1 when optimal or
  /// vacuous. O(k log k); allocation-free once its per-thread scratch
  /// holds k entries.
  double AllocationSatisfaction(uint32_t slot) const;

  size_t proposal_count(uint32_t slot) const { return windows_[slot].size; }
  size_t performed_count(uint32_t slot) const {
    return windows_[slot].performed;
  }
  size_t memory_k(uint32_t slot) const { return windows_[slot].k; }
  ProviderSatisfactionDenominator satisfaction_mode(uint32_t slot) const {
    return windows_[slot].mode;
  }

 private:
  /// Slots the first growth of an unreserved block makes room for.
  static constexpr size_t kMinSlots = 64;

  /// Definition 2's running state of one provider (48 bytes; what
  /// Satisfaction reads comes first). Its ring is the k arena entries at
  /// `ring`; entries [0, size) of it have been written.
  struct ProposalWindow {
    double sum_performed = 0;  ///< normalized intentions, performed ones
    uint32_t performed = 0;    ///< performed proposals in the window
    uint32_t size = 0;         ///< proposals in the window (<= k)
    ProviderSatisfactionDenominator mode =
        ProviderSatisfactionDenominator::kPerformedOnly;
    uint32_t next = 0;   ///< ring index of the next write
    double sum_all = 0;  ///< normalized intentions, every proposal
    uint32_t k = 0;      ///< window capacity
    double* ring = nullptr;
  };

  /// Starts a new arena chunk of `entries` (the rest of the current one
  /// stays unused).
  void AddArenaChunk(size_t entries);

  std::vector<double> capacity_;
  std::vector<double> tau_;
  std::vector<double> busy_until_;
  std::vector<int32_t> outstanding_;
  std::vector<uint64_t> queue_epoch_;
  std::vector<double> psi_;
  std::vector<uint8_t> policy_;
  std::vector<uint8_t> alive_;
  std::vector<double> error_rate_;
  std::vector<double> busy_seconds_;
  std::vector<int64_t> instances_performed_;
  std::vector<ProposalWindow> windows_;
  /// Indexed by consumer id; an empty column was never materialized.
  std::vector<std::vector<double>> pref_columns_;
  /// Proposal windows, back to back in chunks that never move (growth
  /// copies no window). Default-initialized storage: a window costs no
  /// writes until its proposals arrive.
  std::vector<std::unique_ptr<double[]>> arena_chunks_;
  double* arena_next_ = nullptr;  ///< first free entry of the newest chunk
  size_t arena_free_ = 0;         ///< free entries left in the newest chunk
  size_t arena_used_ = 0;         ///< entries handed to windows
};

}  // namespace sbqa::core

#endif  // SBQA_CORE_HOT_STATE_H_
