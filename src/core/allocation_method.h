#ifndef SBQA_CORE_ALLOCATION_METHOD_H_
#define SBQA_CORE_ALLOCATION_METHOD_H_

/// \file
/// The pluggable query-allocation strategy interface. SbQA, pure SQLB,
/// KnBest and every baseline (capacity-based, economic, ...) implement this
/// interface and run inside the same mediator, which is what lets the
/// satisfaction model "analyze different query allocation techniques no
/// matter their query allocation principle" (paper Scenario 1).

#include <cstddef>
#include <string>

#include "core/candidate_index.h"
#include "model/query.h"
#include "model/types.h"
#include "util/small_vec.h"

namespace sbqa::core {

class Mediator;

/// Read-only view handed to an allocation method for one mediation.
struct AllocationContext {
  /// The query being allocated.
  const model::Query* query = nullptr;
  /// The paper's Pq: alive providers able to treat the query. Non-empty.
  /// Sampling methods draw from it in O(k); full-scan methods materialize
  /// it via All().
  const CandidateSet* candidates = nullptr;
  /// Back-pointer for provider state, intentions, satisfaction and RNG.
  Mediator* mediator = nullptr;
  /// Current simulation time.
  double now = 0;
};

/// Inline width of a decision's lists: covers every shipped KnBest width
/// (the engine's default kn = 4, the BOINC demo's kn = 8). A wider decision
/// (SQLB and the full-scan baselines consult all of Pq) spills its slot's
/// lists to the heap once and reuses that buffer afterwards.
inline constexpr size_t kDecisionInlineWidth = 8;

/// Consultation-width lists of one decision, stored inline.
using ProviderList = util::SmallVec<model::ProviderId, kDecisionInlineWidth>;
using IntentionList = util::SmallVec<double, kDecisionInlineWidth>;

/// The outcome of one allocation decision. Decisions are pooled by the
/// mediator (one per in-flight query slot) and recycled, so methods fill a
/// cleared decision whose lists are inline (or keep their spilled buffer)
/// — the steady-state mediation path allocates nothing.
struct AllocationDecision {
  /// Providers the query is dispatched to, best-ranked first. The mediator
  /// truncates to min(q.n_results, selected.size()).
  ProviderList selected;

  /// Providers that took part in the mediation (the paper's Kn): they are
  /// notified of the mediation result and record the proposal in their
  /// Definition-2 windows. Must be a superset of `selected`. When left
  /// empty the mediator treats `selected` as the consulted set.
  ProviderList consulted;

  /// PI_q[p] for each entry of `consulted` (parallel array). When empty the
  /// mediator computes the intentions itself for satisfaction bookkeeping.
  IntentionList provider_intentions;

  /// CI_q[p] for each entry of `consulted` (parallel array). When empty the
  /// mediator computes the intentions itself.
  IntentionList consumer_intentions;

  /// Normalization context of `consumer_intentions`: the maximum expected
  /// completion over `consulted` at decision time (0 when none were
  /// computed). The dispatch path's single-candidate rescore reuses it so a
  /// provider outside the consulted set is scored in the same normalization
  /// context as the first attempt instead of against its own expected
  /// completion alone.
  double ect_normalizer = 0;

  /// True when the method performed an intention round-trip with the
  /// consumer and the consulted providers (SQLB/SbQA); adds one RTT to the
  /// mediation latency.
  bool used_intention_round = false;

  /// True when the method performed a bid round-trip (economic baseline);
  /// adds one RTT to the mediation latency.
  bool used_bid_round = false;

  /// Empties the decision while keeping the lists' capacity (pool reuse).
  void Clear() {
    selected.clear();
    consulted.clear();
    provider_intentions.clear();
    consumer_intentions.clear();
    ect_normalizer = 0;
    used_intention_round = false;
    used_bid_round = false;
  }
};

/// Strategy interface; implementations must be deterministic given the
/// mediator's RNG stream.
class AllocationMethod {
 public:
  virtual ~AllocationMethod() = default;

  /// Short, stable identifier used in reports, e.g. "SbQA" or "Capacity".
  virtual std::string name() const = 0;

  /// Chooses providers for `ctx.query` from `ctx.candidates` (non-empty),
  /// writing into *decision (pre-cleared by the caller, lists keep their
  /// pooled capacity). Implementations should reuse member scratch instead
  /// of allocating per query.
  virtual void Allocate(const AllocationContext& ctx,
                        AllocationDecision* decision) = 0;
};

}  // namespace sbqa::core

#endif  // SBQA_CORE_ALLOCATION_METHOD_H_
