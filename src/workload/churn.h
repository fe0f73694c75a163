#ifndef SBQA_WORKLOAD_CHURN_H_
#define SBQA_WORKLOAD_CHURN_H_

/// \file
/// Provider availability churn: volunteer hosts alternate between online
/// and offline periods (the BOINC reality — hosts are switched off, used
/// interactively, lose connectivity). Churn is orthogonal to departure by
/// dissatisfaction: a churned host comes back, a departed one does not.
///
/// Sharded mode: a churn process lives on its provider's owning shard and
/// its toggles go through Mediator::SetProviderAvailability, which defers
/// them to the registry's membership log — the availability change takes
/// effect at the next epoch barrier instead of mid-window (see
/// core/registry.h). Toggle *times* are still drawn mid-window from the
/// process's own per-shard RNG stream, so the op sequence is
/// bit-reproducible per (seed, shard_count).

#include <memory>
#include <vector>

#include "core/mediator.h"
#include "model/types.h"
#include "runtime/runtime.h"
#include "util/rng.h"

namespace sbqa::workload {

/// Availability parameters for one provider population.
struct ChurnParams {
  bool enabled = false;
  /// Mean online spell length in seconds (exponential).
  double mean_online = 600.0;
  /// Mean offline spell length in seconds (exponential).
  double mean_offline = 120.0;
  /// Fraction of providers online at t = 0; the rest start offline.
  double initial_online_fraction = 1.0;
};

/// Drives one provider's availability through the mediator.
class ChurnProcess {
 public:
  /// All pointers must outlive the process. Runs on `runtime`'s executor.
  ChurnProcess(rt::Runtime* runtime, core::Mediator* mediator,
               model::ProviderId provider, const ChurnParams& params);

  /// Decides the initial state and schedules the first toggle.
  void Start();

  int64_t offline_spells() const { return offline_spells_; }

 private:
  void ScheduleToggle();
  void Toggle();

  rt::Runtime* rt_;
  core::Mediator* mediator_;
  model::ProviderId provider_;
  ChurnParams params_;
  util::Rng rng_;
  bool online_ = true;
  int64_t offline_spells_ = 0;
};

/// Creates and starts one ChurnProcess per provider id.
std::vector<std::unique_ptr<ChurnProcess>> StartChurn(
    rt::Runtime* runtime, core::Mediator* mediator,
    const std::vector<model::ProviderId>& providers,
    const ChurnParams& params);

}  // namespace sbqa::workload

#endif  // SBQA_WORKLOAD_CHURN_H_
