#ifndef SBQA_CORE_DEPARTURE_H_
#define SBQA_CORE_DEPARTURE_H_

/// \file
/// Threshold departure model for autonomous environments (paper Scenario 2):
/// a provider leaves the system when its satisfaction drops below 0.35 and a
/// consumer stops using the system below 0.5. In captive environments
/// (Scenario 1) the model is disabled.
///
/// Definition 2 gives an idle provider satisfaction 0, so a literal reading
/// would empty the system at t = 0. Participants therefore get a *grace
/// period* before they may act on dissatisfaction, with deterministic
/// per-participant jitter so departures do not happen as one cliff. After
/// the grace period the mediator evaluates thresholds on every satisfaction
/// update and in a periodic sweep (which also catches participants the
/// mediator never talks to — e.g. volunteers nobody proposes queries to).

#include <cstdint>

#include "core/consumer.h"
#include "core/hot_state.h"
#include "model/types.h"

namespace sbqa::core {

/// Configuration of the departure behaviour.
struct DepartureConfig {
  /// Autonomous vs captive providers.
  bool providers_can_leave = false;
  /// Autonomous vs captive consumers.
  bool consumers_can_leave = false;
  /// Paper Scenario 2 thresholds.
  double provider_threshold = 0.35;
  double consumer_threshold = 0.5;
  /// Mean time (s) a participant waits before judging the system.
  double grace_period = 200.0;
  /// Per-participant grace spread: deadline = grace_period *
  /// (1 - jitter + 2 * jitter * u(id)) with u(id) a deterministic hash.
  double grace_jitter = 0.4;
  /// Interval (s) of the mediator's periodic departure sweep.
  double sweep_interval = 10.0;
};

/// Pure decision logic; the mediator performs the actual departure
/// (cancelling in-flight work etc.).
class DepartureModel {
 public:
  explicit DepartureModel(const DepartureConfig& config) : config_(config) {}

  /// The time before which participant `id` will not leave.
  double ProviderGraceDeadline(model::ProviderId id) const {
    return GraceDeadline(static_cast<uint32_t>(id) * 2654435761u);
  }
  double ConsumerGraceDeadline(model::ConsumerId id) const {
    return GraceDeadline(static_cast<uint32_t>(id) * 40503u + 17u);
  }

  /// Whether provider `p` (a slot of `hot`) would leave at time `now`.
  bool ShouldProviderLeave(const ProviderHotState& hot, model::ProviderId p,
                           double now) const {
    const auto slot = static_cast<uint32_t>(p);
    if (!config_.providers_can_leave || !hot.alive(slot)) return false;
    if (now < ProviderGraceDeadline(p)) return false;
    return hot.Satisfaction(slot) < config_.provider_threshold;
  }

  /// Whether `c` would stop issuing queries at time `now`.
  bool ShouldConsumerRetire(const Consumer& c, double now) const {
    if (!config_.consumers_can_leave || !c.active()) return false;
    if (now < ConsumerGraceDeadline(c.id())) return false;
    return c.satisfaction() < config_.consumer_threshold;
  }

  const DepartureConfig& config() const { return config_; }

 private:
  double GraceDeadline(uint64_t salt) const {
    // SplitMix64-style avalanche -> u in [0, 1).
    uint64_t z = salt + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    return config_.grace_period *
           (1.0 - config_.grace_jitter + 2.0 * config_.grace_jitter * u);
  }

  DepartureConfig config_;
};

}  // namespace sbqa::core

#endif  // SBQA_CORE_DEPARTURE_H_
