#ifndef SBQA_BOINC_POPULATION_H_
#define SBQA_BOINC_POPULATION_H_

/// \file
/// BOINC-flavoured population generation: research *projects* (consumers)
/// and *volunteers* (providers). The demo's example scenario has three
/// projects with different popularity levels —
///
///   * SETI@home       — popular:   the majority of volunteers want it,
///   * proteins@home   — normal:    a great number, but not most, want it,
///   * Einstein@home   — unpopular: most volunteers would only devote a
///                                  small fraction of their resources.
///
/// Popularity translates into the distribution of volunteer preferences
/// towards each project; heterogeneity in host speed translates into the
/// capacity distribution; malicious hosts get a non-zero result error rate
/// (driving replication/quorum validation and reputation).

#include <string>
#include <vector>

#include "core/registry.h"
#include "core/satisfaction.h"
#include "model/intention.h"
#include "util/rng.h"
#include "workload/cost_model.h"
#include "workload/generator.h"

namespace sbqa::boinc {

/// How eagerly the volunteer population wants a project's queries.
enum class Popularity {
  kPopular,    ///< majority of volunteers interested
  kNormal,     ///< many but not most
  kUnpopular,  ///< few volunteers strongly interested
};

/// Fraction of volunteers interested in a project of the given popularity
/// (the demo's "majority / great number / small fraction").
double InterestFraction(Popularity popularity);
const char* ToString(Popularity popularity);

/// One research project (one consumer).
struct ProjectSpec {
  std::string name;
  Popularity popularity = Popularity::kNormal;
  /// Work-unit batches issued per second (Poisson).
  double arrival_rate = 1.0;
  /// Replication factor: instances per query (the paper's q.n). BOINC
  /// replicates to defend against malicious volunteers.
  int replication = 3;
  /// Valid results required for the work unit to validate (quorum <=
  /// replication).
  int quorum = 2;
  /// Cost distribution of a work-unit instance.
  workload::CostModel cost = workload::CostModel::LogNormal(5.0, 0.4);
  /// How the project computes its intentions towards volunteers.
  model::ConsumerPolicyKind policy =
      model::ConsumerPolicyKind::kReputationTrading;
  /// Preference weight when trading preferences for reputation.
  double phi = 0.6;
};

/// The volunteer host population.
struct VolunteerPopulationSpec {
  size_t count = 200;
  /// Host speeds (work units/second), uniform in [capacity_min, capacity_max].
  double capacity_min = 0.5;
  double capacity_max = 2.0;
  /// Interaction-memory length k (Definitions 1-2). The paper notes k "may
  /// be different for each participant depending on its memory capacity";
  /// when memory_k_spread > 0 each volunteer draws its own k uniformly from
  /// [memory_k * (1 - spread), memory_k * (1 + spread)] (at least 1).
  size_t memory_k = 50;
  double memory_k_spread = 0.0;
  /// Definition-2 denominator convention.
  core::ProviderSatisfactionDenominator satisfaction_mode =
      core::ProviderSatisfactionDenominator::kPerformedOnly;
  /// Volunteer intention policy.
  model::ProviderPolicyKind policy =
      model::ProviderPolicyKind::kUtilizationTrading;
  /// Preference weight when trading preferences for utilization. Mostly
  /// preference-driven: volunteers donate cycles because of the cause, not
  /// because they are idle.
  double psi = 0.85;
  /// Backlog (seconds) at which a volunteer reports 50% utilization.
  double tau_utilization = 10.0;
  /// Fraction of hosts that return invalid results with `error_rate`.
  double malicious_fraction = 0.0;
  double error_rate = 0.3;
  /// Fraction of hosts whose hardware only runs a subset of the project
  /// applications (BOINC: GPU-only apps, memory limits). Restricted hosts
  /// can treat `restricted_class_count` uniformly chosen projects.
  double restricted_fraction = 0.0;
  size_t restricted_class_count = 1;
  /// Preference ranges: interested volunteers draw from
  /// [interested_pref_min, interested_pref_max], others from
  /// [uninterested_pref_min, uninterested_pref_max].
  /// Volunteers are strongly unwilling to compute for projects they did not
  /// choose (BOINC semantics: a zero resource share means "never run it").
  double interested_pref_min = 0.3;
  double interested_pref_max = 1.0;
  double uninterested_pref_min = -1.0;
  double uninterested_pref_max = -0.6;
};

/// A full BOINC-style scenario population.
struct BoincSpec {
  std::vector<ProjectSpec> projects;
  VolunteerPopulationSpec volunteers;
  /// Memory length for consumers (Definition 1).
  size_t consumer_memory_k = 50;
};

/// The demo's example scenario: SETI@home (popular), proteins@home
/// (normal), Einstein@home (unpopular) over `volunteer_count` volunteers.
/// `arrival_rate_per_project` tunes the offered load.
BoincSpec DemoBoincSpec(size_t volunteer_count = 200,
                        double arrival_rate_per_project = 3.0);

/// Ids of the participants created for a spec.
struct BuiltPopulation {
  std::vector<model::ConsumerId> projects;
  std::vector<model::ProviderId> volunteers;
};

/// Instantiates the population into `registry`. Volunteer preferences,
/// capacities and maliciousness are drawn from `rng`; consumer preferences
/// towards volunteers start mildly positive with small noise (projects are
/// mostly reputation-driven). The registry is reserved once for the
/// population plus `later_joins` volunteers (the run's join cap, when
/// joins are enabled), so runtime joins up to the cap grow no
/// per-provider table by relocation.
BuiltPopulation BuildPopulation(const BoincSpec& spec,
                                core::Registry* registry, util::Rng* rng,
                                size_t later_joins = 0);

/// Creates one additional volunteer per `spec.volunteers` (used both by
/// BuildPopulation and by the runtime join process of open systems):
/// draws capacity/maliciousness, popularity-driven preferences towards
/// `projects`, and the projects' mildly-positive preference towards it.
model::ProviderId AddVolunteer(const BoincSpec& spec,
                               const std::vector<model::ConsumerId>& projects,
                               core::Registry* registry, util::Rng* rng);

}  // namespace sbqa::boinc

#endif  // SBQA_BOINC_POPULATION_H_
