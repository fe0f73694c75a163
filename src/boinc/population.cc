#include "boinc/population.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/check.h"

namespace sbqa::boinc {

double InterestFraction(Popularity popularity) {
  switch (popularity) {
    case Popularity::kPopular:
      return 0.70;  // the majority of volunteers
    case Popularity::kNormal:
      return 0.45;  // a great number, but not most
    case Popularity::kUnpopular:
      return 0.15;  // a small fraction
  }
  return 0.45;
}

const char* ToString(Popularity popularity) {
  switch (popularity) {
    case Popularity::kPopular:
      return "popular";
    case Popularity::kNormal:
      return "normal";
    case Popularity::kUnpopular:
      return "unpopular";
  }
  return "?";
}

BoincSpec DemoBoincSpec(size_t volunteer_count,
                        double arrival_rate_per_project) {
  BoincSpec spec;
  spec.volunteers.count = volunteer_count;

  ProjectSpec seti;
  seti.name = "SETI@home";
  seti.popularity = Popularity::kPopular;
  seti.arrival_rate = arrival_rate_per_project;

  ProjectSpec proteins;
  proteins.name = "proteins@home";
  proteins.popularity = Popularity::kNormal;
  proteins.arrival_rate = arrival_rate_per_project;

  ProjectSpec einstein;
  einstein.name = "Einstein@home";
  einstein.popularity = Popularity::kUnpopular;
  einstein.arrival_rate = arrival_rate_per_project;

  spec.projects = {seti, proteins, einstein};
  return spec;
}

BuiltPopulation BuildPopulation(const BoincSpec& spec,
                                core::Registry* registry, util::Rng* rng,
                                size_t later_joins) {
  SBQA_CHECK(registry != nullptr);
  SBQA_CHECK(rng != nullptr);
  SBQA_CHECK(!spec.projects.empty());
  SBQA_CHECK_GE(spec.volunteers.count, 1u);

  BuiltPopulation built;

  // Projects first: their ids double as the query classes.
  for (const ProjectSpec& project : spec.projects) {
    SBQA_CHECK_GE(project.replication, 1);
    SBQA_CHECK_GE(project.quorum, 1);
    SBQA_CHECK_LE(project.quorum, project.replication);
    core::ConsumerParams params;
    params.memory_k = spec.consumer_memory_k;
    params.policy_kind = project.policy;
    params.phi = project.phi;
    params.n_results = project.replication;
    params.quorum = project.quorum;
    params.label = project.name;
    // Each project runs one application: its query class is its own id
    // (ids are dense, so the next id equals the current count).
    params.query_class =
        static_cast<model::QueryClassId>(registry->consumer_count());
    const model::ConsumerId id = registry->AddConsumer(params);
    built.projects.push_back(id);
  }

  const VolunteerPopulationSpec& vols = spec.volunteers;
  SBQA_CHECK_LT(vols.capacity_min, vols.capacity_max + 1e-12);
  // One reservation for the whole population and its later joiners:
  // windows are sized for the largest k a volunteer can draw, and no entry
  // is written until a proposal lands.
  const size_t providers =
      registry->provider_count() + vols.count + later_joins;
  const double k_max = static_cast<double>(vols.memory_k) *
                       (1.0 + std::max(0.0, vols.memory_k_spread));
  registry->ReserveProviders(
      providers, providers * static_cast<size_t>(std::ceil(k_max)));
  for (size_t i = 0; i < vols.count; ++i) {
    built.volunteers.push_back(
        AddVolunteer(spec, built.projects, registry, rng));
  }
  return built;
}

model::ProviderId AddVolunteer(const BoincSpec& spec,
                               const std::vector<model::ConsumerId>& projects,
                               core::Registry* registry, util::Rng* rng) {
  SBQA_CHECK(registry != nullptr);
  SBQA_CHECK(rng != nullptr);
  SBQA_CHECK_EQ(projects.size(), spec.projects.size());
  const VolunteerPopulationSpec& vols = spec.volunteers;

  core::ProviderParams params;
  params.capacity = rng->Uniform(vols.capacity_min, vols.capacity_max);
  params.memory_k = vols.memory_k;
  if (vols.memory_k_spread > 0) {
    const double k = static_cast<double>(vols.memory_k);
    const double drawn = rng->Uniform(k * (1.0 - vols.memory_k_spread),
                                      k * (1.0 + vols.memory_k_spread));
    params.memory_k = static_cast<size_t>(std::max(1.0, drawn));
  }
  params.satisfaction_mode = vols.satisfaction_mode;
  params.policy_kind = vols.policy;
  params.psi = vols.psi;
  params.tau_utilization = vols.tau_utilization;
  if (vols.malicious_fraction > 0 &&
      rng->Bernoulli(vols.malicious_fraction)) {
    params.error_rate = vols.error_rate;
  }
  const model::ProviderId id = registry->AddProvider(params);

  // Hardware restrictions: some hosts can only run a subset of the
  // applications (query class == consumer id in this instantiation).
  if (vols.restricted_fraction > 0 &&
      rng->Bernoulli(vols.restricted_fraction)) {
    std::vector<model::ConsumerId> runnable = rng->SampleWithoutReplacement(
        projects, std::max<size_t>(1, vols.restricted_class_count));
    std::unordered_set<model::QueryClassId> classes;
    for (model::ConsumerId project : runnable) {
      classes.insert(
          registry->consumer(project).params().query_class);
    }
    registry->provider(id).RestrictClasses(std::move(classes));
  }

  // Popularity-driven interests towards each project.
  for (size_t j = 0; j < spec.projects.size(); ++j) {
    const ProjectSpec& project = spec.projects[j];
    const bool interested =
        rng->Bernoulli(InterestFraction(project.popularity));
    const double pref = interested
                            ? rng->Uniform(vols.interested_pref_min,
                                           vols.interested_pref_max)
                            : rng->Uniform(vols.uninterested_pref_min,
                                           vols.uninterested_pref_max);
    registry->SetProviderPreference(id, projects[j], pref);
  }

  // Projects' preferences towards the volunteer: mildly positive with
  // noise (BOINC consumers cannot express rich per-host interests;
  // reputation carries most of the signal through the trading policy).
  for (model::ConsumerId cid : projects) {
    registry->consumer(cid).preferences().Set(id, rng->Uniform(0.0, 0.4));
  }
  return id;
}

}  // namespace sbqa::boinc
