#include "experiments/demo_scenarios.h"

namespace sbqa::experiments {

core::SbqaParams DefaultSbqaParams() {
  core::SbqaParams params;
  params.knbest = core::KnBestParams{20, 8};
  params.omega_mode = core::OmegaMode::kAdaptive;
  params.epsilon = 1.0;
  params.name = "SbQA";
  return params;
}

ScenarioConfig BaseDemoConfig(uint64_t seed, size_t volunteers,
                              double duration) {
  ScenarioConfig config;
  config.seed = seed;
  config.duration = duration;
  config.sample_interval = 10.0;

  // Three projects, arrival rate tuned for ~55% offered load at the default
  // population (see DESIGN.md): 3 projects x 3 q/s x 3 replicas x 5 units
  // over ~250 units/s of capacity.
  const double per_project_rate = 3.0 * static_cast<double>(volunteers) / 200.0;
  config.population = boinc::DemoBoincSpec(volunteers, per_project_rate);
  // A twentieth of the volunteer population is faulty/malicious: their
  // results fail validation, which feeds reputation.
  config.population.volunteers.malicious_fraction = 0.05;

  config.method = MethodSpec::Sbqa(DefaultSbqaParams());
  config.departure.providers_can_leave = false;
  config.departure.consumers_can_leave = false;
  return config;
}

ScenarioConfig Scenario1Config(uint64_t seed) {
  return WithCaptiveEnvironment(BaseDemoConfig(seed));
}

ScenarioConfig Scenario2Config(uint64_t seed) {
  // Longer horizon so the departure dynamics fully develop.
  ScenarioConfig config = BaseDemoConfig(seed, 200, 900.0);
  return WithAutonomousEnvironment(config);
}

ScenarioConfig Scenario3Config(uint64_t seed) {
  return WithCaptiveEnvironment(BaseDemoConfig(seed));
}

ScenarioConfig Scenario4Config(uint64_t seed) {
  ScenarioConfig config = BaseDemoConfig(seed, 200, 900.0);
  return WithAutonomousEnvironment(config);
}

ScenarioConfig Scenario5Config(uint64_t seed) {
  return WithPerformanceOrientedParticipants(Scenario3Config(seed));
}

ScenarioConfig Scenario6Config(uint64_t seed) {
  // Grid computing on volunteered resources: consumers are captive (the
  // grid owner), providers stay autonomous.
  ScenarioConfig config = BaseDemoConfig(seed, 200, 900.0);
  config.departure.providers_can_leave = true;
  config.departure.consumers_can_leave = false;
  return config;
}

ScenarioConfig Scenario7Config(uint64_t seed) {
  ScenarioConfig config = BaseDemoConfig(seed);

  // Guest project: a demo attendee playing a consumer. Strong, hand-picked
  // preferences: it loves the first quarter of the volunteer ids and
  // dislikes the rest.
  boinc::ProjectSpec guest;
  guest.name = "guest-project";
  guest.popularity = boinc::Popularity::kNormal;
  guest.arrival_rate = 1.0;
  guest.replication = 2;
  guest.quorum = 1;
  guest.policy = model::ConsumerPolicyKind::kPreferenceOnly;
  config.population.projects.push_back(guest);

  config.population_hook = [](core::Registry* registry,
                              const boinc::BuiltPopulation& population,
                              util::Rng* rng) {
    // The guest project is the last consumer.
    core::Consumer& guest_project =
        registry->consumer(population.projects.back());
    const size_t favorites = population.volunteers.size() / 4;
    for (size_t i = 0; i < population.volunteers.size(); ++i) {
      const model::ProviderId pid = population.volunteers[i];
      guest_project.preferences().Set(
          pid, i < favorites ? rng->Uniform(0.7, 1.0)
                             : rng->Uniform(-0.9, -0.4));
    }
    // The guest volunteer is the last provider: an Einstein@home devotee
    // (project index 2) who dislikes everything else.
    const model::ProviderId guest_volunteer = population.volunteers.back();
    for (size_t j = 0; j < population.projects.size(); ++j) {
      registry->SetProviderPreference(
          guest_volunteer, population.projects[j],
          j == 2 ? 0.95 : rng->Uniform(-0.9, -0.6));
    }
  };
  return config;
}

std::vector<MethodSpec> BaselineMethods() {
  return {MethodSpec::Capacity(), MethodSpec::Economic()};
}

std::vector<MethodSpec> HeadlineMethods() {
  return {MethodSpec::Sbqa(DefaultSbqaParams()), MethodSpec::Capacity(),
          MethodSpec::Economic()};
}

std::vector<MethodSpec> AllMethods() {
  return {MethodSpec::Sbqa(DefaultSbqaParams()),
          MethodSpec::Sqlb(),
          MethodSpec::KnBest(core::KnBestParams{20, 8}),
          MethodSpec::Capacity(),
          MethodSpec::Qlb(),
          MethodSpec::Economic(),
          MethodSpec::InterestOnly(),
          MethodSpec::Random(),
          MethodSpec::RoundRobin()};
}

}  // namespace sbqa::experiments
