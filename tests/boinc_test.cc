// Tests for the BOINC population generator.

#include "boinc/population.h"

#include <gtest/gtest.h>

namespace sbqa::boinc {
namespace {

TEST(PopularityTest, InterestFractionsOrdered) {
  EXPECT_GT(InterestFraction(Popularity::kPopular), 0.5);  // the majority
  EXPECT_LT(InterestFraction(Popularity::kNormal),
            InterestFraction(Popularity::kPopular));
  EXPECT_LT(InterestFraction(Popularity::kUnpopular),
            InterestFraction(Popularity::kNormal));
}

TEST(PopularityTest, Names) {
  EXPECT_STREQ(ToString(Popularity::kPopular), "popular");
  EXPECT_STREQ(ToString(Popularity::kNormal), "normal");
  EXPECT_STREQ(ToString(Popularity::kUnpopular), "unpopular");
}

TEST(DemoSpecTest, HasThePaperProjects) {
  const BoincSpec spec = DemoBoincSpec(100, 2.0);
  ASSERT_EQ(spec.projects.size(), 3u);
  EXPECT_EQ(spec.projects[0].name, "SETI@home");
  EXPECT_EQ(spec.projects[0].popularity, Popularity::kPopular);
  EXPECT_EQ(spec.projects[1].name, "proteins@home");
  EXPECT_EQ(spec.projects[1].popularity, Popularity::kNormal);
  EXPECT_EQ(spec.projects[2].name, "Einstein@home");
  EXPECT_EQ(spec.projects[2].popularity, Popularity::kUnpopular);
  EXPECT_EQ(spec.volunteers.count, 100u);
  for (const ProjectSpec& p : spec.projects) {
    EXPECT_DOUBLE_EQ(p.arrival_rate, 2.0);
    EXPECT_LE(p.quorum, p.replication);
  }
}

TEST(BuildPopulationTest, CountsMatchSpec) {
  core::Registry registry;
  util::Rng rng(1);
  const BoincSpec spec = DemoBoincSpec(50);
  const BuiltPopulation built = BuildPopulation(spec, &registry, &rng);
  EXPECT_EQ(built.projects.size(), 3u);
  EXPECT_EQ(built.volunteers.size(), 50u);
  EXPECT_EQ(registry.consumer_count(), 3u);
  EXPECT_EQ(registry.provider_count(), 50u);
}

TEST(BuildPopulationTest, QueryClassesMatchProjectIds) {
  core::Registry registry;
  util::Rng rng(2);
  const BuiltPopulation built =
      BuildPopulation(DemoBoincSpec(10), &registry, &rng);
  for (size_t i = 0; i < built.projects.size(); ++i) {
    EXPECT_EQ(registry.consumer(built.projects[i]).params().query_class,
              static_cast<model::QueryClassId>(built.projects[i]));
  }
}

TEST(BuildPopulationTest, CapacitiesWithinConfiguredRange) {
  core::Registry registry;
  util::Rng rng(3);
  BoincSpec spec = DemoBoincSpec(100);
  spec.volunteers.capacity_min = 0.5;
  spec.volunteers.capacity_max = 2.0;
  BuildPopulation(spec, &registry, &rng);
  for (const core::Provider& p : registry.providers()) {
    EXPECT_GE(p.capacity(), 0.5);
    EXPECT_LE(p.capacity(), 2.0);
  }
}

TEST(BuildPopulationTest, PreferencesFollowPopularity) {
  core::Registry registry;
  util::Rng rng(4);
  const BoincSpec spec = DemoBoincSpec(2000);  // large for tight statistics
  const BuiltPopulation built = BuildPopulation(spec, &registry, &rng);

  // Count volunteers with positive preference for each project.
  std::vector<double> positive(3, 0);
  for (model::ProviderId v : built.volunteers) {
    for (size_t j = 0; j < 3; ++j) {
      if (registry.provider(v).preferences().Get(built.projects[j]) > 0) {
        positive[j] += 1;
      }
    }
  }
  const double n = static_cast<double>(built.volunteers.size());
  EXPECT_NEAR(positive[0] / n, 0.70, 0.04);  // popular
  EXPECT_NEAR(positive[1] / n, 0.45, 0.04);  // normal
  EXPECT_NEAR(positive[2] / n, 0.15, 0.04);  // unpopular
}

TEST(BuildPopulationTest, PreferenceValuesInConfiguredBands) {
  core::Registry registry;
  util::Rng rng(5);
  const BoincSpec spec = DemoBoincSpec(500);
  const BuiltPopulation built = BuildPopulation(spec, &registry, &rng);
  for (model::ProviderId v : built.volunteers) {
    for (model::ConsumerId c : built.projects) {
      const double pref = registry.provider(v).preferences().Get(c);
      const bool interested = pref >= spec.volunteers.interested_pref_min;
      const bool uninterested = pref <= spec.volunteers.uninterested_pref_max;
      EXPECT_TRUE(interested || uninterested) << "pref=" << pref;
    }
  }
}

TEST(BuildPopulationTest, MaliciousFractionRoughlyRespected) {
  core::Registry registry;
  util::Rng rng(6);
  BoincSpec spec = DemoBoincSpec(1000);
  spec.volunteers.malicious_fraction = 0.2;
  spec.volunteers.error_rate = 0.5;
  BuildPopulation(spec, &registry, &rng);
  int malicious = 0;
  for (const core::Provider& p : registry.providers()) {
    if (p.error_rate() > 0) {
      ++malicious;
      EXPECT_DOUBLE_EQ(p.error_rate(), 0.5);
    }
  }
  EXPECT_NEAR(malicious, 200, 50);
}

TEST(BuildPopulationTest, DeterministicForFixedSeed) {
  auto build = [] {
    core::Registry registry;
    util::Rng rng(42);
    BuildPopulation(DemoBoincSpec(50), &registry, &rng);
    std::vector<double> caps;
    for (const core::Provider& p : registry.providers()) {
      caps.push_back(p.capacity());
      caps.push_back(p.preferences().Get(0));
    }
    return caps;
  };
  EXPECT_EQ(build(), build());
}

TEST(BuildPopulationTest, ProjectPreferencesTowardVolunteersMildlyPositive) {
  core::Registry registry;
  util::Rng rng(7);
  const BuiltPopulation built =
      BuildPopulation(DemoBoincSpec(100), &registry, &rng);
  for (model::ConsumerId c : built.projects) {
    for (model::ProviderId v : built.volunteers) {
      const double pref = registry.consumer(c).preferences().Get(v);
      EXPECT_GE(pref, 0.0);
      EXPECT_LE(pref, 0.4);
    }
  }
}

TEST(BuildPopulationTest, ReplicationAndQuorumWiredIntoConsumers) {
  core::Registry registry;
  util::Rng rng(8);
  BoincSpec spec = DemoBoincSpec(10);
  spec.projects[0].replication = 5;
  spec.projects[0].quorum = 3;
  const BuiltPopulation built = BuildPopulation(spec, &registry, &rng);
  EXPECT_EQ(registry.consumer(built.projects[0]).params().n_results, 5);
  EXPECT_EQ(registry.consumer(built.projects[0]).params().quorum, 3);
}

TEST(BuildPopulationTest, HeterogeneousMemoryLengths) {
  core::Registry registry;
  util::Rng rng(12);
  BoincSpec spec = DemoBoincSpec(200);
  spec.volunteers.memory_k = 50;
  spec.volunteers.memory_k_spread = 0.5;  // k in [25, 75]
  BuildPopulation(spec, &registry, &rng);
  size_t min_k = 1000, max_k = 0;
  for (const core::Provider& p : registry.providers()) {
    const size_t k = p.satisfaction_tracker().capacity();
    EXPECT_GE(k, 25u);
    EXPECT_LE(k, 75u);
    min_k = std::min(min_k, k);
    max_k = std::max(max_k, k);
  }
  EXPECT_LT(min_k, 35u);  // the spread is actually used
  EXPECT_GT(max_k, 65u);
}

TEST(BuildPopulationTest, ZeroSpreadKeepsUniformMemory) {
  core::Registry registry;
  util::Rng rng(13);
  BoincSpec spec = DemoBoincSpec(20);
  spec.volunteers.memory_k = 40;
  BuildPopulation(spec, &registry, &rng);
  for (const core::Provider& p : registry.providers()) {
    EXPECT_EQ(p.satisfaction_tracker().capacity(), 40u);
  }
}

TEST(BuildPopulationTest, RestrictedHostsCanOnlyTreatSubset) {
  core::Registry registry;
  util::Rng rng(10);
  BoincSpec spec = DemoBoincSpec(300);
  spec.volunteers.restricted_fraction = 0.5;
  spec.volunteers.restricted_class_count = 1;
  const BuiltPopulation built = BuildPopulation(spec, &registry, &rng);

  int restricted = 0;
  for (model::ProviderId v : built.volunteers) {
    const core::Provider& p = registry.provider(v);
    int treatable = 0;
    for (model::ConsumerId project : built.projects) {
      if (p.CanTreat(registry.consumer(project).params().query_class)) {
        ++treatable;
      }
    }
    if (treatable < 3) {
      ++restricted;
      EXPECT_EQ(treatable, 1);  // restricted hosts run exactly one app
    }
  }
  EXPECT_NEAR(restricted, 150, 40);
}

TEST(BuildPopulationTest, RestrictedPopulationStillServesAllProjects) {
  // Every project must keep a non-empty provider pool even under heavy
  // restriction (statistically guaranteed at this size).
  core::Registry registry;
  util::Rng rng(11);
  BoincSpec spec = DemoBoincSpec(100);
  spec.volunteers.restricted_fraction = 1.0;
  spec.volunteers.restricted_class_count = 1;
  const BuiltPopulation built = BuildPopulation(spec, &registry, &rng);
  for (model::ConsumerId project : built.projects) {
    model::Query q;
    q.consumer = project;
    q.query_class = registry.consumer(project).params().query_class;
    EXPECT_GT(registry.ProvidersFor(q).size(), 10u);
  }
}

TEST(BuildPopulationDeathTest, InvalidQuorumAborts) {
  core::Registry registry;
  util::Rng rng(9);
  BoincSpec spec = DemoBoincSpec(10);
  spec.projects[0].quorum = 10;  // > replication
  EXPECT_DEATH(BuildPopulation(spec, &registry, &rng), "CHECK failed");
}

}  // namespace
}  // namespace sbqa::boinc
