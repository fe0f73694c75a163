/// \file
/// The paper's §I motivating example, as a runnable scenario: a Google
/// AdWords-like system where clients (consumers) issue keyword queries and
/// commercial sites (providers) have interests per topic. One provider is a
/// pharmaceutical company that runs a *promotion campaign* for its new
/// insect repellent: during the campaign it is far more interested in
/// mosquito/insect-bite queries than in general ones; when the campaign
/// ends, its intentions revert.
///
/// The point of the demo: SbQA follows the *dynamic* intentions — the
/// pharma provider's share of insect-topic queries rises during the
/// campaign window and falls back afterwards — with no reconfiguration of
/// the mediator whatsoever.

#include <array>
#include <cstdio>
#include <memory>

#include "core/mediator.h"
#include "core/sbqa.h"
#include "metrics/collector.h"
#include "model/reputation.h"
#include "sim/simulation.h"
#include "util/ascii_chart.h"
#include "util/string_util.h"
#include "util/table.h"
#include "workload/generator.h"

using namespace sbqa;

namespace {

constexpr model::QueryClassId kGeneralTopic = 0;
constexpr model::QueryClassId kInsectTopic = 1;
constexpr double kCampaignStart = 200.0;
constexpr double kCampaignEnd = 400.0;
constexpr double kRunEnd = 600.0;

}  // namespace

int main() {
  std::printf("AdWords-style campaign demo (paper §I motivating example)\n");
  std::printf("=========================================================\n\n");

  sim::SimulationConfig sim_config;
  sim_config.seed = 123;
  sim::Simulation simulation(sim_config);
  core::Registry registry;

  // Two consumers: a stream of general queries and a stream of
  // insect-related queries (two "keyword topics").
  core::ConsumerParams consumer_params;
  consumer_params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
  consumer_params.n_results = 2;  // an ad slot shows two providers
  consumer_params.label = "general-queries";
  consumer_params.query_class = kGeneralTopic;
  const model::ConsumerId general = registry.AddConsumer(consumer_params);
  consumer_params.label = "insect-queries";
  consumer_params.query_class = kInsectTopic;
  const model::ConsumerId insect = registry.AddConsumer(consumer_params);

  // Providers: 11 ordinary advertisers plus the pharma company. Advertiser
  // interests are topic-agnostic and mild; pharma starts equally mild.
  const int kProviders = 12;
  const model::ProviderId pharma = 0;
  for (int i = 0; i < kProviders; ++i) {
    core::ProviderParams params;
    params.capacity = 1.5;
    params.policy_kind = model::ProviderPolicyKind::kUtilizationTrading;
    params.psi = 0.9;  // intentions are almost pure interest
    params.label = i == pharma ? "pharma-co" : util::StrFormat("site-%d", i);
    registry.AddProvider(params);
    for (model::ConsumerId c : {general, insect}) {
      registry.provider(i).preferences().Set(c, 0.3);
      registry.consumer(c).preferences().Set(i, 0.3);
    }
  }

  model::ReputationRegistry reputation(registry.provider_count());
  core::Mediator mediator(&simulation.runtime(), &registry, &reputation,
                          std::make_unique<core::SbqaMethod>([] {
                            core::SbqaParams params;
                            params.knbest = core::KnBestParams{12, 6};
                            return params;
                          }()));
  metrics::Collector collector(&simulation, &registry, &mediator, 10.0);
  collector.Start(kRunEnd);

  // The campaign: preferences are *dynamic data* — the provider simply
  // changes them mid-run and the next mediations see the new intentions.
  simulation.scheduler().ScheduleAt(kCampaignStart, [&registry, insect,
                                                     general] {
    std::printf("[t=%4.0fs] pharma-co launches its repellent campaign\n",
                kCampaignStart);
    registry.provider(pharma).preferences().Set(insect, 0.98);
    registry.provider(pharma).preferences().Set(general, -0.2);
  });
  simulation.scheduler().ScheduleAt(kCampaignEnd, [&registry, insect,
                                                   general] {
    std::printf("[t=%4.0fs] campaign over; intentions revert\n",
                kCampaignEnd);
    registry.provider(pharma).preferences().Set(insect, 0.3);
    registry.provider(pharma).preferences().Set(general, 0.3);
  });

  // Track pharma's share of insect-topic allocations in 50s buckets.
  struct ShareTracker : core::MediationObserver {
    void OnQueryCompleted(const core::QueryOutcome& outcome) override {
      if (outcome.query.query_class != kInsectTopic) return;
      const size_t bucket =
          static_cast<size_t>(outcome.completed_at / 50.0);
      if (bucket >= total.size()) return;
      total[bucket] += outcome.performers.size();
      for (model::ProviderId p : outcome.performers) {
        if (p == 0) pharma_hits[bucket] += 1;
      }
    }
    std::array<double, 12> pharma_hits{};
    std::array<double, 12> total{};
  } shares;
  mediator.AddObserver(&shares);

  // Workload: both topics at 2 queries/s.
  workload::QueryIdSource ids;
  workload::ArrivalParams arrivals;
  arrivals.rate = 2.0;
  arrivals.end_time = kRunEnd;
  workload::QueryGenerator general_gen(&simulation.runtime(), &mediator, &ids, general,
                                       arrivals,
                                       workload::CostModel::Constant(2.0));
  workload::QueryGenerator insect_gen(&simulation.runtime(), &mediator, &ids, insect,
                                      arrivals,
                                      workload::CostModel::Constant(2.0));
  general_gen.Start();
  insect_gen.Start();
  simulation.RunUntil(kRunEnd + 30.0);

  // Report: pharma's share of insect-query allocations over time.
  std::printf("\npharma-co's share of insect-topic allocations "
              "(fair share = 1/12 = 0.083):\n\n");
  std::vector<std::string> labels;
  std::vector<double> values;
  for (size_t b = 0; b < shares.total.size(); ++b) {
    labels.push_back(util::StrFormat("t=%3zu-%3zus%s", b * 50, b * 50 + 50,
                                     (b * 50 >= kCampaignStart &&
                                      b * 50 < kCampaignEnd)
                                         ? " [campaign]"
                                         : ""));
    values.push_back(shares.total[b] > 0
                         ? shares.pharma_hits[b] / shares.total[b]
                         : 0.0);
  }
  std::printf("%s\n", util::RenderBarChart(labels, values).c_str());

  std::printf(
      "During the campaign the mediator funnels insect queries to the\n"
      "eager advertiser (intention 0.98 vs everyone's 0.3); afterwards the\n"
      "share falls back toward fair. Nothing was reconfigured: intentions\n"
      "are live data, gathered per mediation — the paper's AdWords story.\n");
  return 0;
}
