// Provider service: each provider is a FIFO server, and the mediator keeps
// the instances it queued there as a chain with ONE pending completion per
// busy provider (src/core/README.md, "Provider service").
//
//   - Differential: random arrivals, costs, offline/online toggles and
//     departures at one and two mediators give the same completion trace
//     (time, query, provider, validity draw) as a test-local reference
//     that schedules one completion event per instance.
//   - Bound: scheduler pending events stay flat in queue depth, and a
//     dropped queue returns every record to the pool.
//   - Ties: same-time completions follow the documented tie rule.
//   - Wall clock: an Engine with provider backlog and timeouts delivers one
//     callback per ticket and serves at 0 allocations per query once warm.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <queue>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/mediator.h"
#include "engine/engine.h"
#include "model/reputation.h"
#include "sim/simulation.h"
#include "util/counting_alloc.h"
#include "util/rng.h"

namespace sbqa::core {
namespace {

/// Sends each query to the provider its plan names (plan[query id]) when
/// that provider is a candidate, and to nobody otherwise.
class PlannedMethod final : public AllocationMethod {
 public:
  explicit PlannedMethod(const std::vector<model::ProviderId>* plan)
      : plan_(plan) {}
  std::string name() const override { return "Planned"; }
  void Allocate(const AllocationContext& ctx,
                AllocationDecision* decision) override {
    const model::ProviderId p = (*plan_)[static_cast<size_t>(ctx.query->id)];
    const std::vector<model::ProviderId>& all = ctx.candidates->All();
    if (std::find(all.begin(), all.end(), p) != all.end()) {
      decision->selected.push_back(p);
    }
  }

 private:
  const std::vector<model::ProviderId>* plan_;
};

/// One finalized query: when, which query, its planned provider, and what
/// came back (results 0 = failed or unallocated).
struct Completion {
  double time;
  model::QueryId query;
  model::ProviderId provider;
  int results;
  int valid;
  bool unallocated;

  bool operator==(const Completion&) const = default;
  bool operator<(const Completion& o) const {
    return std::tie(time, query) < std::tie(o.time, o.query);
  }
};

std::ostream& operator<<(std::ostream& os, const Completion& c) {
  return os << "{t=" << c.time << " q=" << c.query << " p=" << c.provider
            << " results=" << c.results << " valid=" << c.valid
            << " unallocated=" << c.unallocated << "}";
}

struct TraceObserver : MediationObserver {
  explicit TraceObserver(const std::vector<model::ProviderId>* plan)
      : plan(plan) {}
  void OnQueryCompleted(const QueryOutcome& outcome) override {
    trace.push_back({outcome.completed_at, outcome.query.id,
                     (*plan)[static_cast<size_t>(outcome.query.id)],
                     outcome.results_received, outcome.valid_results,
                     outcome.unallocated});
  }
  const std::vector<model::ProviderId>* plan;
  std::vector<Completion> trace;
};

struct ProviderSpec {
  double capacity;
  double error_rate;
};

/// A system of `providers` on one simulation with `mediators` peer
/// mediators routing every query by `plan`; no network latency.
struct ServiceSystem {
  ServiceSystem(const std::vector<ProviderSpec>& providers, size_t mediators,
                uint64_t seed) {
    sim::SimulationConfig sim_config;
    sim_config.seed = seed;
    simulation = std::make_unique<sim::Simulation>(sim_config);
    ConsumerParams consumer_params;
    consumer_params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
    consumer_params.n_results = 1;
    consumer = registry.AddConsumer(consumer_params);
    for (const ProviderSpec& spec : providers) {
      ProviderParams params;
      params.capacity = spec.capacity;
      params.error_rate = spec.error_rate;
      params.policy_kind = model::ProviderPolicyKind::kPreferenceOnly;
      registry.AddProvider(params);
    }
    reputation = std::make_unique<model::ReputationRegistry>(
        registry.provider_count());
    MediatorConfig config;
    config.simulate_network = false;
    config.query_timeout = 1e6;
    observer = std::make_unique<TraceObserver>(&plan);
    std::vector<Mediator*> group;
    for (size_t m = 0; m < mediators; ++m) {
      this->mediators.push_back(std::make_unique<Mediator>(
          simulation.get(), &registry, reputation.get(),
          std::make_unique<PlannedMethod>(&plan), config));
      this->mediators.back()->AddObserver(observer.get());
      group.push_back(this->mediators.back().get());
    }
    for (Mediator* m : group) m->SetPeers(group);
  }

  /// Submits query `id` (planned onto `provider`) through mediator `m`.
  void Submit(size_t m, model::QueryId id, model::ProviderId provider,
              double cost) {
    if (plan.size() <= static_cast<size_t>(id)) {
      plan.resize(static_cast<size_t>(id) + 1, model::kInvalidId);
    }
    plan[static_cast<size_t>(id)] = provider;
    model::Query q;
    q.id = id;
    q.consumer = consumer;
    q.n_results = 1;
    q.cost = cost;
    mediators[m]->SubmitQuery(q);
  }

  size_t queued_instances() const {
    size_t n = 0;
    for (const auto& m : mediators) n += m->queued_instance_count();
    return n;
  }

  std::unique_ptr<sim::Simulation> simulation;
  Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::vector<model::ProviderId> plan;
  std::unique_ptr<TraceObserver> observer;
  std::vector<std::unique_ptr<Mediator>> mediators;
  model::ConsumerId consumer = 0;
};

// --- Differential ------------------------------------------------------------

struct Op {
  enum Kind { kSubmit, kOffline, kOnline, kDepart } kind;
  double at;
  model::ProviderId provider;
  model::QueryId query = 0;
  double cost = 0;
  size_t mediator = 0;
};

/// Random traffic over `providers`: planned submissions (enough to build
/// queues), offline spells and one departure, at distinct random times.
std::vector<Op> RandomScript(util::Rng& rng, size_t providers,
                             size_t mediators) {
  constexpr double kHorizon = 200;
  std::vector<Op> ops;
  for (model::QueryId q = 0; q < 600; ++q) {
    ops.push_back({Op::kSubmit, rng.Uniform(0, kHorizon),
                   static_cast<model::ProviderId>(rng.UniformInt(
                       0, static_cast<int64_t>(providers) - 1)),
                   q, rng.Uniform(0.5, 4.0),
                   static_cast<size_t>(q) % mediators});
  }
  for (int i = 0; i < 20; ++i) {
    const auto p = static_cast<model::ProviderId>(
        rng.UniformInt(0, static_cast<int64_t>(providers) - 1));
    const double off = rng.Uniform(0, kHorizon);
    ops.push_back({Op::kOffline, off, p});
    ops.push_back({Op::kOnline, off + rng.Uniform(5, 30), p});
  }
  ops.push_back({Op::kDepart, rng.Uniform(kHorizon / 2, kHorizon),
                 static_cast<model::ProviderId>(rng.UniformInt(
                     0, static_cast<int64_t>(providers) - 1))});
  std::sort(ops.begin(), ops.end(),
            [](const Op& a, const Op& b) { return a.at < b.at; });
  return ops;
}

/// The reference service: every arrived instance gets its own completion
/// event at its finish time, stamped with the provider's queue epoch;
/// dropping the queue bumps the epoch and fails what it held.
/// Validity draws come from copies of the mediators' streams, in each
/// mediator's completion order.
std::vector<Completion> ReferenceTrace(const std::vector<ProviderSpec>& specs,
                                       const std::vector<Op>& ops,
                                       std::vector<util::Rng> rngs) {
  struct ProviderState {
    double busy_until = 0;
    uint64_t epoch = 0;
    bool alive = true;
    bool departed = false;
    std::vector<model::QueryId> queued;
  };
  struct Event {
    double at;
    uint64_t seq;
    size_t op;  // ops.size() for a completion
    model::ProviderId provider;
    model::QueryId query;
    uint64_t epoch;
    size_t mediator;
    bool operator>(const Event& o) const {
      return std::tie(at, seq) > std::tie(o.at, o.seq);
    }
  };
  std::vector<ProviderState> state(specs.size());
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  uint64_t seq = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    events.push({ops[i].at, seq++, i, ops[i].provider, 0, 0, 0});
  }
  std::vector<Completion> trace;
  const auto drop = [&trace](ProviderState& s, model::ProviderId p,
                             double now) {
    s.busy_until = now;
    ++s.epoch;
    for (model::QueryId q : s.queued) trace.push_back({now, q, p, 0, 0, false});
    s.queued.clear();
  };
  while (!events.empty()) {
    const Event e = events.top();
    events.pop();
    ProviderState& s = state[static_cast<size_t>(e.provider)];
    if (e.op == ops.size()) {  // completion
      if (e.epoch != s.epoch) continue;
      const bool valid = !rngs[e.mediator].Bernoulli(
          specs[static_cast<size_t>(e.provider)].error_rate);
      s.queued.erase(std::find(s.queued.begin(), s.queued.end(), e.query));
      trace.push_back({e.at, e.query, e.provider, 1, valid ? 1 : 0, false});
      continue;
    }
    const Op& op = ops[e.op];
    switch (op.kind) {
      case Op::kSubmit: {
        if (!s.alive) {
          trace.push_back({op.at, op.query, op.provider, 0, 0, true});
          break;
        }
        const double start = s.busy_until > op.at ? s.busy_until : op.at;
        s.busy_until =
            start + op.cost / specs[static_cast<size_t>(op.provider)].capacity;
        s.queued.push_back(op.query);
        events.push({s.busy_until, seq++, ops.size(), op.provider, op.query,
                     s.epoch, op.mediator});
        break;
      }
      case Op::kOffline:
        if (s.departed || !s.alive) break;
        s.alive = false;
        drop(s, op.provider, op.at);
        break;
      case Op::kOnline:
        if (!s.departed) s.alive = true;
        break;
      case Op::kDepart:
        if (s.departed) break;
        s.departed = true;
        s.alive = false;
        drop(s, op.provider, op.at);
        break;
    }
  }
  std::sort(trace.begin(), trace.end());
  return trace;
}

class ProviderServiceDifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(ProviderServiceDifferentialTest, ChainedTraceMatchesPerInstanceEvents) {
  const auto [mediators, seed] = GetParam();
  util::Rng rng(seed);
  std::vector<ProviderSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back({rng.Uniform(0.5, 2.0), rng.Uniform(0.1, 0.6)});
  }
  const std::vector<Op> ops = RandomScript(rng, specs.size(), mediators);

  ServiceSystem sys(specs, mediators, seed);
  std::vector<util::Rng> rngs;
  for (const auto& m : sys.mediators) rngs.push_back(m->rng());
  for (const Op& op : ops) {
    sys.simulation->scheduler().ScheduleAt(op.at, [&sys, op] {
      switch (op.kind) {
        case Op::kSubmit:
          sys.Submit(op.mediator, op.query, op.provider, op.cost);
          break;
        case Op::kOffline:
          sys.mediators[0]->SetProviderAvailability(op.provider, false);
          break;
        case Op::kOnline:
          sys.mediators[0]->SetProviderAvailability(op.provider, true);
          break;
        case Op::kDepart:
          sys.mediators[0]->ApplyProviderDeparture(op.provider);
          break;
      }
    });
  }
  sys.simulation->RunUntil(1e7);

  std::vector<Completion> trace = sys.observer->trace;
  std::sort(trace.begin(), trace.end());
  const std::vector<Completion> reference =
      ReferenceTrace(specs, ops, std::move(rngs));
  ASSERT_EQ(trace.size(), 600u);
  EXPECT_EQ(trace, reference);
  // The script exercised every path: completions with both validity
  // outcomes, dropped queues and unallocated submissions.
  const auto count = [&trace](auto pred) {
    return std::count_if(trace.begin(), trace.end(), pred);
  };
  EXPECT_GT(count([](const Completion& c) { return c.valid == 1; }), 0);
  EXPECT_GT(count([](const Completion& c) {
              return c.results == 1 && c.valid == 0;
            }),
            0);
  EXPECT_GT(count([](const Completion& c) {
              return c.results == 0 && !c.unallocated;
            }),
            0);
  EXPECT_GT(count([](const Completion& c) { return c.unallocated; }), 0);
  // Drained: no record held, no event left (stale heads of dropped chains
  // fired and returned).
  EXPECT_EQ(sys.queued_instances(), 0u);
  EXPECT_EQ(sys.simulation->scheduler().pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MediatorsAndSeeds, ProviderServiceDifferentialTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}),
                       ::testing::Values(uint64_t{11}, uint64_t{12},
                                         uint64_t{13})));

// --- Bound -------------------------------------------------------------------

TEST(ProviderServiceBoundTest, PendingEventsStayFlatInQueueDepth) {
  // One slow provider: every instance waits behind all earlier ones.
  ServiceSystem sys({{1e-3, 0.0}}, 1, 3);
  Mediator& mediator = *sys.mediators[0];
  const auto submit = [&sys](int first, int count) {
    for (int i = first; i < first + count; ++i) sys.Submit(0, i, 0, 1.0);
    sys.simulation->RunFor(1.0);
  };
  submit(0, 100);
  // One completion for the busy provider plus the timeout sweep.
  const size_t shallow = sys.simulation->scheduler().pending();
  EXPECT_EQ(shallow, 2u);
  submit(100, 9900);
  EXPECT_EQ(mediator.queued_instance_count(), 10000u);
  EXPECT_EQ(mediator.inflight_count(), 10000u);
  EXPECT_EQ(sys.simulation->scheduler().pending(), shallow)
      << "pending events must not grow with the provider's queue";

  // Dropping the queue fails every query and frees every record.
  mediator.SetProviderAvailability(0, false);
  EXPECT_EQ(mediator.inflight_count(), 0u);
  EXPECT_EQ(mediator.queued_instance_count(), 0u);
  EXPECT_EQ(mediator.queued_record_capacity(), 10000u);
  EXPECT_EQ(sys.observer->trace.size(), 10000u);

  // A refilled queue recycles the freed records.
  mediator.SetProviderAvailability(0, true);
  submit(10000, 10000);
  EXPECT_EQ(mediator.queued_instance_count(), 10000u);
  EXPECT_EQ(mediator.queued_record_capacity(), 10000u);
}

// --- Ties --------------------------------------------------------------------

TEST(ProviderServiceTieTest, SameTimeCompletionsFollowTheChainsLastService) {
  // Eight equal providers, equal costs, no network: every completion at
  // t = 1, 2, 3, 4 is a tie. Each provider gets four instances; the first
  // instances arrive in provider order 0..7, the later ones in a shuffled
  // provider order. The tie rule: a queued instance's completion is
  // scheduled when its predecessor completes, so at each instant the
  // providers complete in the order their previous instances completed —
  // here always 0..7 — whatever order the instances arrived in. (One event
  // per instance would instead complete the later depths in arrival
  // order.)
  constexpr int kProviders = 8;
  constexpr int kDepth = 4;
  ServiceSystem sys(std::vector<ProviderSpec>(kProviders, {1.0, 0.0}), 1, 5);
  const std::vector<std::vector<int>> arrival_order = {
      {0, 1, 2, 3, 4, 5, 6, 7},
      {7, 6, 5, 4, 3, 2, 1, 0},
      {3, 0, 6, 1, 7, 4, 2, 5},
      {5, 2, 7, 0, 4, 1, 6, 3}};
  std::vector<std::vector<model::QueryId>> query_of(
      kDepth, std::vector<model::QueryId>(kProviders));
  model::QueryId next = 0;
  for (int depth = 0; depth < kDepth; ++depth) {
    for (int p : arrival_order[static_cast<size_t>(depth)]) {
      query_of[static_cast<size_t>(depth)][static_cast<size_t>(p)] = next;
      sys.Submit(0, next++, p, 1.0);
    }
  }
  sys.simulation->RunUntil(100);

  std::vector<model::QueryId> expected;
  for (int depth = 0; depth < kDepth; ++depth) {
    for (int p = 0; p < kProviders; ++p) {
      expected.push_back(
          query_of[static_cast<size_t>(depth)][static_cast<size_t>(p)]);
    }
  }
  std::vector<model::QueryId> completed;
  for (const Completion& c : sys.observer->trace) {
    EXPECT_EQ(c.time,
              1.0 + static_cast<double>(completed.size() / kProviders));
    completed.push_back(c.query);
  }
  EXPECT_EQ(completed, expected);
}

}  // namespace
}  // namespace sbqa::core

// --- Wall clock --------------------------------------------------------------

namespace sbqa {
namespace {

/// Four capacity-1 providers, two consumers asking for two results each.
std::vector<model::ConsumerId> BuildBacklogPopulation(Engine* engine) {
  std::vector<model::ConsumerId> consumers;
  for (int c = 0; c < 2; ++c) {
    ConsumerOptions consumer;
    consumer.n_results = 2;
    consumers.push_back(engine->AddConsumer(consumer));
  }
  for (int i = 0; i < 4; ++i) {
    const model::ProviderId p = engine->AddProvider(ProviderOptions{});
    for (model::ConsumerId c : consumers) {
      engine->SetConsumerPreference(c, p, 0.6);
      engine->SetProviderPreference(p, c, 0.5);
    }
  }
  return consumers;
}

TEST(ProviderServiceEngineTest, BacklogAndTimeoutsGiveOneCallbackPerTicket) {
  // Real shard workers: bursts queue ~0.2 s of work per provider against a
  // 20 ms timeout, so most queries time out while their instances stay
  // queued, and later bursts land on providers still serving them.
  EngineOptions options;
  options.mode = EngineMode::kWallClock;
  options.seed = 21;
  options.shards = 2;
  options.query_timeout = 0.02;
  options.max_pending = 1024;
  Engine engine(std::move(options));
  const std::vector<model::ConsumerId> consumers =
      BuildBacklogPopulation(&engine);
  engine.Start();

  constexpr int kQueries = 600;
  std::vector<std::atomic<int>> callbacks(kQueries);
  std::vector<std::atomic<uint64_t>> delivered(kQueries);
  std::vector<uint64_t> tickets(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    tickets[static_cast<size_t>(i)] = engine.Submit(
        {consumers[static_cast<size_t>(i) % consumers.size()], 0, 2, 0.004},
        [&callbacks, &delivered, i](const QueryResult& r) {
          callbacks[static_cast<size_t>(i)].fetch_add(1);
          delivered[static_cast<size_t>(i)].store(r.ticket);
        });
    if (i % 200 == 199) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  }
  ASSERT_TRUE(engine.WaitIdle(30.0));
  engine.Stop();

  for (int i = 0; i < kQueries; ++i) {
    EXPECT_EQ(callbacks[static_cast<size_t>(i)].load(), 1) << "query " << i;
    if (tickets[static_cast<size_t>(i)] != 0) {
      EXPECT_EQ(delivered[static_cast<size_t>(i)].load(),
                tickets[static_cast<size_t>(i)]);
    }
  }
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_in_flight, 0);
  EXPECT_GT(stats.queries_timed_out, 0) << "the backlog must outlast timeouts";
}

TEST(ProviderServiceEngineTest, BackloggedServingIsAllocationFreeOnceWarm) {
  // Manual clock, so the count is exact: each round queues ~16 ms of work
  // per provider in 0.5 ms services against a 5 ms timeout, then lets the
  // providers drain. Time advances by 2 ms barrier windows, so each window
  // finds several queued instances already due behind one late head.
  EngineOptions options;
  options.mode = EngineMode::kWallClock;
  options.wallclock.manual_clock = true;
  options.seed = 22;
  options.shards = 2;
  options.query_timeout = 0.005;
  options.max_pending = 256;
  Engine engine(std::move(options));
  const std::vector<model::ConsumerId> consumers =
      BuildBacklogPopulation(&engine);
  engine.Start();

  int64_t callbacks = 0;
  int64_t timed_out = 0;
  const auto round = [&] {
    for (int i = 0; i < 64; ++i) {
      engine.Submit({consumers[static_cast<size_t>(i) % consumers.size()], 0,
                     2, 0.0005},
                    [&callbacks, &timed_out](const QueryResult& r) {
                      ++callbacks;
                      if (r.timed_out) ++timed_out;
                    });
    }
    engine.RunFor(0.001);
    EXPECT_TRUE(engine.WaitIdle(10.0));
    engine.RunFor(1.0);  // the timed-out queries' instances finish
  };
  round();
  round();  // warm-up: every pool at its high-water mark

  const uint64_t before = util::AllocationCount();
  round();
  round();
  EXPECT_EQ(util::AllocationCount() - before, 0u)
      << "backlogged serving must not allocate once warm";
  EXPECT_EQ(callbacks, 4 * 64);
  EXPECT_GT(timed_out, 0);
  // Every queued instance was served, the ones behind late timers too.
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.instances_completed, stats.instances_dispatched);
  EXPECT_EQ(stats.instances_failed, 0);
  engine.Stop();
}

}  // namespace
}  // namespace sbqa
