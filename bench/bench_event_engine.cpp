/// \file
/// Event-engine bench: the allocation-free simulation substrate measured
/// three ways, before vs after the PR-2 engine overhaul.
///
/// 1. Raw scheduler: events/sec and heap allocations per event for (a) a
///    faithful replica of the seed engine — std::function callbacks, one
///    priority_queue entry carrying the closure, an unordered_set for
///    lazy cancellation — and (b) the EventFn + slot-versioned pool
///    engine that replaced it. The replica's rows double as the machine
///    speed reference the CI gate normalizes by.
/// 2. Pending-depth sweep, at standing event depths 1k -> 1M: the ladder
///    queue against the 4-ary reference heap (util/event_heap.h) as raw
///    structures, and the ladder through the full sim::Scheduler. The
///    heap pays O(log n) per operation against the standing depth; the
///    ladder is amortized O(1), which is the whole point of carrying it —
///    the gate requires the raw ladder to match the heap at shallow
///    depths and beat it >= 3x at million-event depth, at zero
///    allocations per event.
/// 3. End-to-end: the 800-volunteer demo scenario (the BENCH_scaling.json
///    `end_to_end` configuration) — wall time, ns per finalized query and
///    steady-state heap allocations per query (counting allocator; the
///    committed number must be zero).
///
/// The JSON dump (BENCH_event_engine.json) records all three layers plus
/// the committed BENCH_scaling.json baseline for the regression gate in CI.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <queue>
#include <thread>
#include <unordered_set>

#include "bench_common.h"
#include "core/mediator.h"
#include "core/registry.h"
#include "core/sbqa.h"
#include "model/reputation.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"
#include "util/event_heap.h"

#include "util/counting_alloc.h"

using namespace sbqa;

namespace {

using util::AllocationCount;

// --- Seed-engine replica -----------------------------------------------------

/// The pre-PR-2 scheduler, reproduced faithfully for the before/after
/// comparison: std::function callbacks ride inside the heap entries and an
/// unordered_set tracks liveness for lazy cancellation.
class LegacyScheduler {
 public:
  using Callback = std::function<void()>;

  uint64_t Schedule(double delay, Callback cb) {
    const uint64_t id = next_id_++;
    queue_.push(Event{now_ + delay, id, std::move(cb)});
    outstanding_.insert(id);
    return id;
  }

  bool Cancel(uint64_t id) { return outstanding_.erase(id) > 0; }

  /// Runs events with timestamp <= t, then advances the clock to t
  /// (mirrors Scheduler::RunUntil, so both engines can be driven with a
  /// bounded horizon that keeps the pre-filled heap depth pending).
  size_t RunUntil(double t) {
    size_t n = 0;
    while (true) {
      while (!queue_.empty() && !outstanding_.contains(queue_.top().id)) {
        queue_.pop();
      }
      if (queue_.empty() || queue_.top().when > t) break;
      Event ev = queue_.top();
      queue_.pop();
      outstanding_.erase(ev.id);
      now_ = ev.when;
      ev.cb();
      ++n;
    }
    if (now_ < t) now_ = t;
    return n;
  }

  double now() const { return now_; }

 private:
  struct Event {
    double when;
    uint64_t id;
    Callback cb;
  };
  struct Order {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Order> queue_;
  std::unordered_set<uint64_t> outstanding_;
  double now_ = 0;
  uint64_t next_id_ = 1;
};

struct EngineRow {
  double events_per_sec = 0;
  double allocs_per_event = 0;
};

/// Depth-sweep flavour of MeasureEngine: same standing-depth shape, but
/// the event body is a trivial counter bump, so the measurement is
/// dominated by the scheduling machinery (slot pool, EventFn moves,
/// dispatch, the ladder) instead of closure construction and callback
/// work.
template <typename ScheduleFn, typename RunUntilFn>
EngineRow MeasureQueueDepth(ScheduleFn&& schedule, RunUntilFn&& run_until,
                            size_t depth) {
  uint64_t sink = 0;
  const auto tick = [&sink] { ++sink; };
  for (size_t i = 0; i < depth; ++i) {
    schedule(1e9 + static_cast<double>(i), tick);
  }
  double horizon = 0;
  const auto round = [&](int count) {
    for (int i = 0; i < count; ++i) {
      schedule(static_cast<double>(i % 7) * 1e-3, tick);
    }
    horizon += 1.0;
    return run_until(horizon);
  };
  for (int r = 0; r < 10; ++r) round(64);
  using Clock = std::chrono::steady_clock;
  const uint64_t allocs_before = AllocationCount();
  const auto start = Clock::now();
  uint64_t events = 0;
  double elapsed = 0;
  while (elapsed < 0.2) {
    events += round(64);
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  EngineRow row;
  row.events_per_sec = static_cast<double>(events) / elapsed;
  row.allocs_per_event = static_cast<double>(AllocationCount() - allocs_before) /
                         static_cast<double>(events);
  return row;
}

/// Raw-structure flavour: drives the two priority structures themselves
/// (util::LadderQueue vs the reference util::EventHeap, bare 16-byte
/// entries, no pool and no callbacks) through the same standing-depth
/// workload. This is where the asymptotic difference is visible
/// undiluted — the heap's sift cost grows with the standing depth, the
/// ladder's per-entry cost does not — and it is the layer the CI gate
/// holds to the >= 3x bar at million-event depth.
template <typename PushFn, typename PopDueFn>
EngineRow MeasureRawQueue(PushFn&& push, PopDueFn&& pop_due, size_t depth) {
  uint64_t seq = 1;
  for (size_t i = 0; i < depth; ++i) {
    push(1e9 + static_cast<double>(i), seq++);
  }
  double horizon = 0;
  const auto round = [&](int count) {
    for (int i = 0; i < count; ++i) {
      push(horizon + static_cast<double>(i % 7) * 1e-3, seq++);
    }
    horizon += 1.0;
    return pop_due(horizon);
  };
  for (int r = 0; r < 10; ++r) round(64);
  using Clock = std::chrono::steady_clock;
  const uint64_t allocs_before = AllocationCount();
  const auto start = Clock::now();
  uint64_t events = 0;
  double elapsed = 0;
  while (elapsed < 0.2) {
    events += round(64);
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  EngineRow row;
  row.events_per_sec = static_cast<double>(events) / elapsed;
  row.allocs_per_event = static_cast<double>(AllocationCount() - allocs_before) /
                         static_cast<double>(events);
  return row;
}

/// Schedules 64 small-closure events per round on top of a standing heap
/// of `depth` pending far-future events, runs just the due ones (bounded
/// horizon, so the pre-fill genuinely stays in the heap), repeats until
/// ~0.2s elapsed.
template <typename ScheduleFn, typename RunUntilFn>
EngineRow MeasureEngine(ScheduleFn&& schedule, RunUntilFn&& run_until,
                        size_t depth) {
  uint64_t sink = 0;
  // The scheduled closure mirrors the mediator's hot events — a pointer
  // plus ~4 scalar captures (40 bytes): beyond std::function's inline
  // buffer, within EventFn's.
  const auto make_event = [&sink](int i) {
    return [&sink, a = static_cast<double>(i), b = 2.0,
            c = static_cast<uint64_t>(i), d = 4.0] {
      sink += static_cast<uint64_t>(a + b + d) + c;
    };
  };
  // Standing heap depth: far-future events that every due-event sift has
  // to percolate past (the mediator keeps hundreds to thousands pending).
  for (size_t i = 0; i < depth; ++i) {
    schedule(1e9 + static_cast<double>(i), make_event(static_cast<int>(i)));
  }
  double horizon = 0;
  const auto round = [&](int count) {
    for (int i = 0; i < count; ++i) {
      schedule(static_cast<double>(i % 7) * 1e-3, make_event(i));
    }
    horizon += 1.0;  // run only the due events; the pre-fill stays pending
    return run_until(horizon);
  };
  // Warm-up rounds.
  for (int r = 0; r < 10; ++r) round(64);
  using Clock = std::chrono::steady_clock;
  const uint64_t allocs_before = AllocationCount();
  const auto start = Clock::now();
  uint64_t events = 0;
  double elapsed = 0;
  while (elapsed < 0.2) {
    events += round(64);
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  EngineRow row;
  row.events_per_sec = static_cast<double>(events) / elapsed;
  row.allocs_per_event = static_cast<double>(AllocationCount() - allocs_before) /
                         static_cast<double>(events);
  return row;
}

// --- End-to-end fixtures -----------------------------------------------------

struct E2eRow {
  const char* label;
  int64_t queries = 0;
  double wall_ms = 0;
  double ns_per_query = 0;
  double consumer_satisfaction = 0;
  double mean_rt = 0;
};

E2eRow RunEndToEnd(const char* label, size_t volunteers, double duration) {
  experiments::ScenarioConfig config = experiments::WithCaptiveEnvironment(
      experiments::BaseDemoConfig(/*seed=*/42, volunteers, duration));
  config.method =
      experiments::MethodSpec::Sbqa(experiments::DefaultSbqaParams());
  // Best-of-3 wall time: the simulation is deterministic, so run-to-run
  // spread is pure scheduler/machine noise and the minimum is the honest
  // cost.
  E2eRow row;
  row.label = label;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    const experiments::RunResult r = experiments::RunScenario(config);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (attempt == 0 || wall_ms < row.wall_ms) row.wall_ms = wall_ms;
    row.queries = r.summary.queries_finalized;
    row.consumer_satisfaction = r.summary.consumer_satisfaction;
    row.mean_rt = r.summary.mean_response_time;
  }
  row.ns_per_query = row.wall_ms * 1e6 / static_cast<double>(row.queries);
  return row;
}

/// Steady-state allocation accounting for the simulate-one-query path:
/// a mediator pumped directly (no metrics collector, whose periodic
/// time-series snapshots amortize their own growth), measured after a
/// warm-up phase that grows every pool to its high-water mark.
struct AllocRow {
  double allocs_per_query_warmup = 0;  ///< pool growth, first contact
  double allocs_per_query_steady = 0;  ///< must be zero
  double events_per_query = 0;
};

AllocRow MeasureQueryAllocations(size_t providers) {
  sim::SimulationConfig sim_config;
  sim_config.seed = 42;
  sim::Simulation simulation(sim_config);
  core::Registry registry;
  core::ConsumerParams consumer_params;
  consumer_params.policy_kind = model::ConsumerPolicyKind::kReputationTrading;
  consumer_params.n_results = 3;
  registry.AddConsumer(consumer_params);
  util::Rng setup(7);
  for (size_t i = 0; i < providers; ++i) {
    core::ProviderParams params;
    params.capacity = setup.Uniform(0.5, 2.0);
    const model::ProviderId id = registry.AddProvider(params);
    registry.provider(id).preferences().Set(0, setup.Uniform(-1, 1));
    registry.consumer(0).preferences().Set(id, setup.Uniform(-1, 1));
  }
  model::ReputationRegistry reputation(registry.provider_count());
  core::SbqaParams sbqa_params;
  sbqa_params.knbest = core::KnBestParams{20, 8};
  core::Mediator mediator(&simulation.runtime(), &registry, &reputation,
                          std::make_unique<core::SbqaMethod>(sbqa_params),
                          core::MediatorConfig{});

  model::QueryId next_id = 0;
  const auto pump = [&](int queries) {
    for (int i = 0; i < queries; ++i) {
      model::Query query;
      query.id = ++next_id;
      query.consumer = 0;
      query.n_results = 3;
      query.cost = 0.5;
      mediator.SubmitQuery(query);
      simulation.RunFor(0.05);
    }
    simulation.RunFor(600.0);  // drain
  };

  AllocRow row;
  const uint64_t warm_allocs = AllocationCount();
  // Warm-up until every pool reaches its high-water mark (in-flight slots,
  // per-provider lists, timeout ring, scheduler heap).
  pump(1500);
  row.allocs_per_query_warmup =
      static_cast<double>(AllocationCount() - warm_allocs) / 1500.0;

  const uint64_t before_allocs = AllocationCount();
  const uint64_t before_events = simulation.scheduler().executed();
  pump(500);
  row.allocs_per_query_steady =
      static_cast<double>(AllocationCount() - before_allocs) / 500.0;
  row.events_per_query =
      static_cast<double>(simulation.scheduler().executed() - before_events) /
      500.0;
  return row;
}

/// Pulls the committed 800-volunteer wall-clock baseline out of
/// BENCH_scaling.json (the pre-overhaul engine's number) for the
/// regression comparison. Returns 0 when the file is missing.
double ReadScalingBaselineWallMs(const char* path) {
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0;
  std::string content;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    content.append(buffer, n);
  }
  std::fclose(f);
  const size_t e2e = content.find("\"end_to_end\"");
  if (e2e == std::string::npos) return 0;
  const size_t row = content.find("\"volunteers\": 800", e2e);
  if (row == std::string::npos) return 0;
  const size_t wall = content.find("\"wall_ms\": ", row);
  if (wall == std::string::npos) return 0;
  return std::atof(content.c_str() + wall + std::strlen("\"wall_ms\": "));
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Event-engine bench: allocation-free scheduler, queue depth, end-to-end",
      "Seed-engine replica (std::function + unordered_set) vs EventFn SBO +\n"
      "slot-versioned pool; ladder vs reference heap by standing depth;\n"
      "800-volunteer wall time and steady-state allocations per query.");

  // 1. Raw scheduler.
  util::TextTable engine_table;
  engine_table.SetHeader(
      {"engine", "depth", "events/sec", "allocs/event"});
  struct EngineResult {
    const char* engine;
    size_t depth;
    EngineRow row;
  };
  std::vector<EngineResult> engines;
  for (size_t depth : {256u, 4096u}) {
    LegacyScheduler legacy;
    const EngineRow legacy_row = MeasureEngine(
        [&legacy](double d, auto cb) { legacy.Schedule(d, std::move(cb)); },
        [&legacy](double t) { return legacy.RunUntil(t); }, depth);
    sim::Scheduler engine;
    const EngineRow engine_row = MeasureEngine(
        [&engine](double d, auto cb) { engine.Schedule(d, std::move(cb)); },
        [&engine](double t) { return engine.RunUntil(t); }, depth);
    engines.push_back({"legacy", depth, legacy_row});
    engines.push_back({"eventfn_pool", depth, engine_row});
    for (const EngineResult* r : {&engines[engines.size() - 2],
                                  &engines[engines.size() - 1]}) {
      engine_table.AddRow({r->engine, util::StrFormat("%zu", r->depth),
                           util::FormatDouble(r->row.events_per_sec / 1e6, 1) +
                               "M",
                           util::FormatDouble(r->row.allocs_per_event, 2)});
    }
  }
  std::printf("%s\n", engine_table.ToString().c_str());

  // 2. Pending-depth sweep with 1k -> 1M far-future events standing in the
  // queue while the due traffic churns: the raw ladder against the raw
  // reference heap (same (when, key) pop order — only the priority
  // structure differs), then the ladder through the full scheduler. The
  // heap's per-event cost grows with the standing depth, the ladder's
  // does not.
  util::TextTable depth_table;
  depth_table.SetHeader(
      {"layer", "queue", "depth", "events/sec", "allocs/event", "vs.heap"});
  struct DepthResult {
    const char* layer;
    const char* engine;
    size_t depth;
    EngineRow row;
  };
  std::vector<DepthResult> depth_sweep;
  // `heap_rate` is the raw heap's rate at the same depth; the scheduler
  // row has no heap of its own to compare with and passes 0.
  const auto add_depth_row = [&](const char* layer, const char* engine,
                                 size_t depth, const EngineRow& row,
                                 double heap_rate) {
    depth_sweep.push_back({layer, engine, depth, row});
    depth_table.AddRow(
        {layer, engine, util::StrFormat("%zu", depth),
         util::FormatDouble(row.events_per_sec / 1e6, 1) + "M",
         util::FormatDouble(row.allocs_per_event, 2),
         heap_rate <= 0
             ? "-"
             : util::StrFormat("%.2fx", row.events_per_sec / heap_rate)});
  };
  for (size_t depth : {1000u, 10000u, 100000u, 1000000u}) {
    // Raw structures: bare entries, the gated layer.
    util::EventHeap raw_heap;
    const EngineRow raw_heap_row = MeasureRawQueue(
        [&raw_heap](double when, uint64_t key) {
          raw_heap.push(util::LadderQueue::Entry{when, key});
        },
        [&raw_heap](double t) {
          size_t n = 0;
          while (!raw_heap.empty() && raw_heap.top().when <= t) {
            raw_heap.pop();
            ++n;
          }
          return n;
        },
        depth);
    util::LadderQueue raw_ladder;
    const EngineRow raw_ladder_row = MeasureRawQueue(
        [&raw_ladder](double when, uint64_t key) {
          raw_ladder.Push(when, key);
        },
        [&raw_ladder](double t) {
          size_t n = 0;
          for (const util::LadderQueue::Entry* e = raw_ladder.Front();
               e != nullptr && e->when <= t; e = raw_ladder.Front()) {
            raw_ladder.PopFront();
            ++n;
          }
          return n;
        },
        depth);
    add_depth_row("structure", "heap", depth, raw_heap_row,
                  raw_heap_row.events_per_sec);
    add_depth_row("structure", "ladder", depth, raw_ladder_row,
                  raw_heap_row.events_per_sec);
    // Full scheduler: the same sweep through sim::Scheduler (slot pool +
    // EventFn dispatch around the ladder) — what consumers actually feel.
    sim::Scheduler scheduler;
    const EngineRow scheduler_row = MeasureQueueDepth(
        [&scheduler](double d, auto cb) {
          scheduler.Schedule(d, std::move(cb));
        },
        [&scheduler](double t) { return scheduler.RunUntil(t); }, depth);
    add_depth_row("scheduler", "ladder", depth, scheduler_row, 0);
  }
  std::printf("%s\n", depth_table.ToString().c_str());

  // 3. End-to-end + allocations.
  const size_t volunteers = bench::EnvOr("SBQA_BENCH_VOLUNTEERS", 800);
  const double duration =
      static_cast<double>(bench::EnvOr("SBQA_BENCH_DURATION", 300));
  const double baseline_wall = ReadScalingBaselineWallMs("BENCH_scaling.json");

  std::vector<E2eRow> e2e;
  // The CI gate and the committed baseline find the end-to-end row by its
  // "exact" (per-message delivery) label.
  e2e.push_back(RunEndToEnd("exact", volunteers, duration));

  const AllocRow allocs = MeasureQueryAllocations(volunteers);

  util::TextTable e2e_table;
  e2e_table.SetHeader({"run", "queries", "wall(ms)", "ns/query", "cons.sat",
                       "mean.rt(s)", "vs.baseline"});
  for (const E2eRow& row : e2e) {
    e2e_table.AddRow(
        {row.label,
         util::StrFormat("%lld", static_cast<long long>(row.queries)),
         util::FormatDouble(row.wall_ms, 1),
         util::FormatDouble(row.ns_per_query, 0),
         util::FormatDouble(row.consumer_satisfaction, 3),
         util::FormatDouble(row.mean_rt, 3),
         baseline_wall > 0
             ? util::StrFormat("%.2fx", baseline_wall / row.wall_ms)
             : "n/a"});
  }
  std::printf("%s\n", e2e_table.ToString().c_str());
  std::printf(
      "steady-state allocations/query: %.3f (warm-up %.1f), "
      "events/query: %.1f\n\n",
      allocs.allocs_per_query_steady, allocs.allocs_per_query_warmup,
      allocs.events_per_query);

  // JSON dump for the perf trajectory + the CI regression gate.
  bench::JsonWriter json(bench::BenchJsonPath("event_engine"));
  if (json.ok()) {
    json.BeginObject();
    json.Field("bench", "bench_event_engine");
    json.Field("host_cores",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
    json.Field("compiler", bench::CompilerName());
    json.Field("build_type", bench::BuildType());
    json.BeginArray("scheduler");
    for (const auto& r : engines) {
      json.BeginObject();
      json.Field("engine", r.engine);
      json.Field("depth", r.depth);
      json.Field("events_per_sec", r.row.events_per_sec, 0);
      json.Field("allocs_per_event", r.row.allocs_per_event, 3);
      json.EndObject();
    }
    json.EndArray();
    json.BeginArray("depth_sweep");
    for (const auto& r : depth_sweep) {
      json.BeginObject();
      json.Field("layer", r.layer);
      json.Field("engine", r.engine);
      json.Field("depth", r.depth);
      json.Field("events_per_sec", r.row.events_per_sec, 0);
      json.Field("allocs_per_event", r.row.allocs_per_event, 3);
      json.EndObject();
    }
    json.EndArray();
    json.BeginObject("end_to_end");
    json.Field("volunteers", volunteers);
    json.Field("duration_s", duration, 0);
    json.Field("baseline_wall_ms", baseline_wall, 1);
    json.BeginArray("runs");
    for (const E2eRow& row : e2e) {
      json.BeginObject();
      json.Field("run", row.label);
      json.Field("queries", row.queries);
      json.Field("wall_ms", row.wall_ms, 1);
      json.Field("ns_per_query", row.ns_per_query, 0);
      json.Field("consumer_satisfaction", row.consumer_satisfaction);
      json.Field("mean_response_time_s", row.mean_rt);
      if (baseline_wall > 0) {
        json.Field("speedup_vs_baseline", baseline_wall / row.wall_ms, 2);
      }
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    json.BeginObject("allocations");
    json.Field("per_query_steady_state", allocs.allocs_per_query_steady, 3);
    json.Field("per_query_warmup", allocs.allocs_per_query_warmup, 1);
    json.Field("events_per_query", allocs.events_per_query, 1);
    json.EndObject();
    json.EndObject();
  }
  return 0;
}
