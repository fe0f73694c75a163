#ifndef SBQA_WORKLOAD_GENERATOR_H_
#define SBQA_WORKLOAD_GENERATOR_H_

/// \file
/// Per-consumer query generators: Poisson arrival processes (optionally
/// with periodic bursts) that feed the mediator until the end of the run or
/// until the consumer retires (autonomous mode).

#include <cstdint>
#include <memory>
#include <vector>

#include "core/mediator.h"
#include "model/query.h"
#include "runtime/runtime.h"
#include "util/rng.h"
#include "workload/cost_model.h"

namespace sbqa::workload {

/// Shared monotonically increasing query id source (one per simulation —
/// or one per shard, with disjoint strided streams, so shards never
/// contend on or collide over query ids).
class QueryIdSource {
 public:
  QueryIdSource() = default;
  /// Strided stream: ids start, start+stride, ... Shard s of n uses
  /// (s + 1, n), which partitions the id space disjointly across shards
  /// and degenerates to the classic 1, 2, 3, ... for (1, 1).
  QueryIdSource(model::QueryId start, model::QueryId stride)
      : next_(start), stride_(stride) {}

  model::QueryId Next() {
    const model::QueryId id = next_;
    next_ += stride_;
    return id;
  }

 private:
  model::QueryId next_ = 1;
  model::QueryId stride_ = 1;
};

/// Arrival-process parameters for one consumer.
struct ArrivalParams {
  /// Mean arrival rate in queries/second (Poisson). Must be > 0.
  double rate = 1.0;
  /// Optional periodic burst: for `burst_duty` fraction of every
  /// `burst_period` seconds the rate is multiplied by `burst_factor`.
  /// burst_factor = 1 disables bursts.
  double burst_factor = 1.0;
  double burst_period = 60.0;
  double burst_duty = 0.2;
  /// Generation window.
  double start_time = 0.0;
  double end_time = 1e18;
  /// Per-query deadline stamped on every issued query (seconds after
  /// issue; 0 = none beyond the mediator's default timeout).
  double deadline = 0.0;
};

/// Drives one consumer's query stream into the mediator.
class QueryGenerator {
 public:
  /// All pointers must outlive the generator. Runs on `runtime`'s
  /// executor.
  QueryGenerator(rt::Runtime* runtime, core::Mediator* mediator,
                 QueryIdSource* ids, model::ConsumerId consumer,
                 const ArrivalParams& arrivals, const CostModel& cost);

  /// Schedules the first arrival.
  void Start();

  int64_t issued() const { return issued_; }

 private:
  /// Current rate, accounting for burst windows.
  double CurrentRate(double now) const;
  void ScheduleNext();
  void Issue();

  rt::Runtime* rt_;
  core::Mediator* mediator_;
  QueryIdSource* ids_;
  model::ConsumerId consumer_;
  ArrivalParams arrivals_;
  CostModel cost_;
  util::Rng rng_;
  int64_t issued_ = 0;
};

}  // namespace sbqa::workload

#endif  // SBQA_WORKLOAD_GENERATOR_H_
