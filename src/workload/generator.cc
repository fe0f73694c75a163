#include "workload/generator.h"

#include <cmath>

#include "util/check.h"

namespace sbqa::workload {

QueryGenerator::QueryGenerator(rt::Runtime* runtime, core::Mediator* mediator,
                               QueryIdSource* ids, model::ConsumerId consumer,
                               const ArrivalParams& arrivals,
                               const CostModel& cost)
    : rt_(runtime),
      mediator_(mediator),
      ids_(ids),
      consumer_(consumer),
      arrivals_(arrivals),
      cost_(cost),
      rng_(runtime->SplitRng()) {
  SBQA_CHECK(rt_ != nullptr);
  SBQA_CHECK(mediator_ != nullptr);
  SBQA_CHECK(ids_ != nullptr);
  SBQA_CHECK_GT(arrivals.rate, 0);
  SBQA_CHECK_GE(arrivals.burst_factor, 1);
}

void QueryGenerator::Start() {
  if (arrivals_.start_time > rt_->now()) {
    rt_->ScheduleAt(arrivals_.start_time, [this] { ScheduleNext(); });
  } else {
    ScheduleNext();
  }
}

double QueryGenerator::CurrentRate(double now) const {
  if (arrivals_.burst_factor <= 1.0) return arrivals_.rate;
  const double phase = std::fmod(now, arrivals_.burst_period);
  const bool bursting = phase < arrivals_.burst_duty * arrivals_.burst_period;
  return bursting ? arrivals_.rate * arrivals_.burst_factor : arrivals_.rate;
}

void QueryGenerator::ScheduleNext() {
  const double now = rt_->now();
  if (now >= arrivals_.end_time) return;
  // Exponential inter-arrival at the current (possibly bursting) rate. A
  // rate change mid-gap slightly smears burst edges, which is acceptable
  // for this workload.
  const double gap = rng_.Exponential(CurrentRate(now));
  rt_->Schedule(gap, [this] { Issue(); });
}

void QueryGenerator::Issue() {
  if (rt_->now() >= arrivals_.end_time) return;
  const core::Consumer& consumer = mediator_->registry().consumer(consumer_);
  if (!consumer.active()) return;  // retired by dissatisfaction: stop

  model::Query query;
  query.id = ids_->Next();
  query.consumer = consumer_;
  query.query_class = consumer.params().query_class;
  query.n_results = consumer.params().n_results;
  query.cost = cost_.Sample(rng_);
  query.deadline = arrivals_.deadline;
  ++issued_;
  mediator_->SubmitQuery(query);
  ScheduleNext();
}

}  // namespace sbqa::workload
