#include "sim/scheduler.h"

#include <utility>

#include "util/check.h"

namespace sbqa::sim {

EventId Scheduler::Schedule(Time delay, util::EventFn cb) {
  SBQA_CHECK_GE(delay, 0);
  return ScheduleAt(now_ + delay, std::move(cb));
}

EventId Scheduler::ScheduleAt(Time when, util::EventFn cb) {
  SBQA_CHECK_GE(when, now_);
  return core_.Schedule(when, std::move(cb));
}

bool Scheduler::Step() {
  util::EventFn fn;
  Time when;
  // PopDue releases the event's slot before handing the callback back, so
  // self-scheduling callbacks are safe (they may reuse that very slot).
  if (!core_.PopDue(kNoEvent, &fn, &when)) return false;
  now_ = when;
  ++executed_;
  fn();
  return true;
}

size_t Scheduler::RunUntil(Time t) {
  SBQA_CHECK_GE(t, now_);
  size_t n = 0;
  stop_requested_ = false;
  util::EventFn fn;
  Time when;
  while (!stop_requested_ && core_.PopDue(t, &fn, &when)) {
    now_ = when;
    ++executed_;
    fn();
    ++n;
  }
  if (!stop_requested_ && now_ < t) now_ = t;
  return n;
}

size_t Scheduler::RunFor(Time d) { return RunUntil(now_ + d); }

size_t Scheduler::Run(size_t max_events) {
  size_t n = 0;
  stop_requested_ = false;
  while (n < max_events && !stop_requested_ && Step()) ++n;
  return n;
}

}  // namespace sbqa::sim
