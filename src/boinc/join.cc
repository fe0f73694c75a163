#include "boinc/join.h"

#include "util/check.h"

namespace sbqa::boinc {

VolunteerJoinProcess::VolunteerJoinProcess(
    rt::Runtime* runtime, core::Mediator* mediator,
    model::ReputationRegistry* reputation, const BoincSpec& spec,
    std::vector<model::ConsumerId> projects,
    const VolunteerJoinParams& params, const workload::ChurnParams& churn)
    : rt_(runtime),
      mediator_(mediator),
      reputation_(reputation),
      spec_(spec),
      projects_(std::move(projects)),
      params_(params),
      churn_(churn),
      rng_(runtime->SplitRng()) {
  SBQA_CHECK(rt_ != nullptr);
  SBQA_CHECK(mediator_ != nullptr);
  SBQA_CHECK(reputation_ != nullptr);
  SBQA_CHECK_GT(params.rate, 0);
}

void VolunteerJoinProcess::Start() {
  if (!params_.enabled) return;
  if (params_.start_time > rt_->now()) {
    rt_->ScheduleAt(params_.start_time, [this] { ScheduleNext(); });
  } else {
    ScheduleNext();
  }
}

void VolunteerJoinProcess::ScheduleNext() {
  if (static_cast<size_t>(joined_) >= params_.max_joins) return;
  rt_->Schedule(rng_.Exponential(params_.rate), [this] { Join(); });
}

void VolunteerJoinProcess::Join() {
  if (static_cast<size_t>(joined_) >= params_.max_joins) return;
  if (mediator_->deferred_membership()) {
    // Epoch op: the volunteer is drawn (from this process's rng_) and
    // added at the next barrier, with every shard worker parked. The
    // epoch applier handles reputation growth and churn wiring on the
    // owner shard; joined_ids_ is filled at apply time on the driver.
    ++joined_;
    mediator_->QueueJoin([this](core::Registry* registry) {
      const model::ProviderId id =
          AddVolunteer(spec_, projects_, registry, &rng_);
      joined_ids_.push_back(id);
      return id;
    });
  } else {
    const model::ProviderId id =
        AddVolunteer(spec_, projects_, &mediator_->registry(), &rng_);
    reputation_->GrowTo(mediator_->registry().provider_count());
    ++joined_;
    joined_ids_.push_back(id);
    if (churn_.enabled) {
      churn_processes_.push_back(std::make_unique<workload::ChurnProcess>(
          rt_, mediator_, id, churn_));
      churn_processes_.back()->Start();
    }
  }
  ScheduleNext();
}

}  // namespace sbqa::boinc
