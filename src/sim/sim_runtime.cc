#include "sim/sim_runtime.h"

#include <utility>

#include "boinc/join.h"
#include "core/mediator.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "util/check.h"
#include "workload/churn.h"

namespace sbqa::sim {

SimRuntime::SimRuntime(Simulation* sim) : sim_(sim) {
  SBQA_CHECK(sim_ != nullptr);
}

rt::Time SimRuntime::now() const { return sim_->now(); }

rt::TaskId SimRuntime::Schedule(rt::Time delay, rt::TaskFn fn) {
  return sim_->scheduler().Schedule(delay, std::move(fn));
}

rt::TaskId SimRuntime::ScheduleAt(rt::Time when, rt::TaskFn fn) {
  // The seam contract clamps past deadlines to now (the simulator's own
  // ScheduleAt CHECK-aborts on them); trace-identical for in-contract
  // callers, and keeps both runtimes interchangeable at the edge.
  const rt::Time now = sim_->now();
  if (when < now) when = now;
  return sim_->scheduler().ScheduleAt(when, std::move(fn));
}

bool SimRuntime::Cancel(rt::TaskId id) { return sim_->scheduler().Cancel(id); }

void SimRuntime::Post(rt::TaskFn fn) {
  sim_->scheduler().Schedule(0, std::move(fn));
}

rt::Destination SimRuntime::RegisterDestination() {
  return next_destination_++;
}

void SimRuntime::SendTo(rt::Destination destination, rt::TaskFn fn) {
  // One event per message at its exact sampled latency, whatever the
  // destination (the fault plane is what tells destinations apart).
  (void)destination;
  sim_->network().Send(std::move(fn));
}

double SimRuntime::SampleLatency() { return sim_->network().SampleLatency(); }

util::Rng SimRuntime::SplitRng() { return sim_->NewRng(); }

namespace {

rt::Runtime* RuntimeOf(Simulation* sim) {
  SBQA_CHECK(sim != nullptr);
  return &sim->runtime();
}

}  // namespace

}  // namespace sbqa::sim

// --- Simulation-pointer convenience constructors -----------------------------
//
// The simulation-side entities historically took a sim::Simulation*; these
// delegating constructors keep that spelling working (tests, benches,
// examples, the experiment runner) by routing through the simulation's
// owned SimRuntime. They live here — not in core/boinc/workload — so those
// layers' translation units stay free of sim/ includes.

namespace sbqa::core {

Mediator::Mediator(sim::Simulation* sim, Registry* registry,
                   model::ReputationRegistry* reputation,
                   std::unique_ptr<AllocationMethod> method,
                   const MediatorConfig& config)
    : Mediator(sim::RuntimeOf(sim), registry, reputation, std::move(method),
               config) {}

}  // namespace sbqa::core

namespace sbqa::boinc {

VolunteerJoinProcess::VolunteerJoinProcess(
    sim::Simulation* sim, core::Mediator* mediator,
    model::ReputationRegistry* reputation, const BoincSpec& spec,
    std::vector<model::ConsumerId> projects, const VolunteerJoinParams& params,
    const workload::ChurnParams& churn)
    : VolunteerJoinProcess(sim::RuntimeOf(sim), mediator, reputation, spec,
                           std::move(projects), params, churn) {}

}  // namespace sbqa::boinc

namespace sbqa::workload {

ChurnProcess::ChurnProcess(sim::Simulation* sim, core::Mediator* mediator,
                           model::ProviderId provider,
                           const ChurnParams& params)
    : ChurnProcess(sim::RuntimeOf(sim), mediator, provider, params) {}

std::vector<std::unique_ptr<ChurnProcess>> StartChurn(
    sim::Simulation* sim, core::Mediator* mediator,
    const std::vector<model::ProviderId>& providers,
    const ChurnParams& params) {
  return StartChurn(sim::RuntimeOf(sim), mediator, providers, params);
}

}  // namespace sbqa::workload
