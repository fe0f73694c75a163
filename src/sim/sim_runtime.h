#ifndef SBQA_SIM_SIM_RUNTIME_H_
#define SBQA_SIM_SIM_RUNTIME_H_

/// \file
/// SimRuntime: the discrete-event implementation of the runtime seam — a
/// thin adapter forwarding every rt::Runtime operation to a Simulation's
/// scheduler, network and root RNG, one-to-one. Each forwarded call maps
/// to exactly the call the mediator used to make directly, in the same
/// order, so a mediator driven through this adapter produces traces
/// bit-identical to the pre-seam engine (the golden-seed determinism
/// suites hold it to that).
///
/// Every Simulation owns one (Simulation::runtime()); standalone instances
/// over a borrowed Simulation behave identically.

#include "runtime/runtime.h"

namespace sbqa::sim {

class Simulation;

/// rt::Runtime over a Simulation's scheduler + network. Single-threaded,
/// like the Simulation itself: Post is Schedule(0, fn), destinations are
/// dense ids handed out in registration order, and SendTo is one
/// Network::Send.
class SimRuntime final : public rt::Runtime {
 public:
  /// `sim` must outlive the adapter.
  explicit SimRuntime(Simulation* sim);

  rt::Time now() const override;
  rt::TaskId Schedule(rt::Time delay, rt::TaskFn fn) override;
  rt::TaskId ScheduleAt(rt::Time when, rt::TaskFn fn) override;
  bool Cancel(rt::TaskId id) override;
  void Post(rt::TaskFn fn) override;
  rt::Destination RegisterDestination() override;
  void SendTo(rt::Destination destination, rt::TaskFn fn) override;
  double SampleLatency() override;
  util::Rng SplitRng() override;

 private:
  Simulation* sim_;
  rt::Destination next_destination_ = 0;
};

}  // namespace sbqa::sim

#endif  // SBQA_SIM_SIM_RUNTIME_H_
