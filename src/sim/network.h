#ifndef SBQA_SIM_NETWORK_H_
#define SBQA_SIM_NETWORK_H_

/// \file
/// Simulated message-passing network. Deliveries are callbacks scheduled
/// after a sampled one-way latency; the mediation protocol's round trips are
/// built from these primitives. Every message is its own scheduler event,
/// delivered at exactly its send time plus its latency.

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/scheduler.h"
#include "util/event_fn.h"
#include "util/rng.h"

namespace sbqa::sim {

class LatencyModel;  // latency.h is only needed to construct models

/// Message fabric between simulation entities. One latency model applies to
/// all links (heterogeneous per-link models can be layered on top by giving
/// entities their own LatencyModel and calling SendWithLatency).
class Network {
 public:
  /// `scheduler` must outlive the network.
  Network(Scheduler* scheduler, util::Rng rng,
          std::unique_ptr<LatencyModel> latency);
  ~Network();  // out of line: LatencyModel is forward-declared here

  /// Delivers `deliver` after one sampled one-way latency.
  /// Returns the event id (cancellable until delivery).
  template <typename Fn>
  EventId Send(Fn&& deliver) {
    return SendWithLatency(SampleLatency(), std::forward<Fn>(deliver));
  }

  /// Delivers after an explicit latency (for callers that sampled or
  /// computed the delay themselves, e.g. a max over parallel requests).
  /// The callable is perfect-forwarded into the scheduler's EventFn — one
  /// construction, no intermediate std::function.
  template <typename Fn>
  EventId SendWithLatency(double latency, Fn&& deliver) {
    AccountMessage(latency);
    return scheduler_->Schedule(latency,
                                util::EventFn(std::forward<Fn>(deliver)));
  }

  /// Samples a one-way latency without sending; used to compute the
  /// completion time of a parallel request fan-out (max over links).
  double SampleLatency();

  /// Messages sent since construction.
  uint64_t messages_sent() const { return messages_sent_; }
  /// Sum of sampled latencies (for mean-latency accounting).
  double total_latency() const { return total_latency_; }

  Scheduler* scheduler() { return scheduler_; }

 private:
  void AccountMessage(double latency);

  Scheduler* scheduler_;
  util::Rng rng_;
  std::unique_ptr<LatencyModel> latency_;
  uint64_t messages_sent_ = 0;
  double total_latency_ = 0;
};

}  // namespace sbqa::sim

#endif  // SBQA_SIM_NETWORK_H_
