#ifndef SBQA_SIM_NETWORK_H_
#define SBQA_SIM_NETWORK_H_

/// \file
/// Simulated message-passing network. Deliveries are callbacks scheduled
/// after a sampled one-way latency; the mediation protocol's round trips are
/// built from these primitives.
///
/// Destination-aware sends (`SendTo`) additionally support batched
/// dispatch: with a positive `NetworkConfig::batch_tick`, deliveries to the
/// same destination that land in the same tick are coalesced into ONE
/// scheduler event (fired at the tick's upper boundary, messages delivered
/// in send order). Multi-result queries and multi-mediator fan-in then cost
/// one event per (destination, tick) batch instead of one per message. With
/// batch_tick == 0 (the default) every message schedules its own event and
/// timing is exact.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "util/event_fn.h"
#include "util/rng.h"

namespace sbqa::sim {

class LatencyModel;  // latency.h is only needed to construct models

/// Network-fabric tuning knobs.
struct NetworkConfig {
  /// Width (seconds) of the delivery quantization tick for batched sends.
  /// 0 disables batching (exact per-message delivery times). When enabled,
  /// a batched message is delivered at most one tick later than its sampled
  /// latency alone would imply.
  double batch_tick = 0.0;
};

/// Message fabric between simulation entities. One latency model applies to
/// all links (heterogeneous per-link models can be layered on top by giving
/// entities their own LatencyModel and calling SendWithLatency).
class Network {
 public:
  /// Handle for a registered delivery endpoint (a mediator inbox, a
  /// provider inbox, ...). Dense, assigned by RegisterDestination().
  using Destination = uint32_t;
  static constexpr Destination kNoDestination = UINT32_MAX;

  /// `scheduler` and `rng` must outlive the network.
  Network(Scheduler* scheduler, util::Rng rng,
          std::unique_ptr<LatencyModel> latency, NetworkConfig config = {});
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

  /// Registers a delivery endpoint for batched sends.
  Destination RegisterDestination();

  /// Destination-aware send after one sampled one-way latency. Batched
  /// (and therefore not individually cancellable) when batching is enabled.
  template <typename Fn>
  void SendTo(Destination destination, Fn&& deliver) {
    SendToWithLatency(destination, SampleLatency(),
                      std::forward<Fn>(deliver));
  }

  /// Destination-aware send with an explicit latency. With batching off (or
  /// no destination) this is exactly SendWithLatency.
  template <typename Fn>
  void SendToWithLatency(Destination destination, double latency,
                         Fn&& deliver) {
    if (config_.batch_tick <= 0 || destination == kNoDestination) {
      SendWithLatency(latency, std::forward<Fn>(deliver));
      return;
    }
    AccountMessage(latency);
    EnqueueBatched(destination, latency,
                   util::EventFn(std::forward<Fn>(deliver)));
  }

  /// Samples a one-way latency without sending; used to compute the
  /// completion time of a parallel request fan-out (max over links).
  double SampleLatency();

  /// Messages sent since construction (batched or not).
  uint64_t messages_sent() const { return messages_sent_; }
  /// Sum of sampled latencies (for mean-latency accounting).
  double total_latency() const { return total_latency_; }
  /// Batches dispatched, i.e. scheduler events consumed by batched sends.
  uint64_t batches_dispatched() const { return batches_dispatched_; }
  /// Messages that rode an already-open batch (saved scheduler events).
  uint64_t messages_coalesced() const { return messages_coalesced_; }

  Scheduler* scheduler() { return scheduler_; }
  const NetworkConfig& config() const { return config_; }

 private:
  /// One open batch's payload, pooled and recycled so steady-state batching
  /// allocates nothing.
  struct Batch {
    std::vector<util::EventFn> deliveries;
    Destination destination = kNoDestination;
  };
  /// An open (not yet fired) batch of one destination.
  struct OpenBatch {
    double when = 0;
    uint32_t batch = 0;
  };

  void AccountMessage(double latency);
  void EnqueueBatched(Destination destination, double latency,
                      util::EventFn fn);
  void FireBatch(uint32_t batch_index);
  uint32_t AcquireBatch();

  Scheduler* scheduler_;
  util::Rng rng_;
  std::unique_ptr<LatencyModel> latency_;
  NetworkConfig config_;
  uint64_t messages_sent_ = 0;
  double total_latency_ = 0;
  uint64_t batches_dispatched_ = 0;
  uint64_t messages_coalesced_ = 0;

  Destination next_destination_ = 0;
  /// Open batches per destination (a handful at a time: one per tick still
  /// in flight).
  std::vector<std::vector<OpenBatch>> open_;
  std::vector<Batch> batch_pool_;
  std::vector<uint32_t> batch_free_;
  /// Swapped with a firing batch's deliveries so the pool entry can be
  /// recycled before the callbacks run (which may open new batches).
  std::vector<util::EventFn> firing_;
};

}  // namespace sbqa::sim

#endif  // SBQA_SIM_NETWORK_H_
