#include "sim/network.h"

#include <algorithm>

#include "sim/latency.h"
#include "util/check.h"

namespace sbqa::sim {

Network::~Network() = default;

Network::Network(Scheduler* scheduler, util::Rng rng,
                 std::unique_ptr<LatencyModel> latency, NetworkConfig config)
    : scheduler_(scheduler),
      rng_(rng),
      latency_(std::move(latency)),
      config_(config) {
  SBQA_CHECK(scheduler_ != nullptr);
  SBQA_CHECK(latency_ != nullptr);
  SBQA_CHECK_GE(config_.batch_tick, 0);
}

double Network::SampleLatency() { return latency_->Sample(rng_); }

void Network::AccountMessage(double latency) {
  SBQA_CHECK_GE(latency, 0);
  ++messages_sent_;
  total_latency_ += latency;
}

Network::Destination Network::RegisterDestination() {
  const Destination d = next_destination_++;
  if (open_.size() <= d) open_.resize(d + 1);
  return d;
}

uint32_t Network::AcquireBatch() {
  if (!batch_free_.empty()) {
    const uint32_t index = batch_free_.back();
    batch_free_.pop_back();
    return index;
  }
  batch_pool_.emplace_back();
  return static_cast<uint32_t>(batch_pool_.size() - 1);
}

void Network::EnqueueBatched(Destination destination, double latency,
                             util::EventFn fn) {
  SBQA_CHECK_LT(destination, open_.size());
  const double deliver_at = scheduler_->now() + latency;
  // Quantize UP to the tick boundary: a batched message is never delivered
  // earlier than its sampled latency implies, and at most one tick later.
  double when = std::ceil(deliver_at / config_.batch_tick) * config_.batch_tick;
  if (when < deliver_at) when = deliver_at;  // floating-point guard

  std::vector<OpenBatch>& open = open_[destination];
  for (OpenBatch& ob : open) {
    if (ob.when == when) {
      batch_pool_[ob.batch].deliveries.push_back(std::move(fn));
      ++messages_coalesced_;
      return;
    }
  }
  const uint32_t index = AcquireBatch();
  Batch& batch = batch_pool_[index];
  batch.destination = destination;
  batch.deliveries.push_back(std::move(fn));
  open.push_back(OpenBatch{when, index});
  ++batches_dispatched_;
  scheduler_->ScheduleAt(when, [this, index] { FireBatch(index); });
}

void Network::FireBatch(uint32_t batch_index) {
  Batch& batch = batch_pool_[batch_index];
  // Move the payload out and recycle the pool entry BEFORE invoking: the
  // deliveries may send more messages, growing the pool and invalidating
  // `batch`. The capacity of the two vectors circulates through the swap,
  // so steady-state batching stays allocation-free.
  firing_.clear();
  firing_.swap(batch.deliveries);
  std::vector<OpenBatch>& open = open_[batch.destination];
  for (size_t i = 0; i < open.size(); ++i) {
    if (open[i].batch == batch_index) {
      open[i] = open.back();
      open.pop_back();
      break;
    }
  }
  batch.destination = kNoDestination;
  batch_free_.push_back(batch_index);
  for (util::EventFn& deliver : firing_) deliver();
  firing_.clear();
}

}  // namespace sbqa::sim
