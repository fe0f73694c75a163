#include "sim/network.h"

#include "sim/latency.h"
#include "util/check.h"

namespace sbqa::sim {

Network::~Network() = default;

Network::Network(Scheduler* scheduler, util::Rng rng,
                 std::unique_ptr<LatencyModel> latency)
    : scheduler_(scheduler), rng_(rng), latency_(std::move(latency)) {
  SBQA_CHECK(scheduler_ != nullptr);
  SBQA_CHECK(latency_ != nullptr);
}

double Network::SampleLatency() { return latency_->Sample(rng_); }

void Network::AccountMessage(double latency) {
  SBQA_CHECK_GE(latency, 0);
  ++messages_sent_;
  total_latency_ += latency;
}

}  // namespace sbqa::sim
