#include "sim/simulation.h"

#include "sim/latency.h"
#include "sim/network.h"

namespace sbqa::sim {

namespace {

std::unique_ptr<LatencyModel> MakeLatency(const SimulationConfig& config) {
  if (config.latency_sigma <= 0) {
    return std::make_unique<ConstantLatency>(config.latency_median);
  }
  return std::make_unique<LogNormalLatency>(
      config.latency_median, config.latency_sigma, config.latency_floor);
}

}  // namespace

Simulation::Simulation(const SimulationConfig& config)
    : config_(config), rng_(config.seed) {
  network_ = std::make_unique<Network>(&scheduler_, rng_.Split(),
                                       MakeLatency(config));
}

Simulation::~Simulation() = default;

Network& Simulation::network() { return *network_; }

}  // namespace sbqa::sim
