#include "runtime/fault.h"

#include <utility>

#include "util/check.h"

namespace sbqa::rt {

namespace {

/// Salts keeping the send stream and the per-destination crash streams
/// unrelated even though both derive from plan.seed.
constexpr uint64_t kSendStreamSalt = 0x53454E44u;   // "SEND"
constexpr uint64_t kCrashStreamSalt = 0x43525348u;  // "CRSH"

}  // namespace

bool FaultProfileByName(std::string_view name, FaultPlan* plan) {
  SBQA_CHECK(plan != nullptr);
  FaultPlan p;
  p.seed = plan->seed;  // the caller's seed survives profile selection
  if (name == "none") {
    // all-zero defaults
  } else if (name == "drops") {
    p.drop_send_prob = 0.05;
  } else if (name == "delays") {
    p.delay_send_prob = 0.10;
    p.delay_mean = 0.25;
    p.latency_skew = 0.5;
  } else if (name == "crashes") {
    p.crash_rate = 1.0 / 120.0;  // a crash every ~2 minutes of up-time
    p.mean_crash_duration = 20.0;
  } else if (name == "chaos") {
    p.drop_send_prob = 0.05;
    p.delay_send_prob = 0.05;
    p.delay_mean = 0.1;
    p.latency_skew = 0.25;
    p.crash_rate = 1.0 / 120.0;
    p.mean_crash_duration = 20.0;
  } else {
    return false;
  }
  *plan = p;
  return true;
}

std::string FaultProfileNames() { return "none|drops|delays|crashes|chaos"; }

FaultInjector::FaultInjector(Runtime* inner, const FaultPlan& plan)
    : inner_(inner),
      plan_(plan),
      send_rng_(util::Rng::StreamSeed(plan.seed, kSendStreamSalt)) {
  SBQA_CHECK(inner_ != nullptr);
  SBQA_CHECK_GE(plan_.drop_send_prob, 0);
  SBQA_CHECK_LE(plan_.drop_send_prob, 1);
  SBQA_CHECK_GE(plan_.delay_send_prob, 0);
  SBQA_CHECK_LE(plan_.delay_send_prob, 1);
  if (plan_.delay_send_prob > 0) SBQA_CHECK_GT(plan_.delay_mean, 0);
  SBQA_CHECK_GT(1.0 + plan_.latency_skew, 0);
}

bool FaultInjector::DestinationDown(Destination destination, Time now) {
  if (!plan_.crashes_enabled()) return false;
  const size_t index = static_cast<size_t>(destination);
  if (windows_.size() <= index) windows_.resize(index + 1);
  CrashWindow& w = windows_[index];
  if (!w.initialized) {
    w.initialized = true;
    // Per-destination stream: a pure function of (plan.seed, destination),
    // independent of registration order and of the other destinations.
    w.rng = util::Rng::ForStream(
        util::SplitMix64Avalanche(plan_.seed ^ kCrashStreamSalt), destination);
    w.until = w.rng.Exponential(plan_.crash_rate);  // first up window
  }
  while (now >= w.until) {
    w.down = !w.down;
    if (w.down) {
      ++stats_.crash_windows;
      w.until += w.rng.Exponential(1.0 / plan_.mean_crash_duration);
    } else {
      w.until += w.rng.Exponential(plan_.crash_rate);
    }
  }
  return w.down;
}

Destination FaultInjector::RegisterInbox() {
  const Destination inbox = inner_->RegisterInbox();
  if (inbox_.size() <= inbox) inbox_.resize(size_t{inbox} + 1, 0);
  inbox_[inbox] = 1;
  return inbox;
}

void FaultInjector::SendTo(Destination destination, TaskFn fn) {
  if (!plan_.enabled() || IsInbox(destination)) {
    inner_->SendTo(destination, std::move(fn));
    return;
  }
  ++stats_.sends_seen;
  if (DestinationDown(destination, inner_->now())) {
    ++stats_.sends_crashed;
    return;  // the destination is unresponsive; the message is lost
  }
  if (plan_.drop_send_prob > 0 && send_rng_.Bernoulli(plan_.drop_send_prob)) {
    ++stats_.sends_dropped;
    return;
  }
  if (plan_.delay_send_prob > 0 &&
      send_rng_.Bernoulli(plan_.delay_send_prob)) {
    ++stats_.sends_delayed;
    const double extra = send_rng_.Exponential(1.0 / plan_.delay_mean);
    // Re-sent after the extra delay. The closure wraps another TaskFn, so
    // it exceeds the inline buffer and heap-allocates — acceptable: only
    // FAULTED sends pay it; the non-faulty path below stays allocation-free.
    Runtime* inner = inner_;
    inner_->Schedule(extra,
                     TaskFn([inner, destination, f = std::move(fn)]() mutable {
                       inner->SendTo(destination, std::move(f));
                     }));
    return;
  }
  inner_->SendTo(destination, std::move(fn));
}

double FaultInjector::SampleLatency() {
  const double raw = inner_->SampleLatency();
  if (plan_.latency_skew == 0) return raw;
  ++stats_.latency_skews;
  return raw * (1.0 + plan_.latency_skew);
}

}  // namespace sbqa::rt
