#ifndef SBQA_RUNTIME_FAULT_H_
#define SBQA_RUNTIME_FAULT_H_

/// \file
/// Deterministic fault injection at the runtime seam. FaultInjector is an
/// rt::Runtime decorator: it forwards every call to the wrapped runtime
/// unchanged except where the FaultPlan says otherwise — destination sends
/// can be dropped or delayed, whole destinations can "crash" (alternating
/// up/down windows during which every send to them is silently discarded,
/// modelling an unresponsive provider) and latency samples can be skewed.
///
/// Determinism: every fault draw comes from the injector's OWN RNG streams,
/// derived purely from FaultPlan::seed — the inner runtime's RNG is never
/// consumed, so a wrapped-but-disabled injector is bit-identical to no
/// injector at all, and a fixed (seed, fault plan, shard_count) chaos run
/// is bit-reproducible. Crash windows advance lazily with the executor
/// clock (queries arrive in nondecreasing time order), one independent
/// stream per destination, so whether destination 7 is down at time t is a
/// pure function of (plan.seed, 7, t).
///
/// Placement: the injector targets the DATA plane. Inboxes (destinations
/// registered through RegisterInbox — every mediator registers its own)
/// are never faulted: they carry query submissions and result fan-in,
/// which must stay lossless for every query to reach a terminal outcome.
/// The injector records each inbox by identity, so every member of a
/// mediator group sharing one runtime keeps a lossless inbox. Provider-
/// bound dispatches are the faultable surface: a dropped dispatch IS a
/// failed provider response (the instance never arrives, the attempt times
/// out), a delayed one is a stalled response, and a crash window is a
/// provider failure spell that the mediator's health detector can observe.
/// See src/runtime/README.md.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/runtime.h"
#include "util/rng.h"

namespace sbqa::rt {

/// One reproducible chaos configuration. Value type; all knobs default to
/// "no faults" so a default plan is a no-op (and draw-free).
struct FaultPlan {
  /// Seed of every fault stream. Independent of the run seed so the same
  /// fault schedule can be replayed against different workloads.
  uint64_t seed = 1;

  /// Probability that a faultable destination send is silently dropped.
  double drop_send_prob = 0;

  /// Probability that a faultable destination send is delayed by an
  /// exponential extra `delay_mean` seconds (re-sent later — delayed
  /// deliveries may overtake younger sends, which is the fault).
  double delay_send_prob = 0;
  double delay_mean = 0.05;

  /// Multiplies every SampleLatency() draw by (1 + latency_skew); 0 leaves
  /// the samples untouched.
  double latency_skew = 0;

  /// Crash/revive process per faultable destination: alternating up/down
  /// windows with exponential durations — mean up-time 1 / crash_rate
  /// seconds, mean down-time mean_crash_duration seconds. Sends to a down
  /// destination are discarded. Both knobs must be > 0 to enable.
  double crash_rate = 0;
  double mean_crash_duration = 0;

  /// Whether any fault is configured (a disabled plan makes the injector a
  /// pure, draw-free pass-through).
  bool enabled() const {
    return drop_send_prob > 0 || delay_send_prob > 0 || latency_skew != 0 ||
           crashes_enabled();
  }
  bool crashes_enabled() const {
    return crash_rate > 0 && mean_crash_duration > 0;
  }
};

/// Named profiles for CLI/bench use. Returns false (leaving *plan
/// untouched) for an unknown name. Known: "none", "drops", "delays",
/// "crashes", "chaos".
bool FaultProfileByName(std::string_view name, FaultPlan* plan);

/// "none|drops|delays|crashes|chaos" — for usage strings.
std::string FaultProfileNames();

/// Injection counters (executor context; read after the run or between
/// advances).
struct FaultStats {
  int64_t sends_seen = 0;      ///< faultable sends that reached the injector
  int64_t sends_dropped = 0;   ///< dropped by drop_send_prob
  int64_t sends_delayed = 0;   ///< deferred by delay_send_prob
  int64_t sends_crashed = 0;   ///< discarded: destination was down
  int64_t crash_windows = 0;   ///< down windows entered (all destinations)
  int64_t latency_skews = 0;   ///< SampleLatency draws skewed
};

/// The decorator. Wrap the real runtime, hand the injector to the mediator
/// (and anything else that should see faults); drivers that must stay
/// lossless (workload generators, the engine submit path) keep talking to
/// the inner runtime directly or through inboxes.
class FaultInjector final : public Runtime {
 public:
  /// `inner` must outlive the injector. The plan is copied.
  FaultInjector(Runtime* inner, const FaultPlan& plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- Runtime interface (pure delegation except SendTo/SampleLatency) ------

  Time now() const override { return inner_->now(); }
  TaskId Schedule(Time delay, TaskFn fn) override {
    return inner_->Schedule(delay, std::move(fn));
  }
  TaskId ScheduleAt(Time when, TaskFn fn) override {
    return inner_->ScheduleAt(when, std::move(fn));
  }
  bool Cancel(TaskId id) override { return inner_->Cancel(id); }
  void Post(TaskFn fn) override { inner_->Post(std::move(fn)); }
  Destination RegisterDestination() override {
    return inner_->RegisterDestination();
  }
  /// Registers an inbox on the inner runtime and exempts it from faults.
  Destination RegisterInbox() override;
  void SendTo(Destination destination, TaskFn fn) override;
  double SampleLatency() override;
  util::Rng SplitRng() override { return inner_->SplitRng(); }

  // --- Introspection --------------------------------------------------------

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }
  Runtime* inner() const { return inner_; }

  /// Whether `destination` is inside a crash window at time `now`.
  /// Executor context; `now` must be nondecreasing across calls per
  /// destination (it is: the executor clock never goes backwards).
  bool DestinationDown(Destination destination, Time now);

 private:
  /// Lazily advanced per-destination crash process.
  struct CrashWindow {
    util::Rng rng;
    double until = 0;
    bool down = false;
    bool initialized = false;
  };

  bool IsInbox(Destination destination) const {
    return destination < inbox_.size() && inbox_[destination] != 0;
  }

  Runtime* inner_;
  FaultPlan plan_;
  FaultStats stats_;
  /// Dense by destination: 1 marks an inbox. Grown at registration, so the
  /// send-path check is one bounds test and one load.
  std::vector<uint8_t> inbox_;
  /// Drop/delay draws: one stream, consumed in executor event order.
  util::Rng send_rng_;
  std::vector<CrashWindow> windows_;
};

}  // namespace sbqa::rt

#endif  // SBQA_RUNTIME_FAULT_H_
