#include "runtime/barrier_core.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace sbqa::rt {

BarrierCore::BarrierCore(Time tick, size_t fill_threshold)
    : tick_(tick), fill_threshold_(fill_threshold) {
  SBQA_CHECK_GT(tick, 0);
}

BarrierCore::~BarrierCore() = default;

void BarrierCore::Attach(std::vector<Runtime*> runtimes) {
  SBQA_CHECK(runtimes_.empty());
  SBQA_CHECK_GE(runtimes.size(), 1u);
  runtimes_ = std::move(runtimes);
  out_.resize(runtimes_.size());
  for (Outbox& box : out_) {
    box.to.resize(runtimes_.size());
    for (std::vector<Pending>& channel : box.to) {
      channel.reserve(std::max<size_t>(fill_threshold_, 16));
    }
  }
}

void BarrierCore::AddBarrierHook(std::function<void(Time)> hook) {
  hooks_.push_back(std::move(hook));
}

void BarrierCore::SetMembershipHook(std::function<void(Time)> hook) {
  SBQA_CHECK(membership_hook_ == nullptr);
  membership_hook_ = std::move(hook);
}

uint64_t BarrierCore::cross_shard_messages() const {
  uint64_t total = 0;
  for (const Outbox& box : out_) total += box.posted;
  return total;
}

bool BarrierCore::Drain(Time at) {
  // Fixed (destination, source, FIFO) order: the only place cross-shard
  // effects are sequenced, hence the determinism of the whole protocol.
  const uint32_t n = shard_count();
  bool any_due = false;
  for (uint32_t dst = 0; dst < n; ++dst) {
    Runtime* runtime = runtimes_[dst];
    for (uint32_t src = 0; src < n; ++src) {
      std::vector<Pending>& channel = out_[src].to[dst];
      for (Pending& message : channel) {
        // A message that ripened inside the elapsed window is clamped to
        // the barrier: a hop pays at most one window of extra latency.
        const Time when = std::max(message.deliver_at, at);
        if (when <= at) any_due = true;
        runtime->ScheduleAt(when, std::move(message.fn));
      }
      channel.clear();  // keeps capacity: steady-state drains allocate
                        // nothing once the per-pair high-water mark is hit
    }
  }
  for (Outbox& box : out_) {
    box.buffered = 0;
    box.wants_barrier = false;
  }
  return any_due;
}

bool BarrierCore::MailboxesNonEmpty() const {
  for (const Outbox& box : out_) {
    for (const std::vector<Pending>& channel : box.to) {
      if (!channel.empty()) return true;
    }
  }
  return false;
}

bool BarrierCore::Barrier(Time at) {
  barrier_now_.store(at, std::memory_order_relaxed);
  barriers_.fetch_add(1, std::memory_order_relaxed);
  return Phase(/*run_hooks=*/true);
}

bool BarrierCore::Phase(bool run_hooks) {
  const Time at = now();
  const bool due = Drain(at);
  RunControlOps();
  if (membership_hook_ != nullptr) {
    const auto start = std::chrono::steady_clock::now();
    membership_hook_(at);
    membership_apply_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  // Control ops and epoch application may post fresh cross-shard messages
  // (a departing provider's borrowed-query outcomes routed home); they
  // need one more drain before the horizon traffic is quiescent.
  const bool settle = due || MailboxesNonEmpty();
  if (run_hooks) {
    for (const auto& hook : hooks_) hook(at);
  }
  return settle;
}

void BarrierCore::RunWindows(Time t, bool one_window) {
  bool settle = false;
  while (now() < t) {
    const Time end = one_window ? t : std::min(t, now() + tick_);
    AdvanceAll(end);
    settle = Barrier(end);
  }
  // Settlement: messages drained at the final barrier were clamped to
  // exactly t, where the loop above leaves them scheduled but unrun. Run
  // zero-width windows until the horizon traffic quiesces, so RunUntil(t)
  // leaves no message due at or before t unrun. They run the drain, the
  // control ops and the membership phase (ops queued by horizon events are
  // applied and their follow-up messages drained), not the hooks, and are
  // not counted as barriers. Terminates because cross-shard chains are
  // finite (delegation is one hop; membership application only posts
  // finite outcome chains).
  while (settle) {
    AdvanceAll(now());
    settle = Phase(/*run_hooks=*/false);
  }
}

}  // namespace sbqa::rt
