#include "core/mediator.h"

#include <algorithm>
#include <utility>

#include "core/shard_directory.h"
#include "util/check.h"

namespace sbqa::core {

void MediatorStats::Merge(const MediatorStats& s) {
  queries_submitted += s.queries_submitted;
  queries_finalized += s.queries_finalized;
  queries_unallocated += s.queries_unallocated;
  queries_timed_out += s.queries_timed_out;
  queries_fully_served += s.queries_fully_served;
  instances_dispatched += s.instances_dispatched;
  instances_completed += s.instances_completed;
  instances_failed += s.instances_failed;
  provider_departures += s.provider_departures;
  provider_offline_events += s.provider_offline_events;
  consumer_retirements += s.consumer_retirements;
  queries_delegated += s.queries_delegated;
  queries_borrowed += s.queries_borrowed;
  queries_rehomed += s.queries_rehomed;
  queries_satisfied += s.queries_satisfied;
  queries_recovered += s.queries_recovered;
  queries_failed += s.queries_failed;
  retry_attempts += s.retry_attempts;
  instances_abandoned += s.instances_abandoned;
  instances_dispatched_dead += s.instances_dispatched_dead;
  providers_suspected += s.providers_suspected;
  providers_probed += s.providers_probed;
  response_time.Merge(s.response_time);
  query_satisfaction.Merge(s.query_satisfaction);
}

Mediator::Mediator(rt::Runtime* runtime, Registry* registry,
                   model::ReputationRegistry* reputation,
                   std::unique_ptr<AllocationMethod> method,
                   const MediatorConfig& config)
    : rt_(runtime),
      registry_(registry),
      reputation_(reputation),
      method_(std::move(method)),
      config_(config),
      kernel_(config.scoring_kernel),
      rng_(runtime->SplitRng()) {
  SBQA_CHECK(rt_ != nullptr);
  SBQA_CHECK(registry_ != nullptr);
  SBQA_CHECK(reputation_ != nullptr);
  SBQA_CHECK(method_ != nullptr);
  SBQA_CHECK_GT(config_.query_timeout, 0);
  SBQA_CHECK_GE(config_.max_retries, 0);
  SBQA_CHECK_GE(config_.retry_backoff_base, 0);
  SBQA_CHECK_GE(config_.retry_backoff_cap, config_.retry_backoff_base);
  SBQA_CHECK_GE(config_.retry_backoff_jitter, 0);
  SBQA_CHECK_GE(config_.failure_threshold, 0);
  if (config_.failure_threshold > 0) SBQA_CHECK_GT(config_.probe_delay, 0);
  inbox_ = rt_->RegisterInbox();
  // Size the dense per-provider tables for the population known at
  // construction, so the steady-state path never grows them, and reserve
  // them for the registry's reservation, so the joins it covers extend
  // them in place.
  const size_t reserved = registry_->reserved_providers();
  load_view_.reserve(reserved);
  health_.reserve(reserved);
  provider_inflight_.reserve(reserved);
  chains_.reserve(reserved);
  provider_dest_.reserve(reserved);
  if (registry_->provider_count() > 0) {
    EnsureProviderTables(
        static_cast<model::ProviderId>(registry_->provider_count() - 1));
  }
}

void Mediator::AddObserver(MediationObserver* observer) {
  SBQA_CHECK(observer != nullptr);
  observers_.push_back(observer);
}

void Mediator::SetDepartureModel(const DepartureConfig& config,
                                 bool run_sweep) {
  departure_ = std::make_unique<DepartureModel>(config);
  if (run_sweep &&
      (config.providers_can_leave || config.consumers_can_leave)) {
    ScheduleDepartureSweep();
  }
}

void Mediator::SetPeers(std::vector<Mediator*> peers) {
  peers_.clear();
  for (Mediator* peer : peers) {
    if (peer != nullptr && peer != this) peers_.push_back(peer);
  }
}

void Mediator::NotifyPeersProviderGone(model::ProviderId provider) {
  for (Mediator* peer : peers_) {
    peer->FailProviderInstances(provider);
  }
}

void Mediator::ConfigureSharding(rt::BarrierCore* shards, uint32_t shard,
                                 const ShardDirectory* directory,
                                 std::vector<Mediator*> shard_mediators) {
  SBQA_CHECK(shards != nullptr);
  SBQA_CHECK(directory != nullptr);
  SBQA_CHECK_LT(shard, shards->shard_count());
  SBQA_CHECK_EQ(shard_mediators.size(),
                static_cast<size_t>(shards->shard_count()));
  // shard_mediators[s] is shard s's GATEWAY: the mediator that receives
  // cross-shard traffic (delegated queries, re-homed outcomes) for that
  // shard. With one mediator per shard that is this mediator;
  // in a per-shard mediator group only the first group member is the
  // gateway and the others still delegate THROUGH the gateway list.
  SBQA_CHECK(shard_mediators[shard] != nullptr);
  shard_set_ = shards;
  shard_id_ = shard;
  directory_ = directory;
  shard_mediators_ = std::move(shard_mediators);
}

void Mediator::ScheduleDepartureSweep() {
  rt_->Schedule(departure_->config().sweep_interval, [this] {
    // Sweep everyone this mediator owns: dissatisfaction can build up
    // without mediation events reaching a participant (e.g. a volunteer
    // nobody proposes queries to has Definition-2 satisfaction 0). In
    // sharded mode every shard's mediator sweeps its own partition (the
    // whole population when unsharded: partition 0 is everything). The
    // alive ids are copied out of the index first because departures
    // mutate it mid-loop.
    registry_->CollectAliveProvidersForShard(shard_id_, &sweep_scratch_);
    for (model::ProviderId p : sweep_scratch_) {
      MaybeDepartProvider(p);
    }
    for (const Consumer& c : registry_->consumers()) {
      if (registry_->ConsumerShard(c.id()) != shard_id_) continue;
      if (c.active()) MaybeRetireConsumer(c.id());
    }
    ScheduleDepartureSweep();
  });
}

void Mediator::After(double delay, rt::TaskFn fn) {
  rt_->Schedule(delay, std::move(fn));
}

double Mediator::RoundTripLatency(size_t fanout) {
  double max_latency = 0;
  for (size_t i = 0; i < fanout + 1; ++i) {
    max_latency = std::max(max_latency, rt_->SampleLatency());
  }
  return 2 * max_latency;
}

// --- In-flight pool ----------------------------------------------------------

Mediator::InflightHandle Mediator::AcquireInflight() {
  const InflightHandle h = inflight_pool_.Acquire();
  InFlight& f = inflight_pool_.at(SlotOf(h));
  f.pending = 0;
  f.decision.Clear();
  f.instances.clear();
  f.attempt = 1;
  f.abs_deadline = kNoDeadline;
  f.tried.clear();
  return h;
}

void Mediator::EnsureProviderTables(model::ProviderId provider) {
  const size_t needed = static_cast<size_t>(provider) + 1;
  if (load_view_.size() < needed) load_view_.resize(needed);
  if (health_.size() < needed) health_.resize(needed);
  if (provider_inflight_.size() < needed) provider_inflight_.resize(needed);
  if (chains_.size() < needed) chains_.resize(needed);
  while (provider_dest_.size() < needed) {
    provider_dest_.push_back(rt_->RegisterDestination());
  }
}

void Mediator::ProvisionInflight(size_t slots) {
  // Reserve, don't construct: a slot's decision, instances and tried set
  // are inline, so an unused slot needs nothing but its share of this one
  // block, and its pages stay untouched until a query first acquires it.
  inflight_pool_.Provision(slots);
  inflight_cap_ = slots;
  // A live query queues at most its instances; finalized queries' queued
  // instances drain at their providers' service rate.
  queued_.reserve(slots * kInstanceInlineWidth);
  // Floor for the timeout ring; its true high-water is time-based
  // (timeout window x arrival rate), which steady traffic pins during
  // warm-up once the capacity survives compaction (erase/clear keep it).
  timeout_ring_.reserve(2 * slots);
}

void Mediator::LinkProviderInflight(model::ProviderId provider,
                                    InflightHandle h) {
  auto& list = provider_inflight_[static_cast<size_t>(provider)];
  // A provider holds at most one link per live query, so the admission cap
  // bounds its list. Past the inline width the list goes straight to that
  // bound: under saturation a provider keeps setting new concurrency peaks
  // long after warm-up, and growing by doubling would allocate on the
  // query path at each one. Only providers that outgrow the inline width
  // pay the reservation, and pages are touched only as links land.
  if (list.size() == list.capacity() && inflight_cap_ > list.capacity()) {
    list.reserve(inflight_cap_);
  }
  list.push_back(h);
}

void Mediator::UnlinkProviderInflight(model::ProviderId provider,
                                      InflightHandle h) {
  if (static_cast<size_t>(provider) >= provider_inflight_.size()) return;
  auto& list = provider_inflight_[static_cast<size_t>(provider)];
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i] == h) {
      list[i] = list.back();
      list.pop_back();
      return;
    }
  }
}

// --- Mediation pipeline ------------------------------------------------------

void Mediator::SubmitQuery(model::Query query) {
  query.issued_at = rt_->now();
  ++stats_.queries_submitted;
  registry_->consumer(query.consumer).OnQueryIssued();
  // Consumer -> mediator hop, into the mediator's inbox.
  rt_->SendTo(inbox_, [this, query] { OnQueryArrival(query); });
}

void Mediator::OnQueryArrival(model::Query query) {
  Mediate(std::move(query), shard_id_);
}

void Mediator::OnDelegatedQuery(model::Query query, uint32_t origin_shard) {
  ++stats_.queries_borrowed;
  Mediate(std::move(query), origin_shard);
}

bool Mediator::TryDelegate(const model::Query& query) {
  if (shard_set_ == nullptr) return false;
  const uint32_t target =
      directory_->FindShardWith(query.query_class, shard_id_);
  if (target == ShardDirectory::kNoShard) return false;
  ++stats_.queries_delegated;
  ++shard_mediators_[shard_id_]->delegated_out_;
  Mediator* peer = shard_mediators_[target];
  const uint32_t origin = shard_id_;
  shard_set_->PostTo(shard_id_, target, rt_->now() + rt_->SampleLatency(),
                     rt::TaskFn([peer, query, origin] {
                       peer->OnDelegatedQuery(query, origin);
                     }));
  return true;
}

void Mediator::RouteOutcomeHome(uint32_t origin_shard,
                                const QueryOutcome& outcome) {
  Mediator* home = shard_mediators_[origin_shard];
  // The outcome rides home in a pooled slab slot owned by this (the
  // performing) shard: the mailbox closure carries {home, this, payload,
  // slot} — well inside the EventFn inline buffer — instead of a
  // QueryOutcome copy that exceeds it and heap-allocates. The payload
  // pointer is captured here because the deque's block map may NOT be
  // indexed from the home shard: this shard keeps acquiring slots (deque
  // push_back) while home reads, and only the element addresses are
  // stable under that.
  const uint32_t slot = AcquireOutboundOutcome(outcome);
  const QueryOutcome* payload = &outbound_outcomes_[slot];
  Mediator* self = this;
  shard_set_->PostTo(shard_id_, origin_shard,
                     rt_->now() + rt_->SampleLatency(),
                     rt::TaskFn([home, self, payload, slot] {
                       home->OnDelegatedOutcome(*payload, self, slot);
                     }));
}

uint32_t Mediator::AcquireOutboundOutcome(const QueryOutcome& outcome) {
  uint32_t slot;
  if (!outbound_free_.empty()) {
    slot = outbound_free_.back();
    outbound_free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(outbound_outcomes_.size());
    outbound_outcomes_.emplace_back();
  }
  // Copy-assign into the kept-constructed payload: a warmed slot's
  // performers vector reuses its high-water capacity, so steady-state
  // delegation copies without touching the heap.
  outbound_outcomes_[slot] = outcome;
  return slot;
}

void Mediator::ReleaseOutboundOutcome(uint32_t slot) {
  outbound_free_.push_back(slot);
}

void Mediator::OnDelegatedOutcome(const QueryOutcome& outcome,
                                  Mediator* performer, uint32_t slot) {
  // Copy into the home scratch (same reused buffer every finalize runs
  // through) and re-stamp arrival-side timing: the response time the
  // consumer experienced includes the two mailbox hops of the borrow
  // round trip.
  --delegated_out_;
  outcome_scratch_ = outcome;
  FinalizeOutcome(shard_id_, &outcome_scratch_);
  // Hand the slab slot back to its owner over the mailbox: the free list
  // must only ever be touched on the performer's own context, and the
  // barrier that carries this message orders the release after the read
  // above. Until it lands the performer simply acquires fresh slots, so
  // the slab's high-water mark is the number of outcomes in flight across
  // one barrier round trip.
  shard_set_->PostTo(shard_id_, performer->shard_id_, rt_->now(),
                     rt::TaskFn([performer, slot] {
                       performer->ReleaseOutboundOutcome(slot);
                     }));
}

void Mediator::Mediate(model::Query query, uint32_t origin_shard) {
  // Index-backed Pq view over this shard's partition: O(1) to build and to
  // test for emptiness; the method decides whether to sample it (O(k)) or
  // materialize it (full-scan baselines, into the reused scratch buffer).
  const CandidateSet candidates =
      registry_->CandidatesForShard(shard_id_, query, &candidate_scratch_);
  if (candidates.empty()) {
    // Borrow path — only for this shard's own queries: a borrowed query
    // whose target pool went dry since the directory snapshot reports
    // unallocated at home rather than bouncing between shards.
    if (origin_shard == shard_id_ && TryDelegate(query)) return;
    FinalizeUnallocated(query, origin_shard);
    return;
  }

  const InflightHandle h = AcquireInflight();
  InFlight& f = inflight_pool_.at(SlotOf(h));
  f.query = query;
  f.origin_shard = origin_shard;
  if (query.deadline > 0) f.abs_deadline = query.issued_at + query.deadline;
  Allocate(h, candidates);
}

void Mediator::Allocate(InflightHandle h, const CandidateSet& candidates) {
  InFlight& f = inflight_pool_.at(SlotOf(h));
  AllocationContext ctx;
  ctx.query = &f.query;
  ctx.candidates = &candidates;
  ctx.mediator = this;
  ctx.now = rt_->now();
  method_->Allocate(ctx, &f.decision);
  AllocationDecision& decision = f.decision;

  // Normalize the decision: consulted defaults to selected; intentions are
  // computed here when the method did not provide them, so the satisfaction
  // model evaluates every technique identically.
  if (decision.consulted.empty()) {
    decision.consulted.assign(decision.selected.begin(),
                              decision.selected.end());
  }
  if (decision.provider_intentions.size() != decision.consulted.size()) {
    kernel_.ProviderIntentions(*this, f.query, decision.consulted,
                               &decision.provider_intentions);
  }
  if (decision.consumer_intentions.size() != decision.consulted.size()) {
    kernel_.ConsumerIntentions(*this, f.query, decision.consulted,
                               &decision.consumer_intentions,
                               &decision.ect_normalizer);
  }
  // Retries never go back to a provider that already failed this query.
  if (!f.tried.empty()) {
    size_t w = 0;
    for (size_t i = 0; i < decision.selected.size(); ++i) {
      if (std::find(f.tried.begin(), f.tried.end(), decision.selected[i]) ==
          f.tried.end()) {
        decision.selected[w++] = decision.selected[i];
      }
    }
    decision.selected.resize(w);
  }
  // The mediator allocates to at most q.n providers (min(n, kn)).
  if (decision.selected.size() > static_cast<size_t>(f.query.n_results)) {
    decision.selected.resize(static_cast<size_t>(f.query.n_results));
  }

  for (MediationObserver* obs : observers_) {
    obs->OnMediation(f.query, decision, rt_->now());
  }

  const double extra =
      (decision.used_intention_round || decision.used_bid_round)
          ? RoundTripLatency(decision.consulted.size())
          : 0.0;
  After(extra, [this, h] { Dispatch(h); });
}

void Mediator::Dispatch(InflightHandle h) {
  // Nothing can finalize the slot between OnQueryArrival and Dispatch (it
  // is not yet linked to any provider and has no timeout), so the handle is
  // always fresh here.
  InFlight* f = Resolve(h);
  SBQA_CHECK(f != nullptr);
  AllocationDecision& decision = f->decision;

  // `selected` is capped at q.n (a handful) and `consulted` at kn, so the
  // bookkeeping below sticks to linear scans over the decision vectors —
  // no per-query hash containers.
  const auto selected_contains = [&decision](model::ProviderId p) {
    return std::find(decision.selected.begin(), decision.selected.end(), p) !=
           decision.selected.end();
  };
  for (size_t i = 0; i < decision.selected.size(); ++i) {
    for (size_t j = i + 1; j < decision.selected.size(); ++j) {
      SBQA_CHECK(decision.selected[i] != decision.selected[j]);
    }
  }

  if (decision.selected.empty()) {
    if (f->attempt > 1) {
      // A retry found nobody new (every candidate already failed this
      // query). Finalize decides: another attempt if budget remains —
      // suspected providers may be probed back in — or terminal failure.
      Finalize(h, /*timed_out=*/false);
      return;
    }
    // The method could not (or chose not to) allocate anybody, e.g. an
    // economic mediation with no affordable bid.
    const model::Query query = f->query;
    const uint32_t origin_shard = f->origin_shard;
    ReleaseInflight(h);
    FinalizeUnallocated(query, origin_shard);
    return;
  }

  f->instances.reserve(decision.selected.size());
  for (model::ProviderId p : decision.selected) {
    Instance inst;
    inst.provider = p;
    const auto it =
        std::find(decision.consulted.begin(), decision.consulted.end(), p);
    inst.consumer_intention =
        it != decision.consulted.end()
            ? decision.consumer_intentions[static_cast<size_t>(
                  it - decision.consulted.begin())]
            : kernel_.RescoreConsumerIntention(*this, f->query, p,
                                               decision.ect_normalizer);
    f->instances.push_back(inst);
  }
  f->pending = static_cast<int>(f->instances.size());
  // Attempt deadline: the mediator constant, clamped to the query's own
  // absolute deadline when it carries one.
  PushTimeout(std::min(rt_->now() + config_.query_timeout, f->abs_deadline),
              h, f->attempt);

  // Mediator -> provider hops, one per selected provider's inbox.
  // Provider state is read and written through the registry's id-indexed
  // hot block from here to completion: no Provider object on the path.
  ProviderHotState& hot = registry_->hot();
  const double cost = f->query.cost;
  for (model::ProviderId p : decision.selected) {
    ++stats_.instances_dispatched;
    EnsureProviderTables(p);
    // A provider can die between selection and this dispatch event (a
    // departure triggered by an earlier query in the same batch). The send
    // still goes out (the arrival path accounts the failure), but count it
    // explicitly: under the fault plane the arrival may never happen, and
    // then only the attempt deadline reclaims the slot.
    if (!hot.alive(static_cast<uint32_t>(p))) {
      ++stats_.instances_dispatched_dead;
    }
    LinkProviderInflight(p, h);
    rt_->SendTo(provider_dest_[static_cast<size_t>(p)],
                [this, h, p, cost] { OnInstanceArrival(h, p, cost); });
  }

  // Notify all consulted providers of the mediation result: each records
  // the proposal (Definition 2's PPI window) whether or not it was chosen.
  const size_t consulted_n = decision.consulted.size();
  for (size_t i = 0; i < consulted_n; ++i) {
    hot.PrefetchProposal(static_cast<uint32_t>(decision.consulted[i]));
  }
  for (size_t i = 0; i < consulted_n; ++i) {
    const model::ProviderId p = decision.consulted[i];
    const auto slot = static_cast<uint32_t>(p);
    if (!hot.alive(slot)) continue;
    hot.RecordProposal(slot, decision.provider_intentions[i],
                       selected_contains(p));
  }
  // Dissatisfied providers may now decide to leave (autonomous mode). A
  // departure can fail this very query's instances and finalize it,
  // releasing the pool slot mid-loop — walk a scratch copy of the
  // consulted ids instead of the (possibly recycled) decision.
  consulted_scratch_.assign(decision.consulted.begin(),
                            decision.consulted.end());
  for (model::ProviderId p : consulted_scratch_) {
    MaybeDepartProvider(p);
  }
}

void Mediator::OnInstanceArrival(InflightHandle h, model::ProviderId provider,
                                 double cost) {
  InFlight* f = Resolve(h);
  if (f == nullptr) return;  // already finalized (timeout)
  Instance* inst = nullptr;
  for (Instance& candidate : f->instances) {
    if (candidate.provider == provider &&
        candidate.status == InstanceStatus::kPending) {
      inst = &candidate;
      break;
    }
  }
  if (inst == nullptr) return;  // failed meanwhile (provider departure)
  ProviderHotState& hot = registry_->hot();
  const auto slot = static_cast<uint32_t>(provider);
  if (!hot.alive(slot)) {
    inst->status = InstanceStatus::kFailed;
    ++stats_.instances_failed;
    UnlinkProviderInflight(provider, h);
    if (--f->pending == 0) Finalize(h, /*timed_out=*/false);
    return;
  }
  const double finish_at = hot.Enqueue(slot, rt_->now(), cost);
  uint32_t record = queued_free_;
  if (record != kNoRecord) {
    queued_free_ = queued_[record].next;
    queued_[record] = QueuedInstance{h, cost, finish_at, kNoRecord};
  } else {
    record = static_cast<uint32_t>(queued_.size());
    queued_.push_back(QueuedInstance{h, cost, finish_at, kNoRecord});
  }
  ServiceChain& chain = chains_[static_cast<size_t>(provider)];
  if (chain.tail == kNoRecord) {
    chain.head = record;
    ScheduleHeadCompletion(provider, finish_at);
  } else {
    queued_[chain.tail].next = record;
  }
  chain.tail = record;
}

size_t Mediator::queued_instance_count() const {
  size_t free = 0;
  for (uint32_t r = queued_free_; r != kNoRecord; r = queued_[r].next) ++free;
  return queued_.size() - free;
}

void Mediator::ScheduleHeadCompletion(model::ProviderId provider,
                                      double finish_at) {
  const uint64_t epoch =
      registry_->hot().queue_epoch(static_cast<uint32_t>(provider));
  rt_->ScheduleAt(finish_at, [this, provider, epoch] {
    OnHeadCompleted(provider, epoch);
  });
}

void Mediator::OnHeadCompleted(model::ProviderId provider, uint64_t epoch) {
  if (registry_->hot().queue_epoch(static_cast<uint32_t>(provider)) !=
      epoch) {
    return;  // the queue was dropped and the chain freed with it
  }
  // A next head whose finish time has already passed (a late wall-clock
  // timer; in the simulator only a zero-length service) completes here
  // too instead of taking a timer of its own.
  bool due = true;
  while (due) {
    ServiceChain& chain = chains_[static_cast<size_t>(provider)];
    const uint32_t record = chain.head;
    const QueuedInstance done = queued_[record];
    queued_[record].next = queued_free_;
    queued_free_ = record;
    chain.head = done.next;
    if (chain.head == kNoRecord) {
      chain.tail = kNoRecord;
      due = false;
    } else if (queued_[chain.head].finish_at > rt_->now()) {
      ScheduleHeadCompletion(provider, queued_[chain.head].finish_at);
      due = false;
    }
    OnInstanceProcessed(done.handle, provider, done.cost);
  }
}

void Mediator::DropServiceChain(model::ProviderId provider) {
  ServiceChain& chain = chains_[static_cast<size_t>(provider)];
  if (chain.head == kNoRecord) return;
  queued_[chain.tail].next = queued_free_;
  queued_free_ = chain.head;
  chain = ServiceChain{};
}

void Mediator::OnInstanceProcessed(InflightHandle h,
                                   model::ProviderId provider, double cost) {
  ProviderHotState& hot = registry_->hot();
  const auto slot = static_cast<uint32_t>(provider);
  hot.OnInstanceFinished(slot, cost);
  ++stats_.instances_completed;
  // Result validation (BOINC layer): a faulty/malicious provider returns an
  // invalid result with its configured error rate; reputation tracks this.
  const bool valid = !rng_.Bernoulli(hot.error_rate(slot));
  reputation_->Record(provider, valid ? 1.0 : 0.0);
  // Provider -> consumer result hop (fans into the mediator inbox).
  rt_->SendTo(inbox_, [this, h, provider, valid] {
    OnResultReceived(h, provider, valid);
  });
}

void Mediator::OnResultReceived(InflightHandle h, model::ProviderId provider,
                                bool valid) {
  InFlight* f = Resolve(h);
  if (f == nullptr) return;  // finalized by timeout; result dropped
  for (Instance& inst : f->instances) {
    if (inst.provider == provider &&
        inst.status == InstanceStatus::kPending) {
      inst.status = InstanceStatus::kCompleted;
      inst.valid = valid;
      RecordProviderSuccess(provider);
      UnlinkProviderInflight(provider, h);
      if (--f->pending == 0) Finalize(h, /*timed_out=*/false);
      return;
    }
  }
  // No matching pending instance: the attempt that dispatched this
  // instance was abandoned (retry) or the instance was failed by a
  // departure — the late result is dropped, never double-finalized.
}

void Mediator::PushTimeout(double deadline, InflightHandle h, int attempt) {
  if (!timeout_ring_.empty() && deadline < timeout_ring_.back().deadline) {
    // Out-of-order deadline (a per-query deadline shorter than the default
    // timeout, or a retry clamped to its query's deadline): a dedicated
    // one-shot timer instead of breaking the ring's FIFO invariant. Rare —
    // deadline-free traffic keeps the single-sweep ring.
    rt_->ScheduleAt(deadline,
                    [this, h, attempt] { OnQueryDeadline(h, attempt); });
    return;
  }
  // Amortized-O(1) stale-prefix skip: entries whose query already
  // finalized (or re-attempted) are dead weight at the front of the ring.
  // Trimming them on push keeps the live span — and therefore the ring's
  // memory — proportional to actual in-flight load even when the sweep
  // timer lags far behind under a rate step.
  while (timeout_head_ < timeout_ring_.size()) {
    const TimeoutEntry& front = timeout_ring_[timeout_head_];
    const InFlight* live = Resolve(front.handle);
    if (live != nullptr && live->attempt == front.attempt) break;
    ++timeout_head_;
  }
  timeout_ring_.push_back(TimeoutEntry{deadline, h, attempt});
  if (timeout_ring_.size() > timeout_size_high_water_) {
    timeout_size_high_water_ = timeout_ring_.size();
  }
  if (!timeout_sweep_armed_) ScheduleTimeoutSweep(deadline);
}

void Mediator::OnQueryDeadline(InflightHandle h, int attempt) {
  InFlight* f = Resolve(h);
  if (f == nullptr || f->attempt != attempt) return;  // stale
  Finalize(h, /*timed_out=*/true);
}

void Mediator::ScheduleTimeoutSweep(double when) {
  timeout_sweep_armed_ = true;
  rt_->ScheduleAt(when, [this] { OnTimeoutSweep(); });
}

void Mediator::OnTimeoutSweep() {
  timeout_sweep_armed_ = false;
  const double now = rt_->now();
  while (timeout_head_ < timeout_ring_.size()) {
    const TimeoutEntry entry = timeout_ring_[timeout_head_];
    const InFlight* f = Resolve(entry.handle);
    if (f == nullptr || f->attempt != entry.attempt) {
      // The query finalized — or moved on to a later attempt — before its
      // deadline; whole runs of stale entries are skipped by this one
      // sweep.
      ++timeout_head_;
      continue;
    }
    if (entry.deadline <= now) {
      ++timeout_head_;
      Finalize(entry.handle, /*timed_out=*/true);
      continue;
    }
    ScheduleTimeoutSweep(entry.deadline);
    break;
  }
  if (timeout_head_ >= timeout_ring_.size()) {
    timeout_ring_.clear();
    timeout_head_ = 0;
    // Shrink-on-drain: after a genuine burst recedes, release capacity the
    // steady state will never touch again. The high-water is the ring's
    // SIZE, stale prefix included: between drains steady traffic refills
    // the ring to about rate x query_timeout entries (only a sweep
    // compacts the prefix), however short the live span stays, so a
    // target sized on the live span would shrink a paced ring at every
    // drain and regrow it on the query path. The 4096 floor plus the 8x
    // headroom keep the swap on the falling edge of a rate step.
    if (timeout_ring_.capacity() > 4096 &&
        timeout_ring_.capacity() > 8 * timeout_size_high_water_) {
      std::vector<TimeoutEntry> trimmed;
      trimmed.reserve(std::max<size_t>(64, 2 * timeout_size_high_water_));
      timeout_ring_.swap(trimmed);
    }
    timeout_size_high_water_ = 0;
  } else if (timeout_head_ >
                 std::max<size_t>(64,
                                  timeout_ring_.size() - timeout_head_) &&
             timeout_head_ * 2 > timeout_ring_.size()) {
    // Load-adaptive compaction: erase the dead prefix once it outweighs
    // the live span (never below a 64-entry floor, so light traffic is
    // not compacting constantly). A fixed threshold would let the dead
    // prefix grow to that threshold regardless of how small the live load
    // is; scaling with the live span keeps memory O(in-flight).
    timeout_ring_.erase(timeout_ring_.begin(),
                        timeout_ring_.begin() +
                            static_cast<long>(timeout_head_));
    timeout_head_ = 0;
  }
}

namespace {

/// Resets the reusable outcome scratch (keeps the performers capacity).
void ResetOutcome(QueryOutcome* outcome) {
  outcome->completed_at = 0;
  outcome->response_time = 0;
  outcome->results_required = 0;
  outcome->results_received = 0;
  outcome->valid_results = 0;
  outcome->validated = false;
  outcome->timed_out = false;
  outcome->unallocated = false;
  outcome->shed = false;
  outcome->attempts = 1;
  outcome->hops = 0;
  outcome->satisfaction = 0;
  outcome->adequation = 0;
  outcome->allocation_satisfaction = 0;
  outcome->performers.clear();
}

}  // namespace

QueryOutcome& Mediator::BeginOutcome(const model::Query& query) {
  QueryOutcome& outcome = outcome_scratch_;
  ResetOutcome(&outcome);
  outcome.query = query;
  outcome.results_required = query.n_results;
  return outcome;
}

void Mediator::FinalizeOutcome(uint32_t origin_shard, QueryOutcome* outcome) {
  outcome->completed_at = rt_->now();
  outcome->response_time = rt_->now() - outcome->query.issued_at;
  if (origin_shard == shard_id_) {
    RecordConsumerOutcome(outcome);
  } else {
    RouteOutcomeHome(origin_shard, *outcome);
  }
}

void Mediator::Finalize(InflightHandle h, bool timed_out) {
  InFlight* f = Resolve(h);
  SBQA_CHECK(f != nullptr);
  // Retry gate: a zero-result attempt with budget and deadline headroom is
  // abandoned and re-mediated instead of finalized — the slot stays live.
  if (MaybeScheduleRetry(h)) return;
  // Accounting invariant: short of a deadline, an attempt only finalizes
  // once every instance resolved (completed or failed) — a silently lost
  // instance would show up here.
  SBQA_DCHECK(timed_out || f->pending == 0);
  if (timed_out) ++stats_.queries_timed_out;
  // No timeout cancellation: releasing the slot below turns the query's
  // timeout-ring entry stale, and the sweep skips it for free.

  QueryOutcome& outcome = BeginOutcome(f->query);
  outcome.timed_out = timed_out;
  outcome.attempts = f->attempt;
  outcome.hops = f->origin_shard != shard_id_ ? 1 : 0;

  performer_intentions_scratch_.clear();
  for (Instance& inst : f->instances) {
    UnlinkProviderInflight(inst.provider, h);
    if (inst.status == InstanceStatus::kCompleted) {
      outcome.performers.push_back(inst.provider);
      performer_intentions_scratch_.push_back(inst.consumer_intention);
      if (inst.valid) ++outcome.valid_results;
    } else if (timed_out && inst.status == InstanceStatus::kPending) {
      // Terminal deadline with the instance still outstanding: the
      // provider never responded — that is a health-detector failure.
      RecordProviderFailure(inst.provider);
    }
  }
  outcome.results_received = static_cast<int>(outcome.performers.size());

  const Consumer& consumer = registry_->consumer(f->query.consumer);
  outcome.validated = outcome.valid_results >= consumer.params().quorum;

  // Equation 1 over the providers that performed q.
  outcome.satisfaction = ConsumerQuerySatisfaction(
      performer_intentions_scratch_, f->query.n_results);
  outcome.adequation =
      ConsumerQueryAdequation(f->decision.consumer_intentions);
  outcome.allocation_satisfaction = ConsumerQueryAllocationSatisfaction(
      outcome.satisfaction, f->decision.consumer_intentions,
      f->query.n_results);

  const uint32_t origin_shard = f->origin_shard;
  ReleaseInflight(h);
  FinalizeOutcome(origin_shard, &outcome);
}

void Mediator::FinalizeUnallocated(const model::Query& query,
                                   uint32_t origin_shard) {
  ++stats_.queries_unallocated;
  QueryOutcome& outcome = BeginOutcome(query);
  outcome.unallocated = true;
  outcome.allocation_satisfaction = 1;  // nothing was achievable
  outcome.hops = origin_shard != shard_id_ ? 1 : 0;
  FinalizeOutcome(origin_shard, &outcome);
}

// --- Retry & health ----------------------------------------------------------

double Mediator::RetryBackoff(int attempt) {
  double backoff = config_.retry_backoff_base;
  for (int i = 1; i < attempt && backoff < config_.retry_backoff_cap; ++i) {
    backoff *= 2;
  }
  if (backoff > config_.retry_backoff_cap) {
    backoff = config_.retry_backoff_cap;
  }
  if (config_.retry_backoff_jitter > 0) {
    backoff *= 1.0 + config_.retry_backoff_jitter * rng_.NextDouble();
  }
  return backoff;
}

bool Mediator::MaybeScheduleRetry(InflightHandle h) {
  if (config_.max_retries <= 0) return false;
  InFlight* f = Resolve(h);
  if (f->attempt > config_.max_retries) return false;  // budget exhausted
  for (const Instance& inst : f->instances) {
    // Any completed result: finalize with what we have, never re-mediate.
    if (inst.status == InstanceStatus::kCompleted) return false;
  }
  const double backoff = RetryBackoff(f->attempt);
  if (rt_->now() + backoff >= f->abs_deadline) return false;
  AbandonAttempt(h);
  ++f->attempt;
  ++stats_.retry_attempts;
  After(backoff, [this, h] { BeginRetry(h); });
  return true;
}

void Mediator::AbandonAttempt(InflightHandle h) {
  InFlight* f = Resolve(h);
  for (Instance& inst : f->instances) {
    if (inst.status == InstanceStatus::kPending) {
      inst.status = InstanceStatus::kFailed;
      ++stats_.instances_abandoned;
      --f->pending;
      UnlinkProviderInflight(inst.provider, h);
    }
    // Every provider of the abandoned attempt failed the query (that is
    // the retry precondition): exclude it from later attempts and feed the
    // health detector.
    f->tried.push_back(inst.provider);
    RecordProviderFailure(inst.provider);
  }
  SBQA_DCHECK(f->pending == 0);
}

void Mediator::BeginRetry(InflightHandle h) {
  InFlight* f = Resolve(h);
  if (f == nullptr) return;  // defensive: nothing can finalize mid-backoff
  f->decision.Clear();
  f->instances.clear();
  f->pending = 0;
  // Exclude already-tried providers BEFORE the method runs: a method that
  // ranks the failed provider first would otherwise re-select it, only for
  // Allocate's tried-filter to empty the (n_results-capped) selection —
  // the retry must actually reach an alternate provider. Materializing is
  // O(|Pq|), paid only on the faulted retry path, into pooled scratch.
  const CandidateSet pool =
      registry_->CandidatesForShard(shard_id_, f->query, &candidate_scratch_);
  retry_scratch_.clear();
  for (model::ProviderId p : pool.All()) {
    if (std::find(f->tried.begin(), f->tried.end(), p) == f->tried.end()) {
      retry_scratch_.push_back(p);
    }
  }
  if (retry_scratch_.empty()) {
    // Every candidate already failed this query (or the pool went dry
    // between attempts). Finalize decides: yet another backoff if budget
    // remains (a suspected provider may be probed back in meanwhile), else
    // terminal failure. No cross-shard delegation for retries — the
    // tried-set and outcome routing stay local.
    Finalize(h, /*timed_out=*/false);
    return;
  }
  const CandidateSet candidates(&retry_scratch_);
  Allocate(h, candidates);
}

void Mediator::RecordProviderFailure(model::ProviderId provider) {
  if (config_.failure_threshold <= 0) return;
  EnsureProviderTables(provider);
  ProviderHealth& health = health_[static_cast<size_t>(provider)];
  if (health.suspected) return;
  if (registry_->provider(provider).departed()) return;
  if (++health.consecutive_failures < config_.failure_threshold) return;
  health.consecutive_failures = 0;
  health.suspected = true;
  ++stats_.providers_suspected;
  // Apply the suspension asynchronously: failures are observed mid-
  // finalization, and taking the provider offline fails its OTHER pending
  // instances — re-entering FailProviderInstances here would clobber the
  // scratch of an in-progress sweep. In sharded mode the availability
  // change defers to the epoch log anyway.
  After(0, [this, provider] { SetProviderAvailability(provider, false); });
  After(config_.probe_delay, [this, provider] { ProbeProvider(provider); });
}

void Mediator::RecordProviderSuccess(model::ProviderId provider) {
  if (config_.failure_threshold <= 0) return;
  health_[static_cast<size_t>(provider)].consecutive_failures = 0;
}

void Mediator::ProbeProvider(model::ProviderId provider) {
  ProviderHealth& health = health_[static_cast<size_t>(provider)];
  if (!health.suspected) return;
  health.suspected = false;
  health.consecutive_failures = 0;
  ++stats_.providers_probed;
  if (registry_->provider(provider).departed()) return;  // gone for good
  SetProviderAvailability(provider, true);
}

void Mediator::RecordConsumerOutcome(QueryOutcome* outcome) {
  ++stats_.queries_finalized;
  if (outcome->hops > 0) ++stats_.queries_rehomed;
  switch (ClassifyOutcome(*outcome)) {
    case OutcomeKind::kSatisfied:
      ++stats_.queries_satisfied;
      break;
    case OutcomeKind::kRetried:
      ++stats_.queries_recovered;
      break;
    case OutcomeKind::kFailed:
      // queries_unallocated already counts the unallocated flavour.
      if (!outcome->unallocated) ++stats_.queries_failed;
      break;
    case OutcomeKind::kTimedOut:  // queries_timed_out (executing side)
    case OutcomeKind::kShed:      // facade-level; never reaches a mediator
      break;
  }
  if (outcome->results_received >= outcome->results_required) {
    ++stats_.queries_fully_served;
  }
  if (outcome->results_received >= 1) {
    stats_.response_time.Add(outcome->response_time);
  }
  stats_.query_satisfaction.Add(outcome->satisfaction);

  Consumer& consumer = registry_->consumer(outcome->query.consumer);
  consumer.satisfaction_tracker().RecordQuery(
      outcome->satisfaction, outcome->adequation,
      outcome->allocation_satisfaction);
  registry_->MarkConsumerSatisfactionChanged(consumer.id());
  // Donors score this shard's borrowed queries with the barrier-published
  // copy: while one is out, the change has to reach the next barrier.
  if (shard_set_ != nullptr &&
      shard_mediators_[shard_id_]->delegated_out_ > 0) {
    shard_set_->RequestBarrier(shard_id_);
  }
  consumer.OnQueryCompleted();

  NotifyCompleted(*outcome);
  MaybeRetireConsumer(outcome->query.consumer);
}

void Mediator::FailProviderInstances(model::ProviderId provider) {
  if (static_cast<size_t>(provider) >= provider_inflight_.size()) return;
  // Every caller just dropped the provider's queue. The chain goes first:
  // with no in-flight link left it can still hold the instances of
  // finalized queries.
  DropServiceChain(provider);
  auto& list = provider_inflight_[static_cast<size_t>(provider)];
  if (list.empty()) return;
  // Move the handle list out first: finalizations below unlink entries
  // from the per-provider lists, and this provider's must not be mutated
  // mid-iteration. Copy-and-clear keeps the list's visit order and leaves
  // both buffers where they are.
  fail_scratch_.assign(list.begin(), list.end());
  list.clear();
  for (InflightHandle h : fail_scratch_) {
    InFlight* f = Resolve(h);
    if (f == nullptr) continue;
    for (Instance& inst : f->instances) {
      if (inst.provider == provider &&
          inst.status == InstanceStatus::kPending) {
        inst.status = InstanceStatus::kFailed;
        ++stats_.instances_failed;
        --f->pending;
      }
    }
    if (f->pending == 0) Finalize(h, /*timed_out=*/false);
  }
}

void Mediator::SetProviderAvailability(model::ProviderId provider,
                                       bool available) {
  if (deferred_membership()) {
    // Epoch op: no pre-filtering beyond finality — several toggles may
    // queue in one window and the apply-time no-change check collapses
    // them to the right net effect in FIFO order.
    if (registry_->provider(provider).departed()) return;
    registry_->QueueAvailabilityChange(shard_id_, provider, available);
    shard_set_->RequestBarrier(shard_id_);
    return;
  }
  ApplyProviderAvailability(provider, available);
}

void Mediator::ApplyProviderAvailability(model::ProviderId provider,
                                         bool available) {
  Provider& p = registry_->provider(provider);
  if (p.departed()) return;  // dissatisfaction departures are final
  if (available == p.alive()) return;
  if (available) {
    p.set_alive(true);
  } else {
    // Going offline loses the queued work, exactly like a departure, but
    // the provider may come back later.
    p.set_alive(false);
    p.DropQueue(rt_->now());
    ++stats_.provider_offline_events;
    FailProviderInstances(provider);
    NotifyPeersProviderGone(provider);
  }
  for (MediationObserver* obs : observers_) {
    obs->OnProviderAvailabilityChanged(provider, available, rt_->now());
  }
}

void Mediator::MaybeDepartProvider(model::ProviderId provider) {
  if (departure_ == nullptr) return;
  if (!departure_->ShouldProviderLeave(registry_->hot(), provider,
                                       rt_->now())) {
    return;
  }
  if (deferred_membership()) {
    // The provider keeps serving until the barrier; later mediations this
    // window may queue the same departure again (deduped at apply).
    registry_->QueueDeparture(shard_id_, provider);
    shard_set_->RequestBarrier(shard_id_);
    return;
  }
  ApplyProviderDeparture(provider);
}

void Mediator::QueueJoin(Registry::JoinFn join) {
  SBQA_CHECK(deferred_membership());
  registry_->QueueJoin(shard_id_, std::move(join));
  shard_set_->RequestBarrier(shard_id_);
}

void Mediator::ApplyProviderDeparture(model::ProviderId provider) {
  Provider& p = registry_->provider(provider);
  if (p.departed()) return;  // duplicate op in this window's log

  p.MarkDeparted();
  p.DropQueue(rt_->now());
  ++stats_.provider_departures;
  FailProviderInstances(provider);
  NotifyPeersProviderGone(provider);

  for (MediationObserver* obs : observers_) {
    obs->OnProviderDeparted(provider, rt_->now());
  }
}

void Mediator::MaybeRetireConsumer(model::ConsumerId consumer) {
  if (departure_ == nullptr) return;
  Consumer& c = registry_->consumer(consumer);
  if (!departure_->ShouldConsumerRetire(c, rt_->now())) return;
  c.set_active(false);
  // A retirement moves this shard's load in the peers' shard directory,
  // which the barrier refreshes.
  if (shard_set_ != nullptr) shard_set_->RequestBarrier(shard_id_);
  ++stats_.consumer_retirements;
  for (MediationObserver* obs : observers_) {
    obs->OnConsumerRetired(consumer, rt_->now());
  }
}

void Mediator::NotifyCompleted(const QueryOutcome& outcome) {
  for (MediationObserver* obs : observers_) {
    obs->OnQueryCompleted(outcome);
  }
}

// --- Load view & intentions --------------------------------------------------

double Mediator::ViewedBacklog(model::ProviderId provider) {
  const double now = rt_->now();
  const ProviderHotState& hot = registry_->hot();
  const uint32_t slot = static_cast<uint32_t>(provider);
  if (config_.load_view_staleness <= 0) {
    return hot.Backlog(slot, now);
  }
  EnsureProviderTables(provider);
  LoadReport& report = load_view_[static_cast<size_t>(provider)];
  if (report.reported_at < 0 ||
      now - report.reported_at >= config_.load_view_staleness) {
    report.reported_at = now;
    report.backlog = hot.Backlog(slot, now);
    return report.backlog;
  }
  // Stale report, linearly drained: the mediator can at least assume the
  // provider kept processing since it last reported.
  const double drained = report.backlog - (now - report.reported_at);
  return drained > 0 ? drained : 0.0;
}

std::vector<double> Mediator::BacklogsOf(
    std::span<const model::ProviderId> providers) {
  std::vector<double> out;
  BacklogsOf(providers, &out);
  return out;
}

void Mediator::BacklogsOf(std::span<const model::ProviderId> providers,
                          std::vector<double>* out) {
  SBQA_CHECK(out != nullptr);
  if (config_.load_view_staleness <= 0) {
    // Always-fresh view: one flat SoA pass over the hot-state arrays.
    ScoreKernel::GatherBacklogs(registry_->hot(), rt_->now(), providers, out);
    return;
  }
  out->clear();
  out->reserve(providers.size());
  for (model::ProviderId p : providers) {
    out->push_back(ViewedBacklog(p));
  }
}

std::vector<double> Mediator::ExpectedCompletionsOf(
    const model::Query& query, std::span<const model::ProviderId> providers) {
  std::vector<double> out;
  ExpectedCompletionsOf(query, providers, &out);
  return out;
}

void Mediator::ExpectedCompletionsOf(
    const model::Query& query, std::span<const model::ProviderId> providers,
    std::vector<double>* out) {
  SBQA_CHECK(out != nullptr);
  const ProviderHotState& hot = registry_->hot();
  if (config_.load_view_staleness <= 0) {
    ScoreKernel::GatherExpectedCompletions(hot, rt_->now(), query.cost,
                                           providers, out);
    return;
  }
  out->clear();
  out->reserve(providers.size());
  for (model::ProviderId p : providers) {
    out->push_back(ViewedBacklog(p) +
                   query.cost / hot.capacity(static_cast<uint32_t>(p)));
  }
}

std::vector<double> Mediator::ComputeProviderIntentions(
    const model::Query& query,
    std::span<const model::ProviderId> providers) const {
  IntentionList out;
  kernel_.ProviderIntentions(*this, query, providers, &out);
  return {out.begin(), out.end()};
}

double Mediator::ComputeConsumerIntention(const model::Query& query,
                                          model::ProviderId provider) {
  const double ect =
      ViewedBacklog(provider) +
      query.cost / registry_->hot().capacity(static_cast<uint32_t>(provider));
  const Consumer& consumer = registry_->consumer(query.consumer);
  return consumer.ComputeIntention(query, provider,
                                   reputation_->Get(provider), ect, ect);
}

std::vector<double> Mediator::ComputeConsumerIntentions(
    const model::Query& query, std::span<const model::ProviderId> providers) {
  IntentionList out;
  kernel_.ConsumerIntentions(*this, query, providers, &out, nullptr);
  return {out.begin(), out.end()};
}

}  // namespace sbqa::core
