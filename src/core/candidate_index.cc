#include "core/candidate_index.h"

#include <algorithm>

#include "util/check.h"

namespace sbqa::core {

void CandidateIndex::DenseIdSet::Insert(model::ProviderId id) {
  SBQA_DCHECK(!contains(id));
  const size_t i = static_cast<size_t>(id);
  if (pos.size() <= i) pos.resize(i + 1, kAbsent);
  pos[i] = items.size();
  items.push_back(id);
}

void CandidateIndex::DenseIdSet::Erase(model::ProviderId id) {
  const size_t i = static_cast<size_t>(id);
  SBQA_DCHECK(contains(id));
  const size_t at = pos[i];
  const model::ProviderId last = items.back();
  items[at] = last;
  pos[static_cast<size_t>(last)] = at;
  items.pop_back();
  pos[i] = kAbsent;
}

void CandidateIndex::Reserve(size_t providers) {
  reserved_ = std::max(reserved_, providers);
  members_.reserve(reserved_);
  alive_.pos.reserve(reserved_);
  generalists_.pos.reserve(reserved_);
  for (ClassEntry& entry : by_class_) entry.set.pos.reserve(reserved_);
}

void CandidateIndex::OnProviderAdded(const Provider& provider) {
  const auto id = static_cast<size_t>(provider.id());
  SBQA_CHECK_GE(provider.id(), 0);
  if (members_.size() <= id) members_.resize(id + 1);
  SBQA_CHECK(!members_[id].alive);
  OnProviderChanged(provider);
}

void CandidateIndex::RemoveMemberships(model::ProviderId id) {
  Membership& m = members_[static_cast<size_t>(id)];
  if (!m.alive) return;
  alive_.Erase(id);
  if (m.generalist) {
    generalists_.Erase(id);
  } else {
    for (model::QueryClassId cls : m.classes) ClassSetOrInsert(cls).Erase(id);
  }
  m.alive = false;
  m.generalist = false;
  m.classes.clear();
}

void CandidateIndex::OnProviderChanged(const Provider& provider) {
  const model::ProviderId id = provider.id();
  SBQA_CHECK_GE(id, 0);
  SBQA_CHECK_LT(static_cast<size_t>(id), members_.size());
  Membership& m = members_[static_cast<size_t>(id)];
  if (m.alive) alive_capacity_ -= m.capacity;
  RemoveMemberships(id);
  // Incremental += / -= accumulates floating-point error over long churn
  // histories; re-sum exactly every so often (and whenever the population
  // empties) so the drift stays bounded at epsilon scale.
  if (++capacity_updates_ >= 65536 || alive_.items.empty()) {
    capacity_updates_ = 0;
    alive_capacity_ = 0;
    for (model::ProviderId alive_id : alive_.items) {
      alive_capacity_ += members_[static_cast<size_t>(alive_id)].capacity;
    }
  }
  if (!provider.alive()) return;

  m.alive = true;
  m.capacity = provider.capacity();
  alive_.Insert(id);
  alive_capacity_ += provider.capacity();
  if (provider.allowed_classes().empty()) {
    m.generalist = true;
    generalists_.Insert(id);
  } else {
    m.classes.assign(provider.allowed_classes().begin(),
                     provider.allowed_classes().end());
    for (model::QueryClassId cls : m.classes) ClassSetOrInsert(cls).Insert(id);
  }
}

size_t CandidateIndex::ClassRow(model::QueryClassId query_class) const {
  const auto it = std::lower_bound(
      by_class_.begin(), by_class_.end(), query_class,
      [](const ClassEntry& e, model::QueryClassId c) {
        return e.query_class < c;
      });
  return static_cast<size_t>(it - by_class_.begin());
}

const CandidateIndex::DenseIdSet* CandidateIndex::ClassSet(
    model::QueryClassId query_class) const {
  const size_t row = ClassRow(query_class);
  if (row == by_class_.size() || by_class_[row].query_class != query_class ||
      by_class_[row].set.items.empty()) {
    return nullptr;
  }
  return &by_class_[row].set;
}

CandidateIndex::DenseIdSet& CandidateIndex::ClassSetOrInsert(
    model::QueryClassId query_class) {
  const size_t row = ClassRow(query_class);
  if (row == by_class_.size() || by_class_[row].query_class != query_class) {
    by_class_.insert(by_class_.begin() + static_cast<long>(row),
                     ClassEntry{query_class, DenseIdSet{}});
    by_class_[row].set.pos.reserve(reserved_);
  }
  return by_class_[row].set;
}

size_t CandidateIndex::CountFor(model::QueryClassId query_class) const {
  const DenseIdSet* classed = ClassSet(query_class);
  return generalists_.items.size() +
         (classed != nullptr ? classed->items.size() : 0);
}

void CandidateIndex::CollectClassCounts(
    std::vector<std::pair<model::QueryClassId, size_t>>* out) const {
  SBQA_CHECK(out != nullptr);
  out->clear();
  out->reserve(by_class_.size());
  for (const ClassEntry& entry : by_class_) {
    out->emplace_back(entry.query_class, entry.set.items.size());
  }
}

void CandidateIndex::CollectFor(model::QueryClassId query_class,
                                std::vector<model::ProviderId>* out) const {
  SBQA_CHECK(out != nullptr);
  out->assign(generalists_.items.begin(), generalists_.items.end());
  if (const DenseIdSet* classed = ClassSet(query_class)) {
    out->insert(out->end(), classed->items.begin(), classed->items.end());
  }
}

void CandidateIndex::CollectAlive(std::vector<model::ProviderId>* out) const {
  SBQA_CHECK(out != nullptr);
  out->assign(alive_.items.begin(), alive_.items.end());
}

void CandidateIndex::SampleFor(model::QueryClassId query_class, size_t k,
                               util::Rng& rng,
                               std::vector<model::ProviderId>* out) const {
  SBQA_CHECK(out != nullptr);
  const DenseIdSet* classed = ClassSet(query_class);
  const size_t generalist_n = generalists_.items.size();
  const size_t n = generalist_n + (classed != nullptr ? classed->items.size() : 0);
  if (k >= n) {
    // Sampling disabled: the whole of Pq in random order (so downstream
    // position-sensitive consumers see no id bias).
    CollectFor(query_class, out);
    rng.Shuffle(out);
    return;
  }
  // Draw k distinct virtual indices over the concatenation
  // generalists ++ by_class[c] (disjoint sets, so the union is exact).
  rng.SampleIndices(n, k, &sample_stamps_, &sample_scratch_);
  out->clear();
  out->reserve(k);
  for (size_t index : sample_scratch_) {
    out->push_back(index < generalist_n
                       ? generalists_.items[index]
                       : classed->items[index - generalist_n]);
  }
}

bool CandidateIndex::ContainsFor(model::QueryClassId query_class,
                                 model::ProviderId provider) const {
  if (generalists_.contains(provider)) return true;
  const DenseIdSet* classed = ClassSet(query_class);
  return classed != nullptr && classed->contains(provider);
}

// --- CandidateSet -----------------------------------------------------------

CandidateSet::CandidateSet(const CandidateIndex* index,
                           model::QueryClassId query_class,
                           std::vector<model::ProviderId>* scratch)
    : index_(index), query_class_(query_class), scratch_(scratch) {
  SBQA_CHECK(index != nullptr);
  SBQA_CHECK(scratch != nullptr);
}

CandidateSet::CandidateSet(const std::vector<model::ProviderId>* list)
    : list_(list) {
  SBQA_CHECK(list != nullptr);
}

size_t CandidateSet::size() const {
  if (list_ != nullptr) return list_->size();
  return index_->CountFor(query_class_);
}

const std::vector<model::ProviderId>& CandidateSet::All() const {
  if (list_ != nullptr) return *list_;
  if (!materialized_) {
    index_->CollectFor(query_class_, scratch_);
    materialized_ = true;
  }
  return *scratch_;
}

void CandidateSet::SampleUniform(size_t k, util::Rng& rng,
                                 std::vector<model::ProviderId>* out) const {
  SBQA_CHECK(out != nullptr);
  if (list_ == nullptr) {
    index_->SampleFor(query_class_, k, rng, out);
    return;
  }
  const size_t n = list_->size();
  if (k >= n) {
    out->assign(list_->begin(), list_->end());
    rng.Shuffle(out);
    return;
  }
  // Explicit-list mode serves tests, crafted contexts and the mediator's
  // retry path (Pq minus the providers already tried). Per-thread scratch
  // keeps it allocation-free once warm, like the indexed path.
  static thread_local util::SampleScratch stamps;
  static thread_local std::vector<size_t> picked;
  rng.SampleIndices(n, k, &stamps, &picked);
  out->clear();
  out->reserve(k);
  for (size_t index : picked) out->push_back((*list_)[index]);
}

}  // namespace sbqa::core
