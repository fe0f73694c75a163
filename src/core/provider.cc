#include "core/provider.h"

namespace sbqa::core {

Provider::Provider(model::ProviderId id, const ProviderParams& params)
    : id_(id),
      allowed_classes_(params.allowed_classes.begin(),
                       params.allowed_classes.end()),
      label_(params.label),
      owned_hot_(std::make_unique<ProviderHotState>()),
      hot_(owned_hot_.get()) {
  hot_->Reserve(1, params.memory_k);
  hot_slot_ = hot_->Append(params);
}

Provider::Provider(model::ProviderId id, const ProviderParams& params,
                   ProviderHotState* hot, uint32_t hot_slot)
    : id_(id),
      // No observer yet at construction: the registry indexes the provider
      // (restrictions included) right after, via OnProviderAdded.
      allowed_classes_(params.allowed_classes.begin(),
                       params.allowed_classes.end()),
      label_(params.label),
      hot_(hot),
      hot_slot_(hot_slot) {
  SBQA_CHECK(hot_ != nullptr);
  SBQA_CHECK_LT(static_cast<size_t>(hot_slot_), hot_->size());
}

}  // namespace sbqa::core
