#include "serve/plan_cache.hpp"

#include <bit>
#include <mutex>

#include "common/error.hpp"

namespace reshape::serve {

std::uint64_t options_fingerprint(const provision::PlanOptions& options) {
  Digest64 d;
  d.update_u64(static_cast<std::uint64_t>(options.strategy));
  d.update_u64(std::bit_cast<std::uint64_t>(options.deadline.value()));
  d.update_u64(std::bit_cast<std::uint64_t>(options.residuals.mean));
  d.update_u64(std::bit_cast<std::uint64_t>(options.residuals.stddev));
  d.update_u64(options.residuals.count);
  return d.value();
}

std::uint64_t corpus_fingerprint(const corpus::Corpus& corpus) {
  Digest64 d;
  d.update_u64(corpus.file_count());
  for (const corpus::VirtualFile& f : corpus.files()) {
    d.update_u64(f.size.count());
    d.update_u64(std::bit_cast<std::uint64_t>(f.complexity));
  }
  return d.value();
}

std::uint64_t request_fingerprint(const corpus::Corpus& corpus,
                                  const provision::PlanOptions& options,
                                  std::uint64_t corpus_tag) {
  Digest64 d;
  d.update_u64(options_fingerprint(options));
  if (corpus_tag != 0) {
    // Tenant-versioned dataset: trust the tag, skip the O(files) digest.
    // The constant separates the tag and content domains so a tag can
    // never collide with a digest of the same value.
    d.update_u64(0x7461675f76657273ULL);
    d.update_u64(corpus_tag);
  } else {
    d.update_u64(corpus_fingerprint(corpus));
  }
  return d.value();
}

PlanCache::PlanCache(std::size_t shards, std::size_t capacity_per_shard)
    : capacity_per_shard_(capacity_per_shard) {
  RESHAPE_REQUIRE(shards > 0, "cache needs at least one shard");
  RESHAPE_REQUIRE(capacity_per_shard > 0, "cache shards need capacity");
  const std::size_t rounded = std::bit_ceil(shards);
  shards_.reserve(rounded);
  for (std::size_t i = 0; i < rounded; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  mask_ = rounded - 1;
}

PlanCache::Shard& PlanCache::shard_for(const PlanKeyView& key) {
  return *shards_[PlanKeyHash{}(key) & mask_];
}

const PlanCache::Shard& PlanCache::shard_for(const PlanKeyView& key) const {
  return *shards_[PlanKeyHash{}(key) & mask_];
}

std::shared_ptr<const CachedPlan> PlanCache::find(
    ModelKeyView key, std::uint64_t fingerprint,
    std::uint64_t current_epoch) const {
  const PlanKeyView view{key, fingerprint};
  const Shard& shard = shard_for(view);
  std::shared_ptr<const CachedPlan> found;
  {
    const std::shared_lock lock(shard.mu);
    const auto it = shard.plans.find(view);
    if (it != shard.plans.end()) found = it->second;
  }
  if (!found) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (found->model_epoch != current_epoch) {
    // Fitted against an outdated model: dead on arrival.  Left in place —
    // the replan's put() overwrites it, so no write lock is taken here.
    stale_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return found;
}

void PlanCache::put(ModelKeyView key, std::uint64_t fingerprint,
                    std::uint64_t model_epoch,
                    provision::ExecutionPlan plan) {
  const PlanKeyView view{key, fingerprint};
  Shard& shard = shard_for(view);
  auto cached = std::make_shared<const CachedPlan>(
      CachedPlan{std::move(plan), model_epoch});
  const std::unique_lock lock(shard.mu);
  const auto it = shard.plans.find(view);
  if (it != shard.plans.end()) {
    it->second = std::move(cached);
    return;  // overwrite keeps the original eviction slot
  }
  PlanKey owned{ModelKey(key), fingerprint};
  shard.order.push_back(owned);
  shard.plans.emplace(std::move(owned), std::move(cached));
  while (shard.plans.size() > capacity_per_shard_) {
    shard.plans.erase(shard.order.front());
    shard.order.pop_front();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t PlanCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::shared_lock lock(shard->mu);
    total += shard->plans.size();
  }
  return total;
}

}  // namespace reshape::serve
