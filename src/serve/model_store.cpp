#include "serve/model_store.hpp"

#include <algorithm>
#include <bit>
#include <mutex>

#include "common/error.hpp"

namespace reshape::serve {

ShardedModelStore::ShardedModelStore(std::size_t shards) {
  RESHAPE_REQUIRE(shards > 0, "store needs at least one shard");
  const std::size_t rounded = std::bit_ceil(shards);
  shards_.reserve(rounded);
  for (std::size_t i = 0; i < rounded; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  mask_ = rounded - 1;
}

ShardedModelStore::Shard& ShardedModelStore::shard_for(ModelKeyView key) {
  return *shards_[ModelKeyHash{}(key) & mask_];
}

const ShardedModelStore::Shard& ShardedModelStore::shard_for(
    ModelKeyView key) const {
  return *shards_[ModelKeyHash{}(key) & mask_];
}

ShardedModelStore::Entry* ShardedModelStore::find(ModelKeyView key) const {
  const Shard& shard = shard_for(key);
  const std::shared_lock lock(shard.mu);
  const auto it = shard.entries.find(key);
  return it == shard.entries.end() ? nullptr : it->second.get();
}

void ShardedModelStore::seed(ModelKeyView key, const model::Predictor& prior) {
  Shard& shard = shard_for(key);
  Entry* entry = nullptr;
  {
    const std::unique_lock lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      it = shard.entries.emplace(ModelKey(key), std::make_unique<Entry>())
               .first;
    }
    entry = it->second.get();
  }
  const std::lock_guard ingest(entry->ingest_mu);
  entry->prior = prior;
  entry->observations.clear();
  entry->epoch += 1;
  entry->history.push_back(std::make_unique<const ModelSnapshot>(
      ModelSnapshot{prior, entry->epoch, 0}));
  entry->snap.store(entry->history.back().get(),
                    std::memory_order_release);
}

const ModelSnapshot* ShardedModelStore::snapshot(ModelKeyView key) const {
  const Entry* entry = find(key);
  if (entry == nullptr) return nullptr;
  return entry->snap.load(std::memory_order_acquire);
}

std::uint64_t ShardedModelStore::epoch(ModelKeyView key) const {
  const auto snap = snapshot(key);
  return snap ? snap->epoch : 0;
}

std::uint64_t ShardedModelStore::observe(ModelKeyView key, Bytes volume,
                                         Seconds elapsed) {
  Entry* entry = find(key);
  RESHAPE_REQUIRE(entry != nullptr,
                  "probe observation for a model nobody seeded");
  const std::lock_guard ingest(entry->ingest_mu);
  // Mirror ThroughputBank::observe's no-signal rule: such a draw would
  // not change the fit, so it must not invalidate anything either.
  if (volume.count() == 0 || elapsed.value() <= 0.0) return entry->epoch;

  const std::pair<double, double> obs{volume.as_double(), elapsed.value()};
  entry->observations.insert(
      std::upper_bound(entry->observations.begin(),
                       entry->observations.end(), obs),
      obs);

  // Replay in sorted order so the OLS summation — and the published fit —
  // is a pure function of the observation multiset.
  model::ThroughputBank bank;
  for (const auto& [v, t] : entry->observations) {
    bank.observe(Bytes(static_cast<std::uint64_t>(v)), Seconds(t));
  }
  const model::Predictor refit = bank.fitted(entry->prior);

  entry->epoch += 1;
  entry->history.push_back(std::make_unique<const ModelSnapshot>(
      ModelSnapshot{refit, entry->epoch, entry->observations.size()}));
  entry->snap.store(entry->history.back().get(),
                    std::memory_order_release);
  return entry->epoch;
}

std::size_t ShardedModelStore::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::shared_lock lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

}  // namespace reshape::serve
