// Sharded, epoch-stamped store of fitted performance models.
//
// The concurrency contract that makes the planning server work:
//
//   * Reads are wait-free past the shard lookup.  Each entry publishes an
//     immutable ModelSnapshot behind a plain std::atomic pointer; the hot
//     path takes one shared-mutex read lock to find the entry (writes to
//     the *map* are rare — first sight of a key), then one atomic load.
//     A snapshot is internally consistent by construction: predictor,
//     epoch and observation count travel in one allocation, so a torn fit
//     is impossible.  Reclamation is by retention: the entry keeps every
//     snapshot it ever published (~150 bytes per accepted probe — noise
//     next to the probe run that produced it), so a reader's pointer can
//     never dangle and no hazard-pointer machinery is needed.
//
//   * Writes serialize per key, not per store.  Probe ingestion takes the
//     entry's ingest mutex, banks the observation, refits, and atomically
//     swaps in a new snapshot with epoch + 1.  Tenants hammering disjoint
//     keys never contend; two tenants feeding the same model queue behind
//     one short critical section.
//
//   * Refits are deterministic regardless of ingest interleaving: each
//     entry keeps its observations in sorted order and replays them into
//     a fresh ThroughputBank before fitting, so the OLS summation order —
//     and therefore the published fit, bit for bit — depends only on the
//     multiset of observations, never on which thread got there first.
//
// The epoch stamp is the invalidation currency: the plan cache records
// the epoch a plan was computed under, and a cached plan is served only
// while its epoch is still the entry's current one.  One ingest therefore
// invalidates exactly the plans that depended on the refitted model.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "model/predictor.hpp"
#include "serve/model_key.hpp"

namespace reshape::serve {

/// One immutable published fit.  Snapshots are retained for the store's
/// lifetime, so one taken before a refit stays valid (and stale) rather
/// than dangling.
struct ModelSnapshot {
  model::Predictor predictor;
  /// Publication version: 1 on seed, +1 per accepted observation (and per
  /// reseed).  0 is reserved for "no such model".
  std::uint64_t epoch = 0;
  /// Observations banked when this snapshot was fitted.
  std::size_t observations = 0;
};

class ShardedModelStore {
 public:
  /// `shards` is rounded up to a power of two.  Below the evidence floor
  /// (ThroughputBank::kMinObservations) ingests still bump the epoch but
  /// the published predictor stays the prior (ThroughputBank::fitted).
  explicit ShardedModelStore(std::size_t shards = 16);

  ShardedModelStore(const ShardedModelStore&) = delete;
  ShardedModelStore& operator=(const ShardedModelStore&) = delete;

  /// Installs (or replaces) the prior predictor for a key.  Reseeding an
  /// existing key drops its banked observations and bumps the epoch, so
  /// every cached plan against the old model dies.
  void seed(ModelKeyView key, const model::Predictor& prior);

  /// The current published snapshot, or nullptr for an unknown key.
  /// Hot path: shard read lock + one atomic pointer load.  The pointer
  /// stays valid for the store's lifetime (see the retention note above).
  [[nodiscard]] const ModelSnapshot* snapshot(ModelKeyView key) const;

  /// Current epoch of a key; 0 when the key is unknown.
  [[nodiscard]] std::uint64_t epoch(ModelKeyView key) const;

  /// Banks one (volume, elapsed) probe observation and publishes the
  /// refit.  Returns the new epoch.  Observations with no signal (zero
  /// volume or non-positive time — ThroughputBank's own rule) are
  /// dropped without bumping the epoch, so they invalidate nothing.
  /// Unknown keys throw (a probe result for a model nobody seeded is a
  /// caller bug).
  std::uint64_t observe(ModelKeyView key, Bytes volume, Seconds elapsed);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

 private:
  struct Entry {
    std::atomic<const ModelSnapshot*> snap{nullptr};
    /// Serializes ingest for this key; guards the fields below.
    std::mutex ingest_mu;
    model::Predictor prior;
    std::uint64_t epoch = 0;
    /// (volume, time) pairs kept sorted for deterministic refits.
    std::vector<std::pair<double, double>> observations;
    /// Every snapshot ever published, newest last — the retention that
    /// makes wait-free reads safe without hazard pointers.
    std::vector<std::unique_ptr<const ModelSnapshot>> history;
  };

  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<ModelKey, std::unique_ptr<Entry>, ModelKeyHash,
                       ModelKeyEq>
        entries;
  };

  [[nodiscard]] Shard& shard_for(ModelKeyView key);
  [[nodiscard]] const Shard& shard_for(ModelKeyView key) const;
  /// Finds the entry under the shard's read lock; nullptr when absent.
  [[nodiscard]] Entry* find(ModelKeyView key) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t mask_ = 0;
};

}  // namespace reshape::serve
