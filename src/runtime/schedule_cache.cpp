#include "runtime/schedule_cache.h"

#include <cmath>

#include "runtime/fingerprint.h"
#include "util/error.h"

namespace actg::runtime {

ScheduleCacheKey MakeCacheKey(const ctg::Ctg& graph,
                              const ctg::BranchProbabilities& probs,
                              std::uint64_t graph_fingerprint,
                              std::uint64_t platform_fingerprint,
                              std::uint64_t config_fingerprint,
                              std::uint64_t tenant, std::string policy) {
  ScheduleCacheKey key;
  key.graph_fingerprint = graph_fingerprint;
  key.platform_fingerprint = platform_fingerprint;
  key.config_fingerprint = config_fingerprint;
  key.tenant = tenant;
  key.policy = std::move(policy);
  for (TaskId fork : graph.ForkIds()) {
    for (int o = 0; o < graph.OutcomeCount(fork); ++o) {
      key.probs.push_back(probs.Outcome(fork, o));
    }
  }
  return key;
}

std::size_t ScheduleCache::KeyHash::operator()(
    const ScheduleCacheKey& key) const {
  std::uint64_t hash = key.graph_fingerprint;
  hash = HashCombine(hash, key.platform_fingerprint);
  hash = HashCombine(hash, key.config_fingerprint);
  hash = HashCombine(hash, key.tenant);
  for (const char c : key.policy) {
    hash = HashCombine(hash, static_cast<std::uint64_t>(c));
  }
  for (double p : key.probs) {
    // Bucket by quantized probability; exact equality is checked by
    // operator== on the stored key, so collisions only cost a probe.
    hash = HashCombine(
        hash, static_cast<std::uint64_t>(std::llround(
                  p * static_cast<double>(kExactQuantization))));
  }
  return static_cast<std::size_t>(hash);
}

std::size_t ScheduleCache::NearKeyHash::operator()(
    const NearKey& key) const {
  std::uint64_t hash = key.graph_fingerprint;
  hash = HashCombine(hash, key.platform_fingerprint);
  hash = HashCombine(hash, key.config_fingerprint);
  hash = HashCombine(hash, key.tenant);
  for (const char c : key.policy) {
    hash = HashCombine(hash, static_cast<std::uint64_t>(c));
  }
  for (std::int64_t b : key.buckets) {
    hash = HashCombine(hash, static_cast<std::uint64_t>(b));
  }
  return static_cast<std::size_t>(hash);
}

ScheduleCache::NearKey ScheduleCache::NearBucket(
    const ScheduleCacheKey& key) const {
  NearKey near;
  near.graph_fingerprint = key.graph_fingerprint;
  near.platform_fingerprint = key.platform_fingerprint;
  near.config_fingerprint = key.config_fingerprint;
  near.tenant = key.tenant;
  near.policy = key.policy;
  near.buckets.reserve(key.probs.size());
  for (double p : key.probs) {
    near.buckets.push_back(std::llround(
        p * static_cast<double>(kNearQuantization)));
  }
  return near;
}

void ScheduleCache::ForgetNear(std::list<Slot>::iterator it) {
  const auto near_it = near_index_.find(NearBucket(it->key));
  if (near_it != near_index_.end() && near_it->second == it) {
    near_index_.erase(near_it);
  }
}

ScheduleCache::ScheduleCache(ScheduleCacheOptions options, Metrics* metrics)
    : options_(options),
      metrics_(metrics),
      index_(/*bucket_count=*/16) {}

std::optional<ScheduleCacheEntry> ScheduleCache::Lookup(
    const ScheduleCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    if (metrics_) metrics_->Increment("schedule_cache.misses");
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  if (metrics_) metrics_->Increment("schedule_cache.hits");
  return it->second->entry;
}

std::optional<ScheduleCacheNearHit> ScheduleCache::LookupNear(
    const ScheduleCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = near_index_.find(NearBucket(key));
  if (it == near_index_.end()) {
    ++near_misses_;
    if (metrics_) metrics_->Increment("schedule_cache.near_misses");
    return std::nullopt;
  }
  ++near_hits_;
  if (metrics_) metrics_->Increment("schedule_cache.near_hits");
  return ScheduleCacheNearHit{it->second->entry, it->second->key.probs};
}

void ScheduleCache::Insert(const ScheduleCacheKey& key,
                           ScheduleCacheEntry entry) {
  if (options_.capacity == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    near_index_[NearBucket(key)] = it->second;
    return;
  }
  lru_.push_front(Slot{key, std::move(entry)});
  index_.emplace(key, lru_.begin());
  near_index_[NearBucket(key)] = lru_.begin();
  if (lru_.size() > options_.capacity) {
    const auto victim = std::prev(lru_.end());
    ForgetNear(victim);
    index_.erase(victim->key);
    lru_.pop_back();
    ++evictions_;
    if (metrics_) metrics_->Increment("schedule_cache.evictions");
  }
}

std::size_t ScheduleCache::Purge(std::uint64_t tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t removed = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.tenant == tenant) {
      ForgetNear(it);
      index_.erase(it->key);
      it = lru_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::size_t ScheduleCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

double ScheduleCache::HitRate() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) /
                          static_cast<double>(total);
}

namespace {

/// SplitMix64 finalizer: spreads consecutive tenant ids over the shard
/// array instead of mapping id % shards (which would pile the common
/// "tenants numbered 0..n" case onto a modulo pattern).
std::uint64_t MixTenant(std::uint64_t t) {
  t += 0x9E3779B97F4A7C15ULL;
  t = (t ^ (t >> 30)) * 0xBF58476D1CE4E5B9ULL;
  t = (t ^ (t >> 27)) * 0x94D049BB133111EBULL;
  return t ^ (t >> 31);
}

}  // namespace

ShardedScheduleCache::ShardedScheduleCache(
    ShardedScheduleCacheOptions options, Metrics* metrics) {
  ACTG_CHECK(options.shards > 0,
             "ShardedScheduleCache: shards must be > 0");
  shards_.reserve(options.shards);
  for (std::size_t s = 0; s < options.shards; ++s) {
    shards_.push_back(std::make_unique<ScheduleCache>(
        ScheduleCacheOptions{.capacity = options.shard_capacity}, metrics));
  }
}

std::size_t ShardedScheduleCache::ShardIndex(std::uint64_t tenant) const {
  return static_cast<std::size_t>(MixTenant(tenant) % shards_.size());
}

ScheduleCache& ShardedScheduleCache::ShardFor(std::uint64_t tenant) {
  return *shards_[ShardIndex(tenant)];
}

std::size_t ShardedScheduleCache::Purge(std::uint64_t tenant) {
  return ShardFor(tenant).Purge(tenant);
}

std::vector<ShardStats> ShardedScheduleCache::Stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    stats.push_back(ShardStats{shard->size(), shard->hits(),
                               shard->misses(), shard->evictions()});
  }
  return stats;
}

std::size_t ShardedScheduleCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

std::uint64_t ShardedScheduleCache::hits() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->hits();
  return total;
}

std::uint64_t ShardedScheduleCache::misses() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->misses();
  return total;
}

std::uint64_t ShardedScheduleCache::evictions() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->evictions();
  return total;
}

}  // namespace actg::runtime
