#include "src/state/sim_store.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/telemetry/trace.h"

namespace pevm {
namespace {

// Injects `ns` of wall-clock latency. Short delays spin on the steady clock
// (sleep granularity would distort them); long ones sleep so concurrent
// prefetch workers overlap honestly even on a single hardware thread.
void InjectLatency(uint64_t ns) {
  if (ns == 0) {
    return;
  }
  if (ns >= 20'000) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    return;
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < deadline) {
  }
}

}  // namespace

SimStore::SimStore(const SimStoreConfig& config) : config_(config) {}

SimStore::Shard& SimStore::ShardFor(const StateKey& key) const {
  return shards_[StateKeyHash{}(key) % kShards];
}

void SimStore::BeginBlock() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.resident.clear();
  }
}

bool SimStore::Touch(const StateKey& key) {
  bool was_resident;
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    was_resident = !shard.resident.insert(key).second;
  }
  if (was_resident) {
    warm_touches_.fetch_add(1, std::memory_order_relaxed);
    InjectLatency(config_.warm_read_ns);
  } else {
    PEVM_TRACE_SPAN("sim.cold_read");
    cold_touches_.fetch_add(1, std::memory_order_relaxed);
    InjectLatency(config_.cold_read_ns);
  }
  return was_resident;
}

void SimStore::WarmBatch(std::span<const StateKey> keys) {
  if (keys.empty()) {
    return;
  }
  PEVM_TRACE_SPAN_ARG("sim.warm_batch", "keys", keys.size());
  InjectLatency(config_.batch_base_ns + config_.batch_key_ns * keys.size());
  for (const StateKey& key : keys) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.resident.insert(key);
  }
  warmed_keys_.fetch_add(keys.size(), std::memory_order_relaxed);
  warm_batches_.fetch_add(1, std::memory_order_relaxed);
}

bool SimStore::IsResident(const StateKey& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.resident.contains(key);
}

std::vector<StateKey> SimStore::PredictSet(const PrefetchRequest& request) const {
  std::vector<StateKey> keys;
  keys.reserve(3);
  keys.push_back(StateKey::Balance(request.from));
  keys.push_back(StateKey::Nonce(request.from));
  keys.push_back(StateKey::Balance(request.to));
  if (request.has_selector) {
    std::lock_guard<std::mutex> lock(hints_mu_);
    auto it = hints_.find(HintKey{request.to, request.selector});
    if (it != hints_.end()) {
      // Deliberately no LRU bump: PredictSet runs on the chain's warm stage
      // concurrently with execution, so letting it touch recency would make
      // eviction order — and through it the deterministic prefetch counters
      // — timing-dependent.
      keys.insert(keys.end(), it->second.keys.begin(), it->second.keys.end());
    }
  }
  return keys;
}

void SimStore::RecordObserved(const PrefetchRequest& request, const ReadSet& reads) {
  if (!request.has_selector) {
    return;
  }
  std::lock_guard<std::mutex> lock(hints_mu_);
  HintKey hint_key{request.to, request.selector};
  auto [it, inserted] = hints_.try_emplace(hint_key);
  if (inserted) {
    hint_lru_.push_front(hint_key);
    it->second.lru_it = hint_lru_.begin();
    if (config_.max_hint_entries > 0 && hints_.size() > config_.max_hint_entries) {
      // Evict the bucket observed longest ago. Rotating hot contracts thus
      // sheds cold hints; a still-hot bucket was re-observed recently and
      // survives.
      hints_.erase(hint_lru_.back());
      hint_lru_.pop_back();
    }
  } else {
    hint_lru_.splice(hint_lru_.begin(), hint_lru_, it->second.lru_it);
  }
  std::vector<StateKey>& bucket = it->second.keys;
  for (const auto& [key, value] : reads) {
    if (key.kind != StateKeyKind::kStorage) {
      continue;  // Envelope keys are statically predicted; hints learn slots.
    }
    if (bucket.size() >= config_.max_hint_keys) {
      break;
    }
    if (std::find(bucket.begin(), bucket.end(), key) == bucket.end()) {
      bucket.push_back(key);
    }
  }
}

uint64_t SimStore::WarmBlock(std::span<const PrefetchRequest> requests) {
  // Hint buckets are per (contract, selector), so the transactions of a block
  // that call the same function predict the same slots: each is issued once.
  std::vector<StateKey> keys;
  std::unordered_set<StateKey, StateKeyHash> seen;
  for (const PrefetchRequest& request : requests) {
    for (const StateKey& key : PredictSet(request)) {
      if (seen.insert(key).second) {
        keys.push_back(key);
      }
    }
  }
  if (keys.empty()) {
    return 0;
  }
  ThreadPool* pool;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (!pool_) {
      pool_ = std::make_unique<ThreadPool>(std::max(config_.prefetch_workers, 1));
    }
    pool = pool_.get();
  }
  const size_t batch = std::max<size_t>(config_.batch_size, 1);
  pool->ParallelFor((keys.size() + batch - 1) / batch, [&](size_t b) {
    const size_t begin = b * batch;
    WarmBatch(std::span<const StateKey>(keys).subspan(begin,
                                                      std::min(batch, keys.size() - begin)));
  });
  return keys.size();
}

}  // namespace pevm
