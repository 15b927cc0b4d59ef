#include "src/state/sim_store.h"

#include <algorithm>
#include <chrono>
#include <cstddef>

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

// The one batching routine behind PrefetchEngine and WarmBlock. Predicted
// keys queue in transaction order, minus every key this run (one block) has
// already queued: hint buckets are per (contract, selector), so the
// transactions of a block that call the same function predict the same slots.
// Once a full batch per pool thread is pending, the full batches go out
// together, each one a SimStore::WarmBatch on a span of `pending_`.
class WarmBatcher {
 public:
  WarmBatcher(SimStore& store, ThreadPool& pool)
      : store_(store), pool_(pool), batch_size_(std::max<size_t>(store.config().batch_size, 1)) {}

  void Add(const PrefetchRequest& request) {
    for (const StateKey& key : store_.PredictSet(request)) {
      if (issued_.insert(key).second) {
        pending_.push_back(key);
      }
    }
    if (pending_.size() >= batch_size_ * static_cast<size_t>(pool_.threads())) {
      Issue(/*include_partial=*/false);
    }
  }

  // Issues everything pending, the partial last batch included.
  void Flush() { Issue(/*include_partial=*/true); }

  uint64_t keys_issued() const { return keys_issued_; }
  uint64_t batches_issued() const { return batches_issued_; }

 private:
  void Issue(bool include_partial) {
    const size_t batches = include_partial ? (pending_.size() + batch_size_ - 1) / batch_size_
                                           : pending_.size() / batch_size_;
    if (batches == 0) {
      return;
    }
    const size_t keys = std::min(batches * batch_size_, pending_.size());
    pool_.ParallelFor(batches, [&](size_t b) {
      const size_t begin = b * batch_size_;
      store_.WarmBatch(std::span<const StateKey>(pending_).subspan(
          begin, std::min(batch_size_, keys - begin)));
    });
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(keys));
    keys_issued_ += keys;
    batches_issued_ += batches;
  }

  SimStore& store_;
  ThreadPool& pool_;
  const size_t batch_size_;
  std::unordered_set<StateKey, StateKeyHash> issued_;
  std::vector<StateKey> pending_;
  uint64_t keys_issued_ = 0;
  uint64_t batches_issued_ = 0;
};

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
      // Deliberately no LRU bump: PredictSet runs on concurrent prefetch
      // drivers, so letting it touch recency would make eviction order — and
      // through it the deterministic prefetch counters — timing-dependent.
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

uint64_t WarmBlock(SimStore& store, std::span<const PrefetchRequest> requests, ThreadPool& pool) {
  WarmBatcher batcher(store, pool);
  for (const PrefetchRequest& request : requests) {
    batcher.Add(request);
  }
  batcher.Flush();
  return batcher.keys_issued();
}

PrefetchEngine::PrefetchEngine(SimStore& store, std::vector<PrefetchRequest> requests,
                               int depth)
    : store_(store),
      requests_(std::move(requests)),
      depth_(static_cast<size_t>(std::max(depth, 1))),
      pool_(std::max(store.config().prefetch_workers, 1)),
      driver_([this] { DriverLoop(); }) {}

void PrefetchEngine::NotifyStarted(size_t i) {
  size_t target = i + 1;
  size_t current = progress_.load(std::memory_order_relaxed);
  while (current < target &&
         !progress_.compare_exchange_weak(current, target, std::memory_order_release,
                                          std::memory_order_relaxed)) {
  }
}

void PrefetchEngine::Finish() {
  stop_.store(true, std::memory_order_release);
  Drain();
}

void PrefetchEngine::Drain() {
  if (driver_.joinable()) {
    driver_.join();
  }
}

void PrefetchEngine::DriverLoop() {
  PEVM_TRACE_THREAD_NAME("prefetch-driver");
  PEVM_TRACE_SPAN_ARG("prefetch.drive", "txs", requests_.size());
  WarmBatcher batcher(store_, pool_);
  for (size_t j = 0; j < requests_.size(); ++j) {
    // Pacing: stay at most `depth_` transactions ahead of the execution
    // frontier. While stalled, push out whatever is already batched.
    while (!stop_.load(std::memory_order_acquire) &&
           j >= progress_.load(std::memory_order_acquire) + depth_) {
      batcher.Flush();
      std::this_thread::yield();
    }
    if (stop_.load(std::memory_order_acquire)) {
      break;  // Abort: execution already passed everything we could warm.
    }
    batcher.Add(requests_[j]);
  }
  batcher.Flush();
  keys_issued_ = batcher.keys_issued();
  batches_issued_ = batcher.batches_issued();
}

}  // namespace pevm
