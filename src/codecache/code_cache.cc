#include "src/codecache/code_cache.h"

#include <chrono>

#include "src/evm/opcode.h"
#include "src/telemetry/metrics.h"

namespace pevm {

std::shared_ptr<const CodeAnalysis> CodeCache::Analyze(const Bytes& code, const Hash256* hash) {
  Hash256 h = hash != nullptr ? *hash : Keccak256(BytesView(code.data(), code.size()));
  Shard& shard = shards_[h[0] & (kShards - 1)];

  Entry* entry = nullptr;
  {
    std::shared_lock lock(shard.mutex);
    auto it = shard.map.find(h);
    if (it != shard.map.end()) {
      entry = it->second.get();
    }
  }
  if (entry == nullptr) {
    std::unique_lock lock(shard.mutex);
    auto [it, inserted] = shard.map.try_emplace(h);
    if (inserted) {
      it->second = std::make_unique<Entry>();
    }
    entry = it->second.get();
  }

  // Analysis runs exactly once per hash, outside the map lock: concurrent
  // first-callers block here (on this entry only) instead of re-analyzing.
  bool built = false;
  std::call_once(entry->analyze_once, [&] {
    auto start = std::chrono::steady_clock::now();
    auto analysis = std::make_shared<CodeAnalysis>();
    analysis->hash = h;
    analysis->jumpdests = JumpdestBitmap(code);
    entry->analysis = std::move(analysis);
    auto elapsed = std::chrono::steady_clock::now() - start;
    built = true;
    misses_.fetch_add(1, std::memory_order_relaxed);
    static auto& miss_counter = telemetry::GetCounter("codecache.miss");
    static auto& analysis_ns = telemetry::GetHistogram("codecache.analysis_ns");
    miss_counter.Add();
    analysis_ns.Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  });
  if (!built) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    static auto& hit_counter = telemetry::GetCounter("codecache.hit");
    hit_counter.Add();
  }
  return entry->analysis;
}

CodeCache::Stats CodeCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    stats.entries += shard.map.size();
  }
  return stats;
}

CodeCache& SharedCodeCache() {
  static CodeCache cache;
  return cache;
}

}  // namespace pevm
