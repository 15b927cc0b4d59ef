// The process-wide per-code-hash cache: sharded read-mostly map from code
// hash to its analysis (program.h). Lookups take a shared lock on one of 16
// shards (read-mostly fast path); the analysis itself runs exactly once per
// code hash under a per-entry once_flag, outside the map lock, so concurrent
// first-callers neither duplicate work nor serialize unrelated hashes.
// Entries are never evicted: the contract set of a chain is small and a
// bitmap is one bit per code byte.
#ifndef SRC_CODECACHE_CODE_CACHE_H_
#define SRC_CODECACHE_CODE_CACHE_H_

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "src/codecache/program.h"
#include "src/support/bytes.h"
#include "src/support/keccak.h"

namespace pevm {

class CodeCache : public CodeProvider {
 public:
  struct Stats {
    uint64_t hits = 0;     // Lookups that found a built analysis.
    uint64_t misses = 0;   // Analyses actually run.
    uint64_t entries = 0;  // Distinct code hashes resident.
  };

  std::shared_ptr<const CodeAnalysis> Analyze(const Bytes& code, const Hash256* hash) override;

  Stats GetStats() const;

 private:
  struct Entry {
    std::once_flag analyze_once;
    std::shared_ptr<const CodeAnalysis> analysis;  // Set under analyze_once.
  };

  // First 8 bytes of a keccak output are as good a hash as any.
  struct KeyHash {
    size_t operator()(const Hash256& h) const {
      uint64_t v;
      std::memcpy(&v, h.data(), sizeof(v));
      return static_cast<size_t>(v);
    }
  };

  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<Hash256, std::unique_ptr<Entry>, KeyHash> map;
  };

  static constexpr size_t kShards = 16;

  Shard shards_[kShards];
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

// The process-wide shared cache every executor, the chain runner and the
// query tier use. Persists across blocks, executors and chain runs.
CodeCache& SharedCodeCache();

// Compatibility names for chainbench/, which may not change before the
// benchmark's next revision. None of them carries a setting: the cache is
// always the shared one. Delete them then (ROADMAP).
struct CodeCacheConfig {
  static constexpr bool fuse = false;
};
inline CodeCache& SharedCodeCache(bool /*fuse*/) { return SharedCodeCache(); }
inline CodeProvider* StaticCodeProvider(const CodeCacheConfig& /*config*/) {
  return &SharedCodeCache();
}

}  // namespace pevm

#endif  // SRC_CODECACHE_CODE_CACHE_H_
