// The simulated storage front-end and its asynchronous prefetch pipeline.
//
// PR 1 made the read phase genuinely parallel; the remaining wall-clock
// bottleneck (paper Table 2, §6.3 "State Prefetching") is the LevelDB-like
// latency of every cold committed-state read. SimStore models that latency on
// the *wall clock only*: a thread-safe resident-key set decides whether a
// read pays the cold or the warm delay, and predicted access sets are warmed
// ahead of speculation with batched reads (one amortised batch latency
// instead of a cold miss per key), each distinct key once per block. Two
// callers share the batching: the background PrefetchEngine, paced against
// execution on its own src/exec ThreadPool, and WarmBlock, the chain
// runner's synchronous whole-block warm-up on a pool the runner owns.
//
// Determinism contract (DESIGN.md §3.2): nothing in this file may influence
// execution results or the virtual-time oracle. SimStore never stores values
// — warming marks residency and pays simulated latency, and SimStoreReader
// always returns the value the committed WorldState holds, so state roots,
// receipts and the virtual makespan are bit-identical with prefetching on or
// off, at every thread count. Only the wall-clock BlockReport fields (and the
// separately computed, deterministic prefetch hit/miss/wasted counters — see
// AccountPrefetch in src/exec/pipeline.h) react to this machinery.
#ifndef SRC_STATE_SIM_STORE_H_
#define SRC_STATE_SIM_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/exec/thread_pool.h"
#include "src/state/state_view.h"
#include "src/state/world_state.h"

namespace pevm {

struct SimStoreConfig {
  // Wall-clock latency of a point read that misses the resident set (a
  // LevelDB-backed MPT node walk) and of one that hits it. Both default to 0:
  // the store then only tracks residency, so tests stay fast.
  uint64_t cold_read_ns = 0;
  uint64_t warm_read_ns = 0;
  // Wall-clock latency of one background batched read: base seek plus a
  // per-key increment. Batching is why prefetching wins — a batch of 32 keys
  // costs batch_base_ns + 32 * batch_key_ns instead of 32 * cold_read_ns.
  uint64_t batch_base_ns = 0;
  uint64_t batch_key_ns = 0;
  // Prefetch-engine shape: worker-pool width for issuing batches, keys per
  // batch, and the cap on remembered storage keys per (contract, selector)
  // hint bucket.
  int prefetch_workers = 2;
  size_t batch_size = 32;
  size_t max_hint_keys = 96;
  // Global cap on (contract, selector) hint buckets, LRU-evicted by observed
  // use: a long stream rotating through hot contracts sheds the cold ones
  // instead of growing without bound. 0 = unbounded. Recency is bumped only
  // by RecordObserved — the deterministic block-order pass — never by the
  // concurrent PredictSet, so eviction order (and therefore every prefetch
  // counter) is independent of OS thread timing.
  size_t max_hint_entries = 4096;
};

// The statically predictable part of one transaction's access set: the
// envelope accounts plus the calldata selector that keys the access-hint
// table. Built from a Block by BuildPrefetchRequests (src/exec/pipeline.h);
// kept free of exec-layer types so the state layer stays below exec.
struct PrefetchRequest {
  Address from;
  Address to;
  uint32_t selector = 0;  // First four calldata bytes, big-endian.
  bool has_selector = false;
};

class SimStore {
 public:
  explicit SimStore(const SimStoreConfig& config = {});

  const SimStoreConfig& config() const { return config_; }

  // Clears the resident set (per-block cold cache, matching the per-Execute
  // virtual StateCache) but keeps the access-hint table: hints learned in
  // block N predict block N+1's storage keys.
  void BeginBlock();

  // Foreground read of `key` by an executing thread: pays the cold or warm
  // latency depending on residency, then marks the key resident. Returns
  // whether the key was already resident. Thread-safe.
  bool Touch(const StateKey& key);

  // Background warm-up of a batch of keys: marks them resident after paying
  // one amortised batch latency. Never reads values, so it may run
  // concurrently with foreground execution *and* with commits. Thread-safe.
  void WarmBatch(std::span<const StateKey> keys);

  // Latency-free residency probe (test introspection only).
  bool IsResident(const StateKey& key) const;

  // The predicted access set for one transaction: envelope keys (sender
  // balance + nonce, recipient balance) plus the hint bucket recorded for
  // (to, selector) by prior rounds. Pure function of the request and the
  // hint table. Thread-safe.
  std::vector<StateKey> PredictSet(const PrefetchRequest& request) const;

  // Feeds the hint table: storage keys observed in `reads` are remembered
  // under (to, selector), capped at max_hint_keys per bucket. Called from the
  // deterministic block-order accounting pass only — never concurrently with
  // PredictSet from a live engine.
  void RecordObserved(const PrefetchRequest& request, const ReadSet& reads);

  // Wall-side statistics (informational; not part of any determinism
  // contract).
  uint64_t cold_touches() const { return cold_touches_.load(std::memory_order_relaxed); }
  uint64_t warm_touches() const { return warm_touches_.load(std::memory_order_relaxed); }
  uint64_t warmed_keys() const { return warmed_keys_.load(std::memory_order_relaxed); }
  uint64_t warm_batches() const { return warm_batches_.load(std::memory_order_relaxed); }

  // Live (contract, selector) hint buckets (test introspection; bounded by
  // max_hint_entries when that is non-zero).
  size_t hint_entries() const {
    std::lock_guard<std::mutex> lock(hints_mu_);
    return hints_.size();
  }

  // Whether (to, selector) currently has a hint bucket (test introspection).
  bool HasHintBucket(const Address& to, uint32_t selector) const {
    std::lock_guard<std::mutex> lock(hints_mu_);
    return hints_.contains(HintKey{to, selector});
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_set<StateKey, StateKeyHash> resident;
  };
  struct HintKey {
    Address to;
    uint32_t selector = 0;
    friend bool operator==(const HintKey&, const HintKey&) = default;
  };
  struct HintKeyHash {
    size_t operator()(const HintKey& k) const {
      return Fnv1a(k.to.view()) * 0x9e3779b97f4a7c15ULL + k.selector;
    }
  };

  // One hint bucket plus its position in the observed-recency list (most
  // recent at the front; eviction pops the back).
  struct HintBucket {
    std::vector<StateKey> keys;
    std::list<HintKey>::iterator lru_it;
  };

  Shard& ShardFor(const StateKey& key) const;

  SimStoreConfig config_;
  static constexpr size_t kShards = 16;
  mutable std::array<Shard, kShards> shards_;

  mutable std::mutex hints_mu_;
  std::unordered_map<HintKey, HintBucket, HintKeyHash> hints_;
  std::list<HintKey> hint_lru_;

  std::atomic<uint64_t> cold_touches_{0};
  std::atomic<uint64_t> warm_touches_{0};
  std::atomic<uint64_t> warmed_keys_{0};
  std::atomic<uint64_t> warm_batches_{0};
};

// Base-state reader that routes every committed read through the simulated
// storage front-end: residency decides the injected wall latency, the value
// always comes from the committed WorldState (code reads are latency-free —
// hot contract code is assumed memory-resident, as in the cost model).
class SimStoreReader final : public BaseReader {
 public:
  SimStoreReader(SimStore& store, const WorldState& state) : store_(&store), state_(&state) {}

  U256 Read(const StateKey& key) const override {
    store_->Touch(key);
    return state_->Get(key);
  }
  const Bytes* ReadCode(const Address& a) const override { return state_->GetCode(a); }

 private:
  SimStore* store_;
  const WorldState* state_;
};

// Whole-block warm-up on the calling thread and `pool`: predicts every
// request's access set against the hint table and issues each distinct key
// once, in batches of config().batch_size, one batch per pool thread at a
// time. Returns when every batch has been warmed; the result is the number of
// keys issued. The pool must not be running another job.
uint64_t WarmBlock(SimStore& store, std::span<const PrefetchRequest> requests, ThreadPool& pool);

// The asynchronous prefetch pipeline: a driver thread walks the block's
// prefetch requests in transaction order, staying at most `depth`
// transactions ahead of execution (NotifyStarted feeds the execution
// frontier), predicts each transaction's access set against the hint table,
// and issues the keys not yet issued for this block as batched warm-ups
// across an owned ThreadPool — so the warm-up for transaction i+depth
// overlaps the execution of transaction i.
//
// Lifecycle: construction starts the driver; Finish() (or the destructor)
// aborts any not-yet-issued warm-ups and joins. Drain() instead waits for the
// driver to issue everything — only safe when pacing can finish without
// further NotifyStarted calls (depth >= number of requests, or the frontier
// already advanced past them).
class PrefetchEngine {
 public:
  PrefetchEngine(SimStore& store, std::vector<PrefetchRequest> requests, int depth);
  ~PrefetchEngine() { Finish(); }

  PrefetchEngine(const PrefetchEngine&) = delete;
  PrefetchEngine& operator=(const PrefetchEngine&) = delete;

  // Marks transaction `i` as started by execution; the driver may then warm
  // up through transaction i + depth. Thread-safe, monotonic.
  void NotifyStarted(size_t i);

  // Aborts remaining warm-ups and joins the driver. Idempotent.
  void Finish();

  // Joins the driver without aborting (see class comment for when this is
  // safe). Idempotent.
  void Drain();

  // Valid after Finish()/Drain().
  uint64_t keys_issued() const { return keys_issued_; }
  uint64_t batches_issued() const { return batches_issued_; }

 private:
  void DriverLoop();

  SimStore& store_;
  std::vector<PrefetchRequest> requests_;
  size_t depth_;
  ThreadPool pool_;
  std::atomic<size_t> progress_{0};
  std::atomic<bool> stop_{false};
  uint64_t keys_issued_ = 0;  // Written by the driver, read after join.
  uint64_t batches_issued_ = 0;
  std::thread driver_;  // Last member: starts after everything else is ready.
};

}  // namespace pevm

#endif  // SRC_STATE_SIM_STORE_H_
