// The common block-executor interface every concurrency-control algorithm
// implements, plus the shared virtual-time reporting types.
#ifndef SRC_EXEC_EXECUTOR_H_
#define SRC_EXEC_EXECUTOR_H_

#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/codecache/code_cache.h"
#include "src/exec/types.h"
#include "src/sim/cost_model.h"
#include "src/state/sim_store.h"
#include "src/state/world_state.h"

namespace pevm {

// Per-transaction read-phase mode (also an executor's answer to "what shape
// of cross-block speculation record can you consume?" — see
// Executor::seed_mode).
enum class SpecMode : uint8_t {
  kSkip,     // Do not speculate (scheduled fallback transactions).
  kPlain,    // Speculate without an operation log (OCC-style).
  kWithLog,  // Speculate and generate the SSA operation log.
};

struct ExecOptions {
  int threads = 16;  // Virtual worker threads (the paper's machine: 8c/16t).
  CostConfig cost;
  // Table 2 methodology: a prior prefetching run warmed every storage slot,
  // so committed-state reads never miss. This is the *virtual-time* oracle
  // knob; the wall-clock prefetch pipeline below is independent of it.
  bool prefetch = false;
  // Real OS worker threads for the read phase (0 = one per hardware thread,
  // capped at 16). Changes only the wall-clock BlockReport fields: state
  // roots, receipts, counters and the virtual makespan are bit-identical for
  // every value, including 1.
  int os_threads = 0;
  // Asynchronous storage prefetch pipeline (wall clock): how many
  // transactions ahead of execution the background PrefetchEngine may warm
  // the simulated storage cache. 0 disables the engine. Like os_threads this
  // can only move the wall-clock BlockReport fields; the prefetch_* hit/miss
  // counters it unlocks are deterministic functions of the predicted access
  // sets, computed on the block-order pass.
  int prefetch_depth = 0;
  // Simulated storage latency/batching behind the prefetcher. All-zero
  // latencies (the default) keep the store as pure residency bookkeeping.
  SimStoreConfig storage;
  // Compatibility name with no setting (src/codecache/code_cache.h): every
  // executor uses the process-wide SharedCodeCache().
  CodeCacheConfig code_cache;
  // Chain-runner handoff (src/chain): when true, a ChainRunner owns the
  // SimStore lifecycle — Execute neither clears residency (BeginBlock) nor
  // starts its own PrefetchEngine, because the chain's warm-up stage already
  // warmed this block while the previous one executed. The deterministic
  // prefetch hit/miss/wasted accounting and the hint-table learning still run
  // on the block-order pass, so those counters are bit-identical to a
  // single-block run. Wall-clock only, like everything SimStore touches.
  bool external_warmup = false;
};

// --- Conflict attribution. -------------------------------------------------
//
// Per validation failure, the (address, key) pairs whose stale reads caused
// it, aggregated into a per-block hot-key histogram with the resolution
// outcome (redo repair vs full-re-execution fallback) per key. Recorded on
// the deterministic block-order commit path only, so like every other
// non-wall counter it is bit-identical for any OS-thread count.

enum class ConflictOutcome : uint8_t {
  kRedoResolved = 0,  // The conflicting transaction was repaired by redo.
  kFallback = 1,      // It fell back to full re-execution (or OCC-style
                      // unconditional re-execution).
};

struct ConflictKeyStats {
  StateKey key;
  uint64_t conflicts = 0;      // Stale-read occurrences of this key.
  uint64_t redo_resolved = 0;  // ...on transactions redo repaired.
  uint64_t fallback = 0;       // ...on transactions that re-executed.

  friend bool operator==(const ConflictKeyStats&, const ConflictKeyStats&) = default;
};

// Accumulates per-key conflict counts across a block's commit sweep.
class ConflictAttribution {
 public:
  void Record(const StateKey& key, ConflictOutcome outcome) {
    Counts& counts = stats_[key];
    ++counts.conflicts;
    if (outcome == ConflictOutcome::kRedoResolved) {
      ++counts.redo_resolved;
    } else {
      ++counts.fallback;
    }
  }

  bool empty() const { return stats_.empty(); }

  // Deterministic hot-first ordering: conflict count descending, ties broken
  // by key bytes ascending. Defined in pipeline.cc.
  std::vector<ConflictKeyStats> Sorted() const;

 private:
  struct Counts {
    uint64_t conflicts = 0;
    uint64_t redo_resolved = 0;
    uint64_t fallback = 0;
  };
  std::unordered_map<StateKey, Counts, StateKeyHash> stats_;
};

struct BlockReport {
  uint64_t makespan_ns = 0;

  // Real wall-clock measurements (the virtual-time makespan above stays the
  // paper-figure oracle; these report what the hardware actually did). The
  // only BlockReport fields allowed to vary with ExecOptions::os_threads.
  uint64_t read_wall_ns = 0;    // Parallel speculation (read phase).
  uint64_t commit_wall_ns = 0;  // Validate/redo/write sweep.

  // Conflict-resolution statistics.
  int conflicts = 0;       // Transactions that failed validation.
  int redo_success = 0;    // Conflicts resolved by the redo phase.
  int redo_fail = 0;       // Redo aborted (guard failure) -> full re-execution.
  int full_reexecutions = 0;
  int lock_aborts = 0;     // 2PL wounds.
  uint64_t redo_entries_reexecuted = 0;
  uint64_t redo_ns = 0;    // Virtual time spent in redo.
  uint64_t oplog_entries = 0;
  uint64_t instructions = 0;

  // Async-prefetch accounting (all zero unless ExecOptions::prefetch_depth
  // > 0). hits/misses classify each transaction's observed reads against its
  // predicted access set; wasted counts predicted keys no transaction read.
  // All three are computed on the deterministic block-order pass, so they are
  // OS-thread-count invariant.
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_misses = 0;
  uint64_t prefetch_wasted = 0;

  // Hot-key conflict histogram (hottest first, ConflictAttribution::Sorted
  // order). Empty for executors without read validation (serial, 2PL).
  // Deterministic: recorded on the block-order commit path.
  std::vector<ConflictKeyStats> conflict_keys;

  std::vector<Receipt> receipts;
};

// Sums every additive BlockReport field (virtual makespan, wall clocks,
// conflict/redo/prefetch counters) across `reports` and re-aggregates the
// per-key conflict histograms into one hot-first histogram. Receipts are not
// carried over. The ChainReport companion: benches aggregate
// chain_report.block_reports through this instead of hand-rolling sums.
BlockReport AggregateBlockReports(const std::vector<BlockReport>& reports);

// Boundary-validated cross-block speculation records, produced by the chain
// runner's speculation stage (defined in src/exec/pipeline.h).
struct BoundarySeeds;

class Executor {
 public:
  virtual ~Executor() = default;
  virtual std::string_view name() const = 0;
  // Executes the block's transactions in block order against `state`,
  // committing all effects (including the block-end coinbase fee credit).
  virtual BlockReport Execute(const Block& block, WorldState& state) = 0;
  // Cross-block handoff (src/chain): a speculation stage may have pre-executed
  // some of this block's transactions against the previous block's uncommitted
  // overlay and boundary-validated them against `state` (so each engaged seed
  // is bit-identical to what a fresh speculation would produce). Executors
  // that can consume seeds override this; the default ignores them and the
  // block executes exactly as unseeded.
  virtual BlockReport Execute(const Block& block, WorldState& state, BoundarySeeds* seeds) {
    (void)seeds;
    return Execute(block, state);
  }
  // The speculation-record shape this executor's read phase consumes — what
  // the chain's speculation stage must produce for seeds to be bit-identical
  // to fresh speculation (kWithLog for ParallelEVM, kPlain for OCC). kSkip
  // means "cannot consume seeds": the chain disables the stage entirely.
  virtual SpecMode seed_mode() const { return SpecMode::kSkip; }
  // Chain-runner handoff: the executor's simulated-storage front-end, created
  // on demand (nullptr when the wall-clock storage model is disabled). The
  // chain's warm-up stage warms block N+1's predicted access set into this
  // store while block N executes. Call before Execute runs on another thread;
  // the store itself is internally synchronized.
  virtual SimStore* chain_store() { return nullptr; }
};

// Tracks which committed-state keys are memory-resident. Executors consult it
// to split reads into cold (disk-latency) and warm (cache-latency).
class StateCache {
 public:
  explicit StateCache(bool all_warm) : all_warm_(all_warm) {}

  // Counts the cold keys in `reads`, then marks them resident.
  uint64_t Touch(const ReadSet& reads) {
    if (all_warm_) {
      return 0;
    }
    uint64_t cold = 0;
    for (const auto& [key, value] : reads) {
      if (resident_.insert(key).second) {
        ++cold;
      }
    }
    return cold;
  }

 private:
  bool all_warm_;
  std::unordered_set<StateKey, StateKeyHash> resident_;
};

// Lazily instantiates an executor's simulated-storage front-end when the
// wall-clock storage model or the async prefetch pipeline is enabled;
// returns nullptr (and the executor skips all SimStore plumbing) otherwise.
// The store lives across Execute calls so the access-hint table learned in
// one block predicts the next.
inline SimStore* EnsureSimStore(const ExecOptions& options, std::unique_ptr<SimStore>& slot) {
  if (options.prefetch_depth <= 0 && options.storage.cold_read_ns == 0 &&
      options.storage.warm_read_ns == 0) {
    return nullptr;
  }
  if (!slot) {
    slot = std::make_unique<SimStore>(options.storage);
  }
  return slot.get();
}

// Envelope reads (sender nonce + balance) that are not counted in
// ExecStats::sloads but still hit committed state.
inline constexpr uint64_t kEnvelopeReads = 3;

// Total committed-read operations a transaction performed; used to derive the
// warm-read count once cold reads are known.
inline uint64_t TotalReadOps(const ExecStats& stats) { return stats.sloads + kEnvelopeReads; }

// Credits the accumulated fees to the coinbase (all executors defer this to
// block end; see src/exec/apply.h).
inline void CreditCoinbase(WorldState& state, const Address& coinbase, const U256& fees) {
  if (!fees.IsZero()) {
    state.SetBalance(coinbase, state.GetBalance(coinbase) + fees);
  }
}

}  // namespace pevm

#endif  // SRC_EXEC_EXECUTOR_H_
