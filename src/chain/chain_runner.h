// ChainRunner: streaming multi-block execution as a three-stage pipeline
// (the paper's full node loop, with the §6.2 commitment bottleneck taken off
// the critical path):
//
//   stage 1 (warm)   — while block N executes, warm block N+1's predicted
//                      access set into the executor's SimStore (cross-*block*
//                      prefetch; the per-tx pipeline inside Execute is the
//                      PrefetchEngine's). WarmBlock issues each distinct
//                      predicted key once per block, in batches run on the
//                      warm thread and the runner's warm pool.
//   stage 2 (exec)   — run block N through any Executor on the shared
//                      exec pipeline, journaling its write diff.
//   stage 3 (commit) — fold block N-1's diff into a persistent incremental
//                      MPT (IncrementalStateTrie) on a dedicated committer
//                      thread, so state-root computation overlaps execution.
//
// Stages are connected by bounded queues (bounded_queue.h): a slow committer
// back-pressures execution, a slow executor back-pressures warming and
// Submit. Determinism contract (DESIGN.md §3.2): the pipeline changes wall
// clock only. Roots, receipts and virtual makespans are bit-identical to
// executing the same blocks one at a time, at every queue depth and OS thread
// count, because (a) the committer replays each block's ordered diff exactly
// as WorldState applied it and (b) SimStore warming never carries values, so
// racing the warm stage against execution cannot change what any transaction
// reads.
#ifndef SRC_CHAIN_CHAIN_RUNNER_H_
#define SRC_CHAIN_CHAIN_RUNNER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/chain/bounded_queue.h"
#include "src/chain/commit.h"
#include "src/exec/boundary.h"
#include "src/exec/executor.h"
#include "src/exec/pipeline.h"
#include "src/exec/thread_pool.h"
#include "src/ops/flight_recorder.h"
#include "src/ops/ops_server.h"
#include "src/query/snapshot.h"
#include "src/state/spec_overlay.h"

namespace pevm {

// Every block executor the repo implements, runnable under the chain runner.
enum class ExecutorKind {
  kSerial,
  kTwoPhaseLocking,
  kOcc,
  kBlockStm,
  kParallelEvm,
};

std::string_view ExecutorKindName(ExecutorKind kind);
std::unique_ptr<Executor> MakeExecutor(ExecutorKind kind, const ExecOptions& options);

// Where stage 3 persists committed blocks. kNone keeps the pre-durability
// behaviour (trie only); kInMemory attaches the accounting NodeStore (same
// write stream, no I/O); kKv opens — or reopens — the embedded log-structured
// store at ChainOptions::kv_dir and makes every committed block durable.
enum class PersistMode {
  kNone,
  kInMemory,
  kKv,
};

struct ChainOptions {
  ExecutorKind executor = ExecutorKind::kParallelEvm;
  // Per-block executor options. The runner forces external_warmup = true (it
  // owns the SimStore lifecycle; see ExecOptions).
  ExecOptions exec;
  // Capacity of each inter-stage queue: how many blocks a stage may run ahead
  // of the next before backpressure stalls it.
  size_t queue_depth = 4;
  // Durability (see PersistMode). With kKv, a directory that already holds
  // committed blocks resumes: the runner rebuilds the committed WorldState
  // from the store, verifies its root against the durable manifest, and keeps
  // numbering blocks where the manifest left off — the `genesis` constructor
  // argument is ignored in that case. Determinism contract: persistence
  // changes wall clock only; roots/receipts/makespans stay bit-identical.
  PersistMode persist = PersistMode::kNone;
  std::string kv_dir;  // Store directory; required when persist == kKv.
  KvOptions kv;        // fsync / segment-size / compaction knobs.
  // Commit-stage knobs: shard-parallel re-rooting width and how many blocks
  // fold into one durable seal (see CommitOptions). Batching trades commit
  // durability lag for amortized fsyncs/WriteBatches; roots stay per-block
  // and bit-identical at every setting.
  CommitOptions commit;
  // Cross-block speculative execution (DESIGN.md §4.5): while block N
  // executes, a fourth pipeline stage runs block N+1's read phase against an
  // overlay of N's uncommitted writes; at the block boundary every
  // speculative record is validated against the committed state and either
  // reused, redo-repaired, or dropped. Determinism contract: speculation
  // changes wall clock only — roots, receipts, virtual makespans and every
  // deterministic BlockReport field are bit-identical to speculate = false.
  // Ignored (stage not started) for executors whose seed_mode() is kSkip.
  bool speculate = false;

  // Width of the speculation stage's read pool. The stage is latency-bound —
  // its threads mostly sit in simulated-storage waits, and its results are
  // boundary-validated anyway — so like prefetch workers it defaults wider
  // than the execution width instead of inheriting exec.os_threads. 0 means
  // max(16, resolved exec width). Wall-clock only, like everything here.
  int spec_threads = 0;

  // Concurrent read-only query tier (DESIGN.md §4.7). When enabled the
  // runner owns a SnapshotRegistry: the seed root is published at
  // construction and stage 3 publishes every committed (block, root, diff)
  // triple, keeping the last `query_retain` roots acquirable; eviction of
  // anything a live handle can still reach is deferred by the registry's
  // refcounts. Serving threads (a QueryEngine over snapshots()) read the
  // registry only — the tier is wall-clock-only: roots, receipts and every
  // deterministic BlockReport field are bit-identical with it on or off, at
  // any serving thread count.
  bool query_tier = false;
  size_t query_retain = 8;

  // Live ops plane (DESIGN.md §4.8): the embedded admin HTTP endpoint
  // (/metrics, /healthz, /debug/blocks, /debug/trace) and the stall
  // watchdog, both read-only over pipeline state. ops_server.port < 0 and
  // ops_server.watchdog == false (the defaults) start neither; the per-block
  // flight recorder runs regardless — it is part of the runner, always on,
  // and inert: roots and every deterministic BlockReport field are
  // bit-identical with the plane off, idle, or hammered (tests/ops_test.cc).
  ops::OpsServerOptions ops_server;
};

// Per-stage accounting. busy_ns counts time spent doing stage work (warming,
// executing, committing); wall_ns is the stage thread's lifetime, so
// busy_fraction() ~ 1 means the stage was the pipeline bottleneck.
struct StageStats {
  uint64_t busy_ns = 0;
  uint64_t wall_ns = 0;
  uint64_t blocks = 0;
  size_t max_queue_depth = 0;  // High-water mark of the stage's input queue.

  double busy_fraction() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(busy_ns) / static_cast<double>(wall_ns);
  }
};

// Cross-block speculation outcome totals, summed over ChainReport::blocks.
// Everything here is wall-clock class: which transactions launch early (vs
// are held or arrive after the boundary) depends on thread timing, so these
// counters may vary run to run — unlike the deterministic BlockReport fields,
// which speculation cannot change at all.
struct SpecStats {
  uint64_t blocks_speculated = 0;  // Blocks with any transaction launched or held.
  uint64_t txs_launched = 0;       // Speculated against the overlay.
  uint64_t txs_held = 0;           // Kept back by the hot-key gate.
  uint64_t seeds_clean = 0;        // Reused verbatim at the boundary.
  uint64_t seeds_redo_repaired = 0;
  uint64_t seeds_dropped = 0;
  uint64_t stale_reads = 0;        // Stale read-set entries across boundaries.
  uint64_t boundary_validate_wall_ns = 0;
};

struct ChainReport {
  StageStats warm;
  StageStats spec;  // All-zero unless ChainOptions::speculate engaged.
  StageStats exec;
  StageStats commit;
  SpecStats speculation;
  // Registry accounting (all-zero unless ChainOptions::query_tier). Publish/
  // retire/fold counts are deterministic per stream; acquires/pins/deferred
  // evictions depend on serving-thread timing (wall-clock class).
  SnapshotStats query_snapshots;

  uint64_t blocks_submitted = 0;
  uint64_t blocks_executed = 0;
  uint64_t blocks_committed = 0;  // == roots.size(); a consistent prefix.
  uint64_t blocks_resumed = 0;    // Durable blocks recovered at construction.
  uint64_t commit_batches = 0;    // Durable seals this run (== blocks at batch 1).
  bool aborted = false;

  // One final record per committed block (this run only, index-aligned with
  // roots), plus the run's durability totals: the genesis seal plus the sum
  // over blocks.
  std::vector<ops::BlockRecord> blocks;
  uint64_t kv_bytes_appended = 0;
  uint64_t kv_fsyncs = 0;
  uint64_t kv_sync_ns = 0;

  // State root after each committed block, in block order, plus the final
  // root (the seed root when nothing committed).
  std::vector<Hash256> roots;
  Hash256 final_root{};

  // Per-block executor reports, in block order, for executed blocks.
  std::vector<BlockReport> block_reports;
};

class ChainRunner {
 public:
  // Copies `genesis` as the chain's committed state and seeds the incremental
  // trie from it (the one O(state) build in the stream's lifetime). Pipeline
  // threads start immediately and idle on their queues.
  ChainRunner(const ChainOptions& options, const WorldState& genesis);

  // Aborts the stream if neither Finish nor Abort was called.
  ~ChainRunner();

  ChainRunner(const ChainRunner&) = delete;
  ChainRunner& operator=(const ChainRunner&) = delete;

  // Enqueues one block. Blocks the caller while the pipeline is saturated
  // (backpressure). Returns false — dropping the block — after Finish/Abort.
  bool Submit(Block block);

  // Closes the stream, drains every stage, joins the pipeline and returns the
  // final report, which lives as long as the runner. Idempotent (subsequent
  // calls return the same report).
  const ChainReport& Finish();

  // Drops every queued block/diff, lets in-flight stage work finish, joins
  // and reports. The committed prefix stays consistent: roots holds exactly
  // the blocks whose diffs were fully applied, in block order.
  const ChainReport& Abort();

  // The chain's committed state (stable only after Finish/Abort).
  const WorldState& state() const { return state_; }

  // Blocks found already durable when the KV directory was reopened (0 on a
  // fresh directory or without persistence). New blocks number from here.
  uint64_t recovered_blocks() const { return recovered_blocks_; }

  // The backing store (null unless persist == kKv). Test introspection and
  // explicit SyncNow; the runner itself owns the lifecycle.
  KvStore* kv_store() { return kv_store_.get(); }

  // The query tier's snapshot registry (null unless query_tier). Safe to read
  // from any number of serving threads while the pipeline runs; the single
  // publisher is stage 3.
  SnapshotRegistry* snapshots() { return snapshots_.get(); }

  // The always-on per-block flight recorder (ring capacity from
  // ChainOptions::ops_server.flight_recorder_blocks). Safe to snapshot from
  // any thread while the pipeline runs.
  const ops::FlightRecorder& flight_recorder() const { return flight_; }

  // The ops plane (null unless ops_server.enabled()). Live while the runner
  // lives; the destructor stops it before tearing the pipeline down. Attach
  // a QueryEngine here to surface serving stats in /healthz.
  ops::OpsServer* ops_server() { return ops_.get(); }

  // Per-stage progress sample for the watchdog and /healthz: relaxed counter
  // reads plus queue depths, never a pipeline lock. Callable from any thread.
  ops::PipelineProgress Progress() const;

 private:
  // One block in flight, the item on every queue: Submit wraps the block,
  // each stage fills in its own part of the record, and FlushBatch finalizes
  // the record when the block's batch seals.
  struct InFlight {
    Block block;
    // The spec stage's overlay records awaiting boundary validation, one per
    // transaction (disengaged where the hot-key gate held it back, so it
    // speculates in-block as usual); empty when the stage did not run.
    std::vector<std::optional<Speculation>> spec;
    StateDiff diff;           // Filled by the exec stage.
    uint64_t handoff_ns = 0;  // telemetry::NowNs() when it left its last stage.
    ops::BlockRecord record;
  };

  // Launch/hold filter for the speculation stage: a transaction predicted to
  // touch a key whose recent conflicts needed full re-execution fallback is
  // held back (its early record would just be dropped at the boundary);
  // redo-repairable hot keys stay launchable — repairing them cheaply at the
  // boundary is the point of the operation-level redo machinery. Rebuilt from
  // each block's conflict_keys histogram by the exec thread, queried by the
  // spec thread; wall-clock-only by construction (held transactions merely
  // speculate in-block as usual).
  class HotKeyGate {
   public:
    // `keys` is the block's in-block conflict histogram; `boundary_dropped`
    // the keys whose staleness just made the boundary drop a record — the
    // cross-block flavor of a fallback, fed back for the same reason.
    void Update(const std::vector<ConflictKeyStats>& keys,
                const std::vector<StateKey>& boundary_dropped) {
      std::lock_guard<std::mutex> lock(mu_);
      hot_.clear();
      for (const ConflictKeyStats& stats : keys) {
        if (stats.fallback > 0) {
          hot_.insert(stats.key);
        }
      }
      for (const StateKey& key : boundary_dropped) {
        hot_.insert(key);
      }
    }

    bool ShouldHold(std::span<const StateKey> predicted) const {
      std::lock_guard<std::mutex> lock(mu_);
      if (hot_.empty()) {
        return false;
      }
      for (const StateKey& key : predicted) {
        if (hot_.contains(key)) {
          return true;
        }
      }
      return false;
    }

   private:
    mutable std::mutex mu_;
    std::unordered_set<StateKey, StateKeyHash> hot_;
  };

  void WarmLoop();
  void SpecLoop();
  void ExecLoop();
  void CommitLoop();
  void CommitOne(InFlight item);
  // Seals every applied-but-unsealed block as one NodeStore batch, finalizes
  // each one's record and hands it on (RecordBlock). No-op on an empty batch;
  // called at the batch boundary and on commit-stage drain (Finish AND Abort,
  // so the durable manifest never lags the applied prefix in-process).
  void FlushBatch();
  // The one place a final record goes out: ChainReport::blocks, the flight
  // ring and the chain.block.* histograms.
  void RecordBlock(const ops::BlockRecord& record);
  void JoinAll();
  ChainReport BuildReport(bool aborted);

  ChainOptions options_;
  std::unique_ptr<KvStore> kv_store_;
  std::unique_ptr<NodeStore> node_store_;
  std::unique_ptr<Executor> executor_;
  SimStore* store_ = nullptr;  // Owned by executor_; null without storage sim.

  WorldState state_;
  // Engaged in the constructor (after recovery decides the seed); never reset.
  std::optional<IncrementalStateTrie> trie_;
  Hash256 seed_root_{};
  uint64_t recovered_blocks_ = 0;
  NodeStoreCommitStats genesis_seal_;

  // Root-pinned snapshot registry for the read-only query tier (null unless
  // options_.query_tier). Created in the constructor — after recovery fixes
  // the seed root, before any pipeline thread starts — and published to only
  // by CommitOne on the commit thread, so the registry's single-publisher
  // contract holds.
  std::unique_ptr<SnapshotRegistry> snapshots_;

  std::unique_ptr<BoundedQueue<InFlight>> input_;    // Submit -> warm.
  std::unique_ptr<BoundedQueue<InFlight>> ready_;    // warm -> spec/exec.
  std::unique_ptr<BoundedQueue<InFlight>> specced_;  // spec -> exec (speculate only).
  std::unique_ptr<BoundedQueue<InFlight>> diffs_;    // exec -> commit.

  // The warm stage's batch pool, prefetch_workers wide with the warm thread
  // as its calling thread; engaged only when the stage warms (a store and
  // prefetch_depth > 0).
  std::unique_ptr<ThreadPool> warm_pool_;

  // Cross-block speculation plumbing, engaged only when spec_enabled_.
  // overlay_ observes every state_ write; spec_base_ is the frozen committed
  // state captured before the observer attached; spec_pool_ is the stage's
  // own worker pool (the PoolFor singletons are not reentrant and the exec
  // thread's read phase uses them concurrently).
  bool spec_enabled_ = false;
  SpecOverlay overlay_;
  std::optional<WorldState> spec_base_;
  std::unique_ptr<ThreadPool> spec_pool_;
  HotKeyGate gate_;

  std::thread warm_thread_;
  std::thread spec_thread_;  // Only started when spec_enabled_.
  std::thread exec_thread_;
  std::thread commit_thread_;

  // Each stage's stats are written by that stage's thread only and read after
  // the join; roots_/block_reports_/blocks_ likewise. open_batch_ holds the
  // applied-but-unsealed blocks, oldest first: always the tail of roots_.
  StageStats warm_stats_;
  StageStats spec_stats_;
  StageStats exec_stats_;
  StageStats commit_stats_;
  std::vector<Hash256> roots_;
  std::vector<BlockReport> block_reports_;
  std::vector<InFlight> open_batch_;
  std::vector<ops::BlockRecord> blocks_;
  uint64_t commit_batches_ = 0;

  // Ops plane. flight_ is always on (its Record sits on the seal path but
  // is one struct copy under an uncontended mutex); progress counters are
  // relaxed atomics bumped at stage entry/exit so the watchdog and /healthz
  // can sample without touching any pipeline lock. ops_ is declared after
  // the queues so it is destroyed (and its threads joined) before the queues
  // its Progress closure reads — the destructor additionally stops it first.
  ops::FlightRecorder flight_;
  std::atomic<uint64_t> warm_in_{0}, warm_out_{0};
  std::atomic<uint64_t> spec_in_{0}, spec_out_{0};
  std::atomic<uint64_t> exec_in_{0}, exec_out_{0};
  std::atomic<uint64_t> commit_in_{0}, commit_out_{0};
  std::atomic<uint64_t> blocks_committed_{0};
  std::atomic<bool> pipeline_running_{true};
  std::unique_ptr<ops::OpsServer> ops_;

  // Submit may race Finish/Abort (a producer thread aborted mid-stream), so
  // the shared flags are atomic; the queues provide the actual cutoff.
  std::atomic<uint64_t> blocks_submitted_{0};
  std::atomic<bool> finished_{false};
  std::optional<ChainReport> report_;
};

}  // namespace pevm

#endif  // SRC_CHAIN_CHAIN_RUNNER_H_
