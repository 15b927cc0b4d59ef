#include "src/chain/chain_runner.h"

#include "src/codecache/code_cache.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/baselines/block_stm.h"
#include "src/baselines/occ.h"
#include "src/baselines/serial.h"
#include "src/baselines/two_phase_locking.h"
#include "src/core/parallel_evm.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace pevm {

std::string_view ExecutorKindName(ExecutorKind kind) {
  switch (kind) {
    case ExecutorKind::kSerial:
      return "serial";
    case ExecutorKind::kTwoPhaseLocking:
      return "2pl";
    case ExecutorKind::kOcc:
      return "occ";
    case ExecutorKind::kBlockStm:
      return "block-stm";
    case ExecutorKind::kParallelEvm:
      return "parallelevm";
  }
  return "?";
}

std::unique_ptr<Executor> MakeExecutor(ExecutorKind kind, const ExecOptions& options) {
  switch (kind) {
    case ExecutorKind::kSerial:
      return std::make_unique<SerialExecutor>(options);
    case ExecutorKind::kTwoPhaseLocking:
      return std::make_unique<TwoPhaseLockingExecutor>(options);
    case ExecutorKind::kOcc:
      return std::make_unique<OccExecutor>(options);
    case ExecutorKind::kBlockStm:
      return std::make_unique<BlockStmExecutor>(options);
    case ExecutorKind::kParallelEvm:
      return std::make_unique<ParallelEvmExecutor>(options);
  }
  return nullptr;
}

namespace {

[[noreturn]] void FatalChain(const char* what, const std::string& detail) {
  std::fprintf(stderr, "chain_runner: %s: %s\n", what, detail.c_str());
  std::abort();
}

// Wall time from a hand-off instant to now (0 if the clock reads earlier).
uint64_t NsSince(uint64_t instant_ns) {
  const uint64_t now = telemetry::NowNs();
  return now > instant_ns ? now - instant_ns : 0;
}

}  // namespace

ChainRunner::ChainRunner(const ChainOptions& options, const WorldState& genesis)
    : options_(options), state_(genesis), flight_(options.ops_server.flight_recorder_blocks) {
  options_.exec.external_warmup = true;  // The runner owns the SimStore lifecycle.
  switch (options_.persist) {
    case PersistMode::kNone:
      trie_.emplace(state_, nullptr, IncrementalStateTrie::SeedMode::kFresh, options_.commit);
      break;
    case PersistMode::kInMemory:
      node_store_ = std::make_unique<InMemoryNodeStore>();
      trie_.emplace(state_, node_store_.get(), IncrementalStateTrie::SeedMode::kFresh,
                    options_.commit);
      break;
    case PersistMode::kKv: {
      std::string error;
      kv_store_ = KvStore::Open(options_.kv_dir, options_.kv, &error);
      if (!kv_store_) {
        FatalChain("cannot open kv store", error);
      }
      node_store_ = std::make_unique<KvNodeStore>(*kv_store_);
      if (std::optional<RecoveredChain> recovered = RecoverChain(*kv_store_)) {
        // Resume: the durable manifest wins over the genesis argument. The
        // re-seeded trie's root cross-checks the flat mirror against the
        // manifest — a mismatch means the store is internally inconsistent,
        // which the commit-marker protocol is supposed to make impossible.
        state_ = std::move(recovered->state);
        recovered_blocks_ = recovered->blocks_committed;
        trie_.emplace(state_, node_store_.get(),
                      IncrementalStateTrie::SeedMode::kAlreadyDurable, options_.commit);
        if (trie_->Root() != recovered->root) {
          FatalChain("recovered state root mismatch", options_.kv_dir);
        }
      } else {
        trie_.emplace(state_, node_store_.get(), IncrementalStateTrie::SeedMode::kFresh,
                      options_.commit);
      }
      break;
    }
  }
  genesis_seal_ = trie_->genesis_stats();
  executor_ = MakeExecutor(options_.executor, options_.exec);
  store_ = executor_->chain_store();
  seed_root_ = trie_->Root();
  if (options_.query_tier) {
    // Registry base = the committed (possibly recovered) state; the seed root
    // becomes the first acquirable snapshot. Built before any pipeline thread
    // starts so serving threads may attach immediately.
    snapshots_ = std::make_unique<SnapshotRegistry>(
        state_, seed_root_, recovered_blocks_, std::max<size_t>(1, options_.query_retain));
  }
  if (store_ && options_.exec.prefetch_depth > 0) {
    // The warm thread is the pool's calling thread, so the stage issues
    // prefetch_workers batches at a time and starts no thread per block.
    warm_pool_ = std::make_unique<ThreadPool>(std::max(store_->config().prefetch_workers, 1));
  }
  spec_enabled_ = options_.speculate && executor_->seed_mode() != SpecMode::kSkip;
  if (spec_enabled_) {
    // Frozen speculation base: copied BEFORE the observer attaches, so the
    // copy holds no observer pointer and never sees post-construction writes
    // (those reach the spec stage through the overlay instead).
    spec_base_.emplace(state_);
    state_.SetWriteObserver(&overlay_);
    const int spec_width =
        options_.spec_threads > 0
            ? ThreadPool::ResolveWidth(options_.spec_threads)
            : std::max(16, ThreadPool::ResolveWidth(options_.exec.os_threads));
    spec_pool_ = std::make_unique<ThreadPool>(spec_width);
    // Depth 1 deliberately, regardless of queue_depth: the hand-off queue
    // bounds speculative run-ahead. With a deeper queue the spec stage races
    // several blocks past the commit frontier and nearly every overlay read
    // it takes is stale by its boundary; depth 1 keeps it roughly one block
    // ahead of the executor — full overlap, minimal staleness.
    specced_ = std::make_unique<BoundedQueue<InFlight>>(1);
  }
  input_ = std::make_unique<BoundedQueue<InFlight>>(options_.queue_depth);
  ready_ = std::make_unique<BoundedQueue<InFlight>>(options_.queue_depth);
  diffs_ = std::make_unique<BoundedQueue<InFlight>>(options_.queue_depth);
  if (options_.ops_server.enabled()) {
    // After the queues exist (the Progress closure reads their depths),
    // before the pipeline threads start — a scrape that lands during Submit
    // of block 1 must already see a coherent sample.
    std::function<SnapshotStats()> snapshot_stats;
    if (snapshots_) {
      snapshot_stats = [this] { return snapshots_->stats(); };
    }
    ops_ = std::make_unique<ops::OpsServer>(options_.ops_server, flight_,
                                            [this] { return Progress(); },
                                            std::move(snapshot_stats));
    std::string error;
    if (!ops_->Start(&error)) {
      FatalChain("cannot start ops server", error);
    }
  }
  warm_thread_ = std::thread(&ChainRunner::WarmLoop, this);
  if (spec_enabled_) {
    spec_thread_ = std::thread(&ChainRunner::SpecLoop, this);
  }
  exec_thread_ = std::thread(&ChainRunner::ExecLoop, this);
  commit_thread_ = std::thread(&ChainRunner::CommitLoop, this);
}

ChainRunner::~ChainRunner() {
  // Quiesce the ops plane first: once Stop returns, no HTTP worker or
  // watchdog thread can be inside Progress()/flight-recorder reads while the
  // queues below tear down.
  if (ops_) {
    ops_->Stop();
  }
  if (!finished_.load()) {
    Abort();
  }
}

ops::PipelineProgress ChainRunner::Progress() const {
  ops::PipelineProgress progress;
  progress.running = pipeline_running_.load(std::memory_order_relaxed);
  progress.blocks_submitted = blocks_submitted_.load(std::memory_order_relaxed);
  progress.blocks_committed = blocks_committed_.load(std::memory_order_relaxed);

  ops::StageProgress warm;
  warm.name = "warm";
  warm.active = true;
  warm.entered = warm_in_.load(std::memory_order_relaxed);
  warm.exited = warm_out_.load(std::memory_order_relaxed);
  warm.queue_depth = input_->depth();
  warm.queue_high_water = input_->max_depth();
  progress.stages.push_back(std::move(warm));

  ops::StageProgress spec;
  spec.name = "spec";
  spec.active = spec_enabled_;
  spec.entered = spec_in_.load(std::memory_order_relaxed);
  spec.exited = spec_out_.load(std::memory_order_relaxed);
  if (spec_enabled_) {
    spec.queue_depth = ready_->depth();
    spec.queue_high_water = ready_->max_depth();
  }
  progress.stages.push_back(std::move(spec));

  ops::StageProgress exec;
  exec.name = "exec";
  exec.active = true;
  exec.entered = exec_in_.load(std::memory_order_relaxed);
  exec.exited = exec_out_.load(std::memory_order_relaxed);
  if (spec_enabled_) {
    exec.queue_depth = specced_->depth();
    exec.queue_high_water = specced_->max_depth();
  } else {
    exec.queue_depth = ready_->depth();
    exec.queue_high_water = ready_->max_depth();
  }
  progress.stages.push_back(std::move(exec));

  ops::StageProgress commit;
  commit.name = "commit";
  commit.active = true;
  commit.entered = commit_in_.load(std::memory_order_relaxed);
  commit.exited = commit_out_.load(std::memory_order_relaxed);
  commit.queue_depth = diffs_->depth();
  commit.queue_high_water = diffs_->max_depth();
  progress.stages.push_back(std::move(commit));
  return progress;
}

bool ChainRunner::Submit(Block block) {
  if (finished_.load()) {
    return false;
  }
  InFlight item;
  item.block = std::move(block);
  if (!input_->Push(std::move(item))) {
    return false;
  }
  blocks_submitted_.fetch_add(1);
  return true;
}

const ChainReport& ChainRunner::Finish() {
  if (finished_.load()) {
    return *report_;
  }
  input_->Close();
  JoinAll();
  report_ = BuildReport(/*aborted=*/false);
  finished_.store(true);
  return *report_;
}

const ChainReport& ChainRunner::Abort() {
  if (finished_.load()) {
    return *report_;
  }
  // Drop everything queued; stages finish only the item they already hold, so
  // the committed prefix stays a prefix.
  input_->Abort();
  ready_->Abort();
  if (specced_) {
    specced_->Abort();
  }
  diffs_->Abort();
  JoinAll();
  report_ = BuildReport(/*aborted=*/true);
  finished_.store(true);
  return *report_;
}

void ChainRunner::WarmLoop() {
  PEVM_TRACE_THREAD_NAME("chain-warm");
  WallTimer stage;
  while (std::optional<InFlight> item = input_->Pop()) {
    warm_in_.fetch_add(1, std::memory_order_relaxed);
    WallTimer busy;
    PEVM_TRACE_COUNTER("chain.input_queue", input_->depth());
    const Block& block = item->block;
    // The block's one number, used by every chain.* span, the snapshot
    // registry and the flight ring: chain-lifetime and 1-based, so a resumed
    // runner keeps counting where the recovered manifest left off.
    item->record.block_index = recovered_blocks_ + warm_stats_.blocks + 1;
    item->record.transactions = block.transactions.size();
    {
      PEVM_TRACE_SPAN_ARG("chain.warm", "block", item->record.block_index);
      if (warm_pool_ && !block.transactions.empty()) {
        item->record.warm_keys = WarmBlock(*store_, BuildPrefetchRequests(block), *warm_pool_);
      }
    }
    item->record.warm_busy_ns = busy.ElapsedNs();
    warm_stats_.busy_ns += item->record.warm_busy_ns;
    ++warm_stats_.blocks;
    item->handoff_ns = telemetry::NowNs();
    bool pushed = ready_->Push(std::move(*item));
    warm_out_.fetch_add(1, std::memory_order_relaxed);
    if (!pushed) {
      break;  // Aborted downstream.
    }
  }
  ready_->Close();
  warm_stats_.wall_ns = stage.ElapsedNs();
}

void ChainRunner::SpecLoop() {
  PEVM_TRACE_THREAD_NAME("chain-spec");
  WallTimer stage;
  const bool with_log = executor_->seed_mode() == SpecMode::kWithLog;
  while (std::optional<InFlight> item = ready_->Pop()) {
    spec_in_.fetch_add(1, std::memory_order_relaxed);
    item->record.ready_wait_ns = NsSince(item->handoff_ns);
    WallTimer busy;
    PEVM_TRACE_COUNTER("chain.ready_queue", ready_->depth());
    const Block& block = item->block;
    const size_t n = block.transactions.size();
    if (n > 0) {
      PEVM_TRACE_SPAN_ARG("chain.spec_launch", "txs", n);
      // Gate prepass (cheap, serial): hold back transactions predicted to
      // touch fallback-hot keys; their early record would only be dropped.
      std::vector<PrefetchRequest> requests = BuildPrefetchRequests(block);
      std::vector<char> launch(n, 0);
      for (size_t i = 0; i < n; ++i) {
        std::vector<StateKey> predicted =
            store_ ? store_->PredictSet(requests[i])
                   : std::vector<StateKey>{StateKey::Balance(requests[i].from),
                                           StateKey::Nonce(requests[i].from),
                                           StateKey::Balance(requests[i].to)};
        if (gate_.ShouldHold(predicted)) {
          ++item->record.spec_held;
        } else {
          launch[i] = 1;
          ++item->record.spec_launched;
        }
      }
      // Early read phase against overlay ∘ frozen base: overlay hits are the
      // in-flight block's uncommitted writes; base reads pay the simulated
      // storage latency and warm residency — work the in-block read phase
      // then skips. Values are predictions; the boundary validation on the
      // exec thread is what makes reusing them sound.
      SpecOverlayReader reader(overlay_, *spec_base_, store_);
      item->spec.resize(n);
      spec_pool_->ParallelFor(n, [&](size_t i) {
        if (!launch[i]) {
          return;
        }
        PEVM_TRACE_SPAN_ARG("chain.speculate", "tx", i);
        item->spec[i] = SpeculateTransaction(reader, block.context, block.transactions[i],
                                             with_log, &SharedCodeCache());
      });
    }
    item->record.spec_busy_ns = busy.ElapsedNs();
    spec_stats_.busy_ns += item->record.spec_busy_ns;
    ++spec_stats_.blocks;
    item->handoff_ns = telemetry::NowNs();
    bool pushed = specced_->Push(std::move(*item));
    spec_out_.fetch_add(1, std::memory_order_relaxed);
    if (!pushed) {
      break;  // Aborted downstream.
    }
  }
  specced_->Close();
  spec_stats_.wall_ns = stage.ElapsedNs();
}

void ChainRunner::ExecLoop() {
  PEVM_TRACE_THREAD_NAME("chain-exec");
  WallTimer stage;
  // With speculation the exec stage's input is the spec stage's output;
  // otherwise blocks come straight from the warm stage.
  BoundedQueue<InFlight>& input = spec_enabled_ ? *specced_ : *ready_;
  while (std::optional<InFlight> item = input.Pop()) {
    exec_in_.fetch_add(1, std::memory_order_relaxed);
    ops::BlockRecord& record = item->record;
    record.ready_wait_ns += NsSince(item->handoff_ns);
    WallTimer busy;
    PEVM_TRACE_COUNTER(spec_enabled_ ? "chain.specced_queue" : "chain.ready_queue",
                       input.depth());
    // Boundary validation: the previous block's Execute has returned and this
    // thread is the only state_ writer, so state_ is quiescent — exactly the
    // committed post-predecessor state the seeds must be validated against.
    BoundarySeeds seeds;
    const bool have_seeds = !item->spec.empty();
    std::vector<StateKey> boundary_dropped;
    if (have_seeds) {
      WallTimer validate;
      PEVM_TRACE_SPAN_ARG("chain.boundary_validate", "block", record.block_index);
      BoundaryOutcome outcome = ValidateBoundary(std::move(item->spec), state_);
      record.spec_clean = outcome.clean;
      record.spec_repaired = outcome.redo_repaired;
      record.spec_dropped = outcome.dropped;
      record.spec_stale_reads = outcome.stale_keys;
      record.spec_validate_ns = validate.ElapsedNs();
      seeds = std::move(outcome.seeds);
      boundary_dropped = std::move(outcome.dropped_keys);
    }
    BlockReport report;
    {
      PEVM_TRACE_SPAN_ARG("chain.exec", "block", record.block_index);
      state_.BeginDiff();
      report = executor_->Execute(item->block, state_, have_seeds ? &seeds : nullptr);
    }
    if (spec_enabled_) {
      gate_.Update(report.conflict_keys, boundary_dropped);
    }
    item->diff = state_.TakeDiff();
    record.exec_busy_ns = busy.ElapsedNs();
    exec_stats_.busy_ns += record.exec_busy_ns;
    ++exec_stats_.blocks;
    record.conflicts = report.conflicts;
    record.redo_success = report.redo_success;
    record.redo_fail = report.redo_fail;
    record.full_reexecutions = report.full_reexecutions;
    record.oplog_entries = report.oplog_entries;
    record.instructions = report.instructions;
    record.prefetch_hits = report.prefetch_hits;
    record.prefetch_misses = report.prefetch_misses;
    block_reports_.push_back(std::move(report));
    item->handoff_ns = telemetry::NowNs();
    exec_out_.fetch_add(1, std::memory_order_relaxed);
    if (!diffs_->Push(std::move(*item))) {
      break;  // Aborted downstream.
    }
  }
  diffs_->Close();
  exec_stats_.wall_ns = stage.ElapsedNs();
}

void ChainRunner::CommitLoop() {
  PEVM_TRACE_THREAD_NAME("chain-commit");
  WallTimer stage;
  while (std::optional<InFlight> item = diffs_->Pop()) {
    PEVM_TRACE_COUNTER("chain.diff_queue", diffs_->depth());
    CommitOne(std::move(*item));
  }
  // Seal the open batch on drain — Finish AND Abort — so the durable
  // manifest covers exactly the applied prefix roots_ reports.
  WallTimer tail;
  FlushBatch();
  commit_stats_.busy_ns += tail.ElapsedNs();
  commit_stats_.wall_ns = stage.ElapsedNs();
}

void ChainRunner::CommitOne(InFlight item) {
  static auto& apply_serial_hist = telemetry::GetHistogram("chain.commit_apply_serial_ns");
  static auto& apply_parallel_hist = telemetry::GetHistogram("chain.commit_apply_parallel_ns");
  static auto& batch_gauge = telemetry::GetGauge("chain.commit_batch_depth");
  commit_in_.fetch_add(1, std::memory_order_relaxed);
  ops::BlockRecord& record = item.record;
  record.commit_wait_ns = NsSince(item.handoff_ns);
  WallTimer busy;
  PEVM_TRACE_SPAN_ARG("chain.commit", "block", record.block_index);
  trie_->ApplyDiff(item.diff);
  record.root = trie_->Root();
  record.commit_apply_ns = busy.ElapsedNs();
  record.diff_entries = item.diff.size();
  apply_serial_hist.Observe(trie_->last_apply().serial_ns);
  apply_parallel_hist.Observe(trie_->last_apply().parallel_ns);
  roots_.push_back(record.root);
  if (snapshots_) {
    // Publish AFTER the root is final: acquirers see (block, root, versions)
    // only once the triple is complete. Single publisher by construction —
    // CommitOne runs only on the commit thread.
    snapshots_->Publish(record.block_index, record.root, item.diff);
    record.snapshots_retained = snapshots_->retained();
    record.snapshot_live_pins = snapshots_->live_pins();
  }
  open_batch_.push_back(std::move(item));
  batch_gauge.Set(static_cast<int64_t>(open_batch_.size()));
  size_t batch = options_.commit.batch_blocks > 0 ? options_.commit.batch_blocks : 1;
  if (open_batch_.size() >= batch) {
    FlushBatch();
  }
  commit_stats_.busy_ns += busy.ElapsedNs();
  ++commit_stats_.blocks;
  blocks_committed_.fetch_add(1, std::memory_order_relaxed);
  commit_out_.fetch_add(1, std::memory_order_relaxed);
}

void ChainRunner::FlushBatch() {
  if (open_batch_.empty()) {
    return;
  }
  const size_t count = open_batch_.size();
  if (node_store_ != nullptr) {
    const size_t first_local = roots_.size() - count;
    WallTimer persist;
    PEVM_TRACE_SPAN_ARG("chain.commit_batch", "blocks", count);
    // The manifest's root slots are 0-based: slot i holds the root after
    // chain block i + 1.
    NodeStoreCommitStats stats =
        trie_->CommitBatch(recovered_blocks_ + first_local,
                           std::span<const Hash256>(roots_.data() + first_local, count));
    // Seal costs are shared by the whole batch; attribute them to its last
    // block so the report's totals stay exact (a per-block split would be
    // arbitrary). Per-block latency is queue_to_durable_ns below.
    ops::BlockRecord& last = open_batch_.back().record;
    last.commit_persist_ns = persist.ElapsedNs();
    last.sync_ns = stats.sync_ns;
    last.nodes_written = stats.nodes_written;
    last.bytes_appended = stats.bytes_appended;
    last.fsyncs = stats.fsyncs;
  }
  ++commit_batches_;
  // Every member's latency runs from when it left the exec stage to this seal,
  // so early batch members accrue their real wait for the batch boundary.
  for (InFlight& item : open_batch_) {
    item.record.queue_to_durable_ns = NsSince(item.handoff_ns);
    item.record.commit_batch = commit_batches_;
    RecordBlock(item.record);
  }
  open_batch_.clear();
}

void ChainRunner::RecordBlock(const ops::BlockRecord& record) {
  static auto& exec_hist = telemetry::GetHistogram("chain.block.exec_busy_ns");
  static auto& apply_hist = telemetry::GetHistogram("chain.block.commit_apply_ns");
  static auto& persist_hist = telemetry::GetHistogram("chain.block.commit_persist_ns");
  static auto& q2d_hist = telemetry::GetHistogram("chain.block.queue_to_durable_ns");
  static auto& launched_hist = telemetry::GetHistogram("chain.block.spec_launched");
  static auto& repaired_hist = telemetry::GetHistogram("chain.block.spec_repaired");
  static auto& dropped_hist = telemetry::GetHistogram("chain.block.spec_dropped");
  exec_hist.Observe(record.exec_busy_ns);
  apply_hist.Observe(record.commit_apply_ns);
  q2d_hist.Observe(record.queue_to_durable_ns);
  if (record.commit_persist_ns > 0) {  // Once per seal, on the batch's last block.
    persist_hist.Observe(record.commit_persist_ns);
  }
  if (record.spec_launched + record.spec_held > 0) {  // The spec stage ran on it.
    launched_hist.Observe(record.spec_launched);
    repaired_hist.Observe(record.spec_repaired);
    dropped_hist.Observe(record.spec_dropped);
  }
  flight_.Record(record);
  blocks_.push_back(record);
}

void ChainRunner::JoinAll() {
  if (warm_thread_.joinable()) {
    warm_thread_.join();
  }
  if (spec_thread_.joinable()) {
    spec_thread_.join();
  }
  if (exec_thread_.joinable()) {
    exec_thread_.join();
  }
  if (commit_thread_.joinable()) {
    commit_thread_.join();
  }
  // Pipeline is quiescent: tell the watchdog to stand down rather than
  // diagnose the (intentional) absence of progress as a stall.
  pipeline_running_.store(false, std::memory_order_relaxed);
}

ChainReport ChainRunner::BuildReport(bool aborted) {
  ChainReport report;
  report.warm = warm_stats_;
  report.spec = spec_stats_;
  report.exec = exec_stats_;
  report.commit = commit_stats_;
  report.warm.max_queue_depth = input_->max_depth();
  if (spec_enabled_) {
    report.spec.max_queue_depth = ready_->max_depth();
    report.exec.max_queue_depth = specced_->max_depth();
  } else {
    report.exec.max_queue_depth = ready_->max_depth();
  }
  report.commit.max_queue_depth = diffs_->max_depth();
  report.blocks_submitted = blocks_submitted_.load();
  report.blocks_executed = exec_stats_.blocks;
  report.blocks_committed = roots_.size();
  report.blocks_resumed = recovered_blocks_;
  report.commit_batches = commit_batches_;
  report.aborted = aborted;
  report.kv_bytes_appended = genesis_seal_.bytes_appended;
  report.kv_fsyncs = genesis_seal_.fsyncs;
  report.kv_sync_ns = genesis_seal_.sync_ns;
  SpecStats& spec = report.speculation;
  for (const ops::BlockRecord& r : blocks_) {
    report.kv_bytes_appended += r.bytes_appended;
    report.kv_fsyncs += r.fsyncs;
    report.kv_sync_ns += r.sync_ns;
    spec.blocks_speculated += r.spec_launched + r.spec_held > 0 ? 1 : 0;
    spec.txs_launched += r.spec_launched;
    spec.txs_held += r.spec_held;
    spec.seeds_clean += r.spec_clean;
    spec.seeds_redo_repaired += r.spec_repaired;
    spec.seeds_dropped += r.spec_dropped;
    spec.stale_reads += r.spec_stale_reads;
    spec.boundary_validate_wall_ns += r.spec_validate_ns;
  }
  report.final_root = roots_.empty() ? seed_root_ : roots_.back();
  // The pipeline is joined: the per-block vectors move into the report
  // rather than being copied.
  report.blocks = std::move(blocks_);
  report.roots = std::move(roots_);
  report.block_reports = std::move(block_reports_);
  if (snapshots_) {
    report.query_snapshots = snapshots_->stats();
  }
  return report;
}

}  // namespace pevm
