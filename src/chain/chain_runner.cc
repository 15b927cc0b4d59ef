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
  genesis_durability_ = trie_->genesis_stats();
  if (options_.kv_backed_sim_store) {
    if (!kv_store_) {
      FatalChain("kv_backed_sim_store requires persist == kKv", options_.kv_dir);
    }
    options_.exec.storage.backing = kv_store_.get();
  }
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
    specced_ = std::make_unique<BoundedQueue<SpecItem>>(1);
  }
  input_ = std::make_unique<BoundedQueue<Block>>(options_.queue_depth);
  ready_ = std::make_unique<BoundedQueue<WarmedBlock>>(options_.queue_depth);
  diffs_ = std::make_unique<BoundedQueue<PendingCommit>>(options_.queue_depth);
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
  if (options_.overlap_commit) {
    commit_thread_ = std::thread(&ChainRunner::CommitLoop, this);
  }
  run_timer_ = WallTimer();  // Exclude trie seeding and thread spawn from wall_ns.
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

  // Active even with overlap_commit = false: CommitOne then runs inline on
  // the exec thread but still counts entry/exit, so an inline committer
  // wedged in a trie apply is diagnosed as "commit", not "exec".
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
  if (!input_->Push(std::move(block))) {
    return false;
  }
  blocks_submitted_.fetch_add(1);
  return true;
}

ChainReport ChainRunner::Finish() {
  if (finished_.load()) {
    return *report_;
  }
  input_->Close();
  JoinAll();
  report_ = BuildReport(/*aborted=*/false);
  finished_.store(true);
  return *report_;
}

ChainReport ChainRunner::Abort() {
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
  while (std::optional<Block> block = input_->Pop()) {
    warm_in_.fetch_add(1, std::memory_order_relaxed);
    WallTimer busy;
    PEVM_TRACE_COUNTER("chain.input_queue", input_->depth());
    {
      PEVM_TRACE_SPAN_ARG("chain.warm", "block", warm_stats_.blocks);
      if (store_ && options_.exec.prefetch_depth > 0 && !block->transactions.empty()) {
        // Whole-block warm-up: depth >= request count means the driver never
        // waits for NotifyStarted, so Drain (join-without-abort) is safe.
        std::vector<PrefetchRequest> requests = BuildPrefetchRequests(*block);
        PrefetchEngine engine(*store_, std::move(requests),
                              static_cast<int>(block->transactions.size()));
        engine.Drain();
      }
    }
    uint64_t busy_ns = busy.ElapsedNs();
    warm_stats_.busy_ns += busy_ns;
    ++warm_stats_.blocks;
    bool pushed = ready_->Push(WarmedBlock{std::move(*block), busy_ns, telemetry::NowNs()});
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
  static auto& launched_hist = telemetry::GetHistogram("chain.spec_launched_per_block");
  WallTimer stage;
  const bool with_log = executor_->seed_mode() == SpecMode::kWithLog;
  while (std::optional<WarmedBlock> warmed = ready_->Pop()) {
    spec_in_.fetch_add(1, std::memory_order_relaxed);
    WallTimer busy;
    PEVM_TRACE_COUNTER("chain.ready_queue", ready_->depth());
    SpecItem item{std::move(warmed->block), std::nullopt};
    item.warm_busy_ns = warmed->warm_busy_ns;
    item.warmed_ns = warmed->warmed_ns;
    const size_t n = item.block.transactions.size();
    if (n > 0) {
      PEVM_TRACE_SPAN_ARG("chain.spec_launch", "txs", n);
      SpeculativeBlock spec;
      spec.specs.resize(n);
      // Gate prepass (cheap, serial): hold back transactions predicted to
      // touch fallback-hot keys; their early record would only be dropped.
      std::vector<PrefetchRequest> requests = BuildPrefetchRequests(item.block);
      std::vector<char> launch(n, 0);
      for (size_t i = 0; i < n; ++i) {
        std::vector<StateKey> predicted =
            store_ ? store_->PredictSet(requests[i])
                   : std::vector<StateKey>{StateKey::Balance(requests[i].from),
                                           StateKey::Nonce(requests[i].from),
                                           StateKey::Balance(requests[i].to)};
        if (gate_.ShouldHold(predicted)) {
          ++spec.held;
        } else {
          launch[i] = 1;
          ++spec.launched;
        }
      }
      // Early read phase against overlay ∘ frozen base: overlay hits are the
      // in-flight block's uncommitted writes; base reads pay the simulated
      // storage latency and warm residency — work the in-block read phase
      // then skips. Values are predictions; the boundary validation on the
      // exec thread is what makes reusing them sound.
      SpecOverlayReader reader(overlay_, *spec_base_, store_);
      auto speculate_one = [&](size_t i) {
        if (!launch[i]) {
          return;
        }
        PEVM_TRACE_SPAN_ARG("chain.speculate", "tx", i);
        item.spec->specs[i] = SpeculateTransaction(reader, item.block.context,
                                                   item.block.transactions[i], with_log,
                                                   &SharedCodeCache());
      };
      item.spec = std::move(spec);
      spec_pool_->ParallelFor(n, speculate_one);
      launched_hist.Observe(item.spec->launched);
    }
    uint64_t busy_ns = busy.ElapsedNs();
    item.spec_busy_ns = busy_ns;
    spec_stats_.busy_ns += busy_ns;
    ++spec_stats_.blocks;
    bool pushed = specced_->Push(std::move(item));
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
  static auto& exec_hist = telemetry::GetHistogram("chain.exec_block_ns");
  static auto& repaired_hist = telemetry::GetHistogram("chain.boundary_redo_repaired");
  static auto& dropped_hist = telemetry::GetHistogram("chain.boundary_dropped");
  WallTimer stage;
  // With speculation the exec stage's input is the spec stage's output;
  // otherwise blocks come straight from the warm stage.
  auto next = [this]() -> std::optional<SpecItem> {
    if (spec_enabled_) {
      return specced_->Pop();
    }
    if (std::optional<WarmedBlock> warmed = ready_->Pop()) {
      SpecItem item{std::move(warmed->block), std::nullopt};
      item.warm_busy_ns = warmed->warm_busy_ns;
      item.warmed_ns = warmed->warmed_ns;
      return item;
    }
    return std::nullopt;
  };
  while (std::optional<SpecItem> item = next()) {
    exec_in_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t picked_ns = telemetry::NowNs();
    WallTimer busy;
    if (spec_enabled_) {
      PEVM_TRACE_COUNTER("chain.specced_queue", specced_->depth());
    } else {
      PEVM_TRACE_COUNTER("chain.ready_queue", ready_->depth());
    }
    Block& block = item->block;
    BlockReport report;
    // Flight-recorder anatomy: assembled here on the exec thread from values
    // the pipeline already computes; reading them into this plain struct is
    // the ops plane's only touch on the hot path.
    ops::BlockAnatomy anatomy;
    anatomy.transactions = block.transactions.size();
    anatomy.warm_busy_ns = item->warm_busy_ns;
    anatomy.spec_busy_ns = item->spec_busy_ns;
    // Hand-off wait: warm push instant to exec pop instant, minus the spec
    // stage's own busy time (which is work, not waiting).
    uint64_t since_warm = picked_ns > item->warmed_ns ? picked_ns - item->warmed_ns : 0;
    anatomy.ready_wait_ns =
        since_warm > item->spec_busy_ns ? since_warm - item->spec_busy_ns : 0;
    // Boundary validation: the previous block's Execute has returned and this
    // thread is the only state_ writer, so state_ is quiescent — exactly the
    // committed post-predecessor state the seeds must be validated against.
    BoundarySeeds seeds;
    bool have_seeds = false;
    std::vector<StateKey> boundary_dropped;
    if (item->spec) {
      WallTimer validate;
      PEVM_TRACE_SPAN_ARG("chain.boundary_validate", "block", exec_stats_.blocks);
      BoundaryOutcome outcome = ValidateBoundary(std::move(item->spec->specs), state_);
      ++spec_totals_.blocks_speculated;
      spec_totals_.txs_launched += item->spec->launched;
      spec_totals_.txs_held += item->spec->held;
      spec_totals_.seeds_clean += outcome.clean;
      spec_totals_.seeds_redo_repaired += outcome.redo_repaired;
      spec_totals_.seeds_dropped += outcome.dropped;
      spec_totals_.stale_reads += outcome.stale_keys;
      spec_totals_.boundary_validate_wall_ns += validate.ElapsedNs();
      repaired_hist.Observe(outcome.redo_repaired);
      dropped_hist.Observe(outcome.dropped);
      anatomy.spec_launched = item->spec->launched;
      anatomy.spec_held = item->spec->held;
      anatomy.spec_clean = outcome.clean;
      anatomy.spec_repaired = outcome.redo_repaired;
      anatomy.spec_dropped = outcome.dropped;
      seeds = std::move(outcome.seeds);
      boundary_dropped = std::move(outcome.dropped_keys);
      have_seeds = true;
    }
    {
      PEVM_TRACE_SPAN_ARG("chain.exec", "block", exec_stats_.blocks);
      state_.BeginDiff();
      report = executor_->Execute(block, state_, have_seeds ? &seeds : nullptr);
    }
    if (spec_enabled_) {
      gate_.Update(report.conflict_keys, boundary_dropped);
    }
    StateDiff diff = state_.TakeDiff();
    uint64_t busy_ns = busy.ElapsedNs();
    exec_stats_.busy_ns += busy_ns;
    exec_hist.Observe(busy_ns);
    ++exec_stats_.blocks;
    anatomy.exec_busy_ns = busy_ns;
    anatomy.conflicts = report.conflicts;
    anatomy.redo_success = report.redo_success;
    anatomy.redo_fail = report.redo_fail;
    anatomy.full_reexecutions = report.full_reexecutions;
    anatomy.oplog_entries = report.oplog_entries;
    anatomy.instructions = report.instructions;
    anatomy.prefetch_hits = report.prefetch_hits;
    anatomy.prefetch_misses = report.prefetch_misses;
    block_reports_.push_back(std::move(report));
    PendingCommit pending{std::move(diff), telemetry::NowNs(), std::move(anatomy)};
    exec_out_.fetch_add(1, std::memory_order_relaxed);
    if (options_.overlap_commit) {
      if (!diffs_->Push(std::move(pending))) {
        break;  // Aborted downstream.
      }
    } else {
      CommitOne(std::move(pending));
    }
  }
  if (!options_.overlap_commit) {
    // Inline committer: seal the open batch before the stream closes.
    WallTimer tail;
    FlushBatch();
    commit_stats_.busy_ns += tail.ElapsedNs();
  }
  diffs_->Close();
  exec_stats_.wall_ns = stage.ElapsedNs();
  if (!options_.overlap_commit) {
    commit_stats_.wall_ns = exec_stats_.wall_ns;
  }
}

void ChainRunner::CommitLoop() {
  PEVM_TRACE_THREAD_NAME("chain-commit");
  WallTimer stage;
  while (std::optional<PendingCommit> pending = diffs_->Pop()) {
    PEVM_TRACE_COUNTER("chain.diff_queue", diffs_->depth());
    CommitOne(std::move(*pending));
  }
  // Seal the open batch on drain — Finish AND Abort — so the durable
  // manifest covers exactly the applied prefix roots_ reports.
  WallTimer tail;
  FlushBatch();
  commit_stats_.busy_ns += tail.ElapsedNs();
  commit_stats_.wall_ns = stage.ElapsedNs();
}

void ChainRunner::CommitOne(PendingCommit pending) {
  static auto& commit_hist = telemetry::GetHistogram("chain.commit_block_ns");
  static auto& apply_serial_hist = telemetry::GetHistogram("chain.commit_apply_serial_ns");
  static auto& apply_parallel_hist = telemetry::GetHistogram("chain.commit_apply_parallel_ns");
  static auto& batch_gauge = telemetry::GetGauge("chain.commit_batch_depth");
  commit_in_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t commit_start_ns = telemetry::NowNs();
  WallTimer busy;
  PEVM_TRACE_SPAN_ARG("chain.commit", "block", commit_stats_.blocks);
  trie_->ApplyDiff(pending.diff);
  Hash256 root = trie_->Root();
  BlockDurability durability;
  durability.apply_ns = busy.ElapsedNs();
  apply_serial_hist.Observe(trie_->last_apply().serial_ns);
  apply_parallel_hist.Observe(trie_->last_apply().parallel_ns);
  roots_.push_back(root);
  if (snapshots_) {
    // Publish AFTER the root is final: acquirers see (block, root, versions)
    // only once the triple is complete. Single publisher by construction —
    // CommitOne runs on exactly one thread (commit or, inline, exec).
    snapshots_->Publish(recovered_blocks_ + roots_.size(), root, pending.diff);
  }
  durability_.push_back(durability);
  batch_enqueue_ns_.push_back(pending.enqueue_ns);
  batch_gauge.Set(static_cast<int64_t>(batch_enqueue_ns_.size()));
  // Finalize and record the anatomy BEFORE a possible FlushBatch: the durable
  // fields are back-stamped there by block index, so the record must already
  // be in the ring. queue_to_durable stays 0 until the batch seals.
  pending.anatomy.block_index = recovered_blocks_ + roots_.size();
  pending.anatomy.root = root;
  pending.anatomy.commit_wait_ns =
      commit_start_ns > pending.enqueue_ns ? commit_start_ns - pending.enqueue_ns : 0;
  pending.anatomy.commit_apply_ns = durability.apply_ns;
  pending.anatomy.diff_entries = pending.diff.size();
  if (snapshots_) {
    pending.anatomy.snapshots_retained = snapshots_->retained();
    pending.anatomy.snapshot_live_pins = snapshots_->live_pins();
  }
  flight_.Record(pending.anatomy);
  size_t batch = options_.commit.batch_blocks > 0 ? options_.commit.batch_blocks : 1;
  if (batch_enqueue_ns_.size() >= batch) {
    FlushBatch();
  }
  uint64_t busy_ns = busy.ElapsedNs();
  commit_stats_.busy_ns += busy_ns;
  commit_hist.Observe(busy_ns);
  ++commit_stats_.blocks;
  blocks_committed_.fetch_add(1, std::memory_order_relaxed);
  commit_out_.fetch_add(1, std::memory_order_relaxed);
}

void ChainRunner::FlushBatch() {
  static auto& q2d_hist = telemetry::GetHistogram("chain.block_queue_to_durable_ns");
  const size_t count = batch_enqueue_ns_.size();
  if (count == 0) {
    return;
  }
  const size_t first_local = roots_.size() - count;
  uint64_t batch_persist_ns = 0;
  if (node_store_ != nullptr) {
    static auto& persist_hist = telemetry::GetHistogram("chain.commit_persist_ns");
    // Chain-lifetime block index: a resumed runner keeps counting where the
    // recovered manifest left off.
    WallTimer persist;
    PEVM_TRACE_SPAN_ARG("chain.commit_batch", "blocks", count);
    NodeStoreCommitStats stats =
        trie_->CommitBatch(recovered_blocks_ + first_local,
                           std::span<const Hash256>(roots_.data() + first_local, count));
    uint64_t persist_ns = persist.ElapsedNs();
    batch_persist_ns = persist_ns;
    persist_hist.Observe(persist_ns);
    // Seal costs are shared by the whole batch; attribute them to its last
    // block so the report's totals stay exact (a per-block split would be
    // arbitrary). Per-block latency lives in queue_to_durable_ns below.
    BlockDurability& last = durability_.back();
    last.persist_ns += persist_ns;
    last.sync_ns += stats.sync_ns;
    last.nodes_written += stats.nodes_written;
    last.bytes_appended += stats.bytes_appended;
    last.fsyncs += stats.fsyncs;
  }
  const uint64_t now = telemetry::NowNs();
  for (size_t i = 0; i < count; ++i) {
    uint64_t enqueue_ns = batch_enqueue_ns_[i];
    uint64_t latency = now > enqueue_ns ? now - enqueue_ns : 0;
    durability_[first_local + i].queue_to_durable_ns = latency;
    q2d_hist.Observe(latency);
    // Back-stamp the flight record now that the block is durable. Seal costs
    // attribute to the batch's last block, mirroring durability_ above.
    flight_.StampDurability(recovered_blocks_ + first_local + i + 1, latency,
                            i + 1 == count ? batch_persist_ns : 0, commit_batches_ + 1);
  }
  batch_enqueue_ns_.clear();
  ++commit_batches_;
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
  run_wall_ns_ = run_timer_.ElapsedNs();
}

ChainReport ChainRunner::BuildReport(bool aborted) {
  ChainReport report;
  report.warm = warm_stats_;
  report.spec = spec_stats_;
  report.exec = exec_stats_;
  report.commit = commit_stats_;
  report.speculation = spec_totals_;
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
  report.wall_ns = run_wall_ns_;
  report.aborted = aborted;
  report.durability = durability_;
  report.kv_bytes_appended = genesis_durability_.bytes_appended;
  report.kv_fsyncs = genesis_durability_.fsyncs;
  report.kv_sync_ns = genesis_durability_.sync_ns;
  for (const BlockDurability& d : durability_) {
    report.kv_bytes_appended += d.bytes_appended;
    report.kv_fsyncs += d.fsyncs;
    report.kv_sync_ns += d.sync_ns;
  }
  report.roots = roots_;
  report.final_root = roots_.empty() ? seed_root_ : roots_.back();
  report.block_reports = block_reports_;
  if (snapshots_) {
    report.query_snapshots = snapshots_->stats();
  }
  return report;
}

}  // namespace pevm
