#include "src/exec/pipeline.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "src/codecache/code_cache.h"
#include "src/core/ssa_builder.h"
#include "src/exec/apply.h"
#include "src/exec/thread_pool.h"
#include "src/state/state_view.h"
#include "src/telemetry/trace.h"

namespace pevm {
namespace {

// Deterministic key order for attribution tie-breaking: address bytes, then
// kind, then slot.
bool StateKeyLess(const StateKey& a, const StateKey& b) {
  if (auto cmp = a.address <=> b.address; cmp != 0) {
    return cmp < 0;
  }
  if (a.kind != b.kind) {
    return a.kind < b.kind;
  }
  return a.slot < b.slot;
}

// Worker pools are expensive to spawn, so one pool per requested width is
// kept for the process lifetime. Pools are stateless between jobs, so reuse
// across blocks and executors is safe; read phases that run at once on
// different threads queue on the pool's job mutex.
ThreadPool& PoolFor(int width) {
  static std::mutex mu;
  static std::unordered_map<int, std::unique_ptr<ThreadPool>> pools;
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<ThreadPool>& slot = pools[width];
  if (!slot) {
    slot = std::make_unique<ThreadPool>(width);
  }
  return *slot;
}

// The one speculation body behind both SpeculateTransaction overloads.
Speculation SpeculateIntoView(StateView& view, const BlockContext& context,
                              const Transaction& tx, bool with_log, CodeProvider* provider) {
  Speculation spec;
  if (with_log) {
    SsaBuilder builder;
    spec.receipt = ApplyTransaction(view, context, tx, &builder, provider);
    if (!spec.receipt.valid) {
      builder.MarkNotRedoable();
    }
    spec.log = builder.TakeLog();
  } else {
    spec.receipt = ApplyTransaction(view, context, tx, nullptr, provider);
  }
  spec.reads = view.take_read_set();
  spec.writes = view.take_write_set();
  return spec;
}

}  // namespace

std::vector<ConflictKeyStats> ConflictAttribution::Sorted() const {
  std::vector<ConflictKeyStats> out;
  out.reserve(stats_.size());
  for (const auto& [key, counts] : stats_) {
    out.push_back({key, counts.conflicts, counts.redo_resolved, counts.fallback});
  }
  std::sort(out.begin(), out.end(), [](const ConflictKeyStats& a, const ConflictKeyStats& b) {
    if (a.conflicts != b.conflicts) {
      return a.conflicts > b.conflicts;
    }
    return StateKeyLess(a.key, b.key);
  });
  return out;
}

BlockReport AggregateBlockReports(const std::vector<BlockReport>& reports) {
  BlockReport total;
  std::unordered_map<StateKey, ConflictKeyStats, StateKeyHash> keys;
  for (const BlockReport& r : reports) {
    total.makespan_ns += r.makespan_ns;
    total.read_wall_ns += r.read_wall_ns;
    total.commit_wall_ns += r.commit_wall_ns;
    total.conflicts += r.conflicts;
    total.redo_success += r.redo_success;
    total.redo_fail += r.redo_fail;
    total.full_reexecutions += r.full_reexecutions;
    total.lock_aborts += r.lock_aborts;
    total.redo_entries_reexecuted += r.redo_entries_reexecuted;
    total.redo_ns += r.redo_ns;
    total.oplog_entries += r.oplog_entries;
    total.instructions += r.instructions;
    total.prefetch_hits += r.prefetch_hits;
    total.prefetch_misses += r.prefetch_misses;
    total.prefetch_wasted += r.prefetch_wasted;
    for (const ConflictKeyStats& stats : r.conflict_keys) {
      ConflictKeyStats& merged = keys.try_emplace(stats.key, ConflictKeyStats{stats.key}).first->second;
      merged.conflicts += stats.conflicts;
      merged.redo_resolved += stats.redo_resolved;
      merged.fallback += stats.fallback;
    }
  }
  total.conflict_keys.reserve(keys.size());
  for (const auto& [key, stats] : keys) {
    total.conflict_keys.push_back(stats);
  }
  std::sort(total.conflict_keys.begin(), total.conflict_keys.end(),
            [](const ConflictKeyStats& a, const ConflictKeyStats& b) {
              if (a.conflicts != b.conflicts) {
                return a.conflicts > b.conflicts;
              }
              return StateKeyLess(a.key, b.key);
            });
  return total;
}

Speculation SpeculateTransaction(const BaseReader& reader, const BlockContext& context,
                                 const Transaction& tx, bool with_log, CodeProvider* provider) {
  StateView view(reader);
  return SpeculateIntoView(view, context, tx, with_log, provider);
}

Speculation SpeculateTransaction(const WorldState& state, const BlockContext& context,
                                 const Transaction& tx, bool with_log, SimStore* store,
                                 CodeProvider* provider) {
  // StateView is self-referential when it owns its reader, so both variants
  // are constructed in place.
  std::optional<SimStoreReader> reader;
  std::optional<StateView> view;
  if (store) {
    reader.emplace(*store, state);
    view.emplace(*reader);
  } else {
    view.emplace(state);
  }
  return SpeculateIntoView(*view, context, tx, with_log, provider);
}

ReadPhase RunReadPhase(const Block& block, const WorldState& state,
                       std::span<const SpecMode> modes, StateCache& cache,
                       const CostModel& cost, const ExecOptions& options, SimStore* store,
                       BlockReport& report, BoundarySeeds* seeds) {
  WallTimer timer;
  size_t n = block.transactions.size();
  PEVM_TRACE_SPAN_ARG("exec.read_phase", "txs", n);
  ReadPhase phase;
  phase.specs.resize(n);
  phase.durations.assign(n, 0);

  BlockPrefetch prefetch(block, options, store);

  // Parallel section: each index touches only the read-only committed state
  // and its own Speculation slot.
  auto speculate_one = [&](size_t i) {
    if (modes[i] == SpecMode::kSkip) {
      return;
    }
    // Boundary-validated cross-block seed: adopt the record instead of
    // re-speculating. Validation already proved it bit-identical to what the
    // speculation below would produce, so the deterministic block-order pass
    // (and everything downstream) cannot tell the difference.
    if (seeds && i < seeds->specs.size() && seeds->specs[i]) {
      PEVM_TRACE_SPAN_ARG("exec.adopt_seed", "tx", i);
      phase.specs[i] = *std::move(seeds->specs[i]);
      seeds->specs[i].reset();
      return;
    }
    PEVM_TRACE_SPAN_ARG("exec.speculate", "tx", i);
    phase.specs[i] = SpeculateTransaction(state, block.context, block.transactions[i],
                                          modes[i] == SpecMode::kWithLog, store,
                                          &SharedCodeCache());
  };
  int width = ThreadPool::ResolveWidth(options.os_threads);
  if (width <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      speculate_one(i);
    }
  } else {
    PoolFor(width).ParallelFor(n, speculate_one);
  }

  // Order-dependent accounting runs strictly in block order on this thread,
  // so cold/warm classification and report counters are identical for every
  // pool width (including width 1).
  for (size_t i = 0; i < n; ++i) {
    if (modes[i] == SpecMode::kSkip) {
      continue;
    }
    Speculation& spec = phase.specs[i];
    uint64_t total_reads = TotalReadOps(spec.receipt.stats);
    uint64_t cold = std::min(cache.Touch(spec.reads), total_reads);
    phase.durations[i] = cost.ExecutionCost(spec.receipt.stats, cold, total_reads - cold,
                                            /*with_ssa=*/modes[i] == SpecMode::kWithLog);
    report.oplog_entries += spec.log.size();
    report.instructions += spec.receipt.stats.instructions;
  }
  if (prefetch.accounting()) {
    std::vector<const ReadSet*> reads(n, nullptr);
    for (size_t i = 0; i < n; ++i) {
      if (modes[i] != SpecMode::kSkip) {
        reads[i] = &phase.specs[i].reads;
      }
    }
    prefetch.Account(reads, report);
  }
  report.read_wall_ns += timer.ElapsedNs();
  return phase;
}

ReadPhase RunReadPhase(const Block& block, const WorldState& state, SpecMode mode,
                       StateCache& cache, const CostModel& cost, const ExecOptions& options,
                       SimStore* store, BlockReport& report, BoundarySeeds* seeds) {
  std::vector<SpecMode> modes(block.transactions.size(), mode);
  return RunReadPhase(block, state, modes, cache, cost, options, store, report, seeds);
}

std::vector<PrefetchRequest> BuildPrefetchRequests(const Block& block) {
  std::vector<PrefetchRequest> requests;
  requests.reserve(block.transactions.size());
  for (const Transaction& tx : block.transactions) {
    PrefetchRequest request;
    request.from = tx.from;
    request.to = tx.to;
    if (tx.data.size() >= 4) {
      request.selector = (static_cast<uint32_t>(tx.data[0]) << 24) |
                         (static_cast<uint32_t>(tx.data[1]) << 16) |
                         (static_cast<uint32_t>(tx.data[2]) << 8) |
                         static_cast<uint32_t>(tx.data[3]);
      request.has_selector = true;
    }
    requests.push_back(request);
  }
  return requests;
}

namespace {

// The deterministic prefetch accounting behind BlockPrefetch::Account.
void AccountPrefetch(SimStore& store, const std::vector<PrefetchRequest>& requests,
                     const std::vector<const ReadSet*>& reads_per_tx, BlockReport& report) {
  size_t n = requests.size();
  // Predictions are computed for every transaction *before* any hint update,
  // matching what WarmBlock (which ran against the block-start hint table)
  // actually issued.
  std::vector<std::vector<StateKey>> predicted(n);
  for (size_t i = 0; i < n; ++i) {
    predicted[i] = store.PredictSet(requests[i]);
  }
  std::unordered_set<StateKey, StateKeyHash> predicted_union;
  std::unordered_set<StateKey, StateKeyHash> read_union;
  for (size_t i = 0; i < n; ++i) {
    predicted_union.insert(predicted[i].begin(), predicted[i].end());
    if (!reads_per_tx[i]) {
      continue;
    }
    std::unordered_set<StateKey, StateKeyHash> tx_predicted(predicted[i].begin(),
                                                            predicted[i].end());
    for (const auto& [key, value] : *reads_per_tx[i]) {
      read_union.insert(key);
      if (tx_predicted.contains(key)) {
        ++report.prefetch_hits;
      } else {
        ++report.prefetch_misses;
      }
    }
  }
  for (const StateKey& key : predicted_union) {
    if (!read_union.contains(key)) {
      ++report.prefetch_wasted;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (reads_per_tx[i]) {
      store.RecordObserved(requests[i], *reads_per_tx[i]);
    }
  }
}

}  // namespace

BlockPrefetch::BlockPrefetch(const Block& block, const ExecOptions& options, SimStore* store) {
  if (!store) {
    return;
  }
  if (options.prefetch_depth > 0 && !block.transactions.empty()) {
    store_ = store;
    requests_ = BuildPrefetchRequests(block);
  }
  if (!options.external_warmup) {
    store->BeginBlock();
    store->WarmBlock(requests_);
  }
}

void BlockPrefetch::Account(const std::vector<const ReadSet*>& reads_per_tx,
                            BlockReport& report) {
  if (store_) {
    AccountPrefetch(*store_, requests_, reads_per_tx, report);
  }
}

ConflictMap FindConflicts(const ReadSet& reads, const WorldState& state) {
  ConflictMap conflicts;
  for (const auto& [key, observed] : reads) {
    U256 current = state.Get(key);
    if (current != observed) {
      conflicts.emplace(key, current);
    }
  }
  return conflicts;
}

uint64_t CommitResult(Receipt&& receipt, WriteSet&& writes, WorldState& state,
                      const CostModel& cost, U256& fees, BlockReport& report) {
  uint64_t t = 0;
  if (receipt.valid) {
    t += cost.CommitCost(writes.size());
    state.Apply(writes);
    fees = fees + receipt.fee;
  }
  report.receipts.push_back(std::move(receipt));
  return t;
}

uint64_t CommitSpeculation(Speculation& spec, WorldState& state, const CostModel& cost,
                           U256& fees, BlockReport& report) {
  return CommitResult(std::move(spec.receipt), std::move(spec.writes), state, cost, fees,
                      report);
}

uint64_t CommitRedo(Speculation& spec, RedoResult&& redo, size_t conflict_count,
                    WorldState& state, const CostModel& cost, U256& fees, BlockReport& report) {
  ++report.redo_success;
  report.redo_entries_reexecuted += redo.reexecuted;
  uint64_t redo_ns = cost.RedoCost(redo.dfs_visited, redo.reexecuted, conflict_count);
  report.redo_ns += redo_ns;
  uint64_t t = redo_ns + cost.CommitCost(redo.write_set.size());
  state.Apply(redo.write_set);
  fees = fees + spec.receipt.fee;
  if (spec.log.has_return) {
    // The redo left the defining entries' results patched in place; rebuild a
    // storage-dependent output (balanceOf, AMM amount_out) to match what a
    // fresh execution against the repaired reads would have returned.
    spec.receipt.output = PatchedReturnOutput(spec.log);
  }
  report.receipts.push_back(std::move(spec.receipt));
  return t;
}

uint64_t ChargeFailedRedo(const RedoResult& redo, size_t conflict_count, const CostModel& cost,
                          BlockReport& report) {
  uint64_t wasted = cost.RedoCost(redo.dfs_visited, redo.reexecuted, conflict_count);
  report.redo_ns += wasted;
  return wasted;
}

uint64_t FullReexecute(const Block& block, size_t i, WorldState& state, StateCache& cache,
                       const CostModel& cost, SimStore* store, U256& fees, BlockReport& report,
                       CodeProvider* provider) {
  PEVM_TRACE_SPAN_ARG("exec.fallback", "tx", i);
  std::optional<SimStoreReader> reader;
  std::optional<StateView> view;
  if (store) {
    reader.emplace(*store, state);
    view.emplace(*reader);
  } else {
    view.emplace(state);
  }
  Receipt receipt = ApplyTransaction(*view, block.context, block.transactions[i], nullptr,
                                     provider);
  uint64_t total_reads = TotalReadOps(receipt.stats);
  uint64_t cold = std::min(cache.Touch(view->read_set()), total_reads);
  uint64_t t = cost.ExecutionCost(receipt.stats, cold, total_reads - cold, /*with_ssa=*/false);
  report.instructions += receipt.stats.instructions;
  return t +
         CommitResult(std::move(receipt), view->take_write_set(), state, cost, fees, report);
}

}  // namespace pevm
