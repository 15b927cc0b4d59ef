#include "src/baselines/serial.h"

#include <optional>
#include <vector>

#include "src/exec/apply.h"
#include "src/codecache/code_cache.h"
#include "src/exec/pipeline.h"
#include "src/state/state_view.h"

namespace pevm {

BlockReport SerialExecutor::Execute(const Block& block, WorldState& state) {
  WallTimer block_timer;
  CostModel cost(options_.cost);
  StateCache cache(options_.prefetch);
  SimStore* store = EnsureSimStore(options_, sim_store_);
  BlockReport report;
  size_t n = block.transactions.size();
  report.receipts.reserve(n);

  // Serial execution still benefits from the async pipeline: the engine
  // warms transaction i + depth's predicted keys while transaction i
  // executes (this is the paper's Table-2 "Prefetch" row, made wall-clock).
  // In chain mode (external_warmup) the runner's stage 1 already warmed the
  // block, so only the deterministic accounting remains.
  if (store && !options_.external_warmup) {
    store->BeginBlock();
  }
  const bool account_prefetch = store && options_.prefetch_depth > 0 && n > 0;
  std::vector<PrefetchRequest> requests;
  std::optional<PrefetchEngine> engine;
  if (account_prefetch) {
    requests = BuildPrefetchRequests(block);
    if (!options_.external_warmup) {
      engine.emplace(*store, requests, options_.prefetch_depth);
    }
  }
  std::vector<ReadSet> observed;  // Per-tx read sets for prefetch accounting.
  if (account_prefetch) {
    observed.reserve(n);
  }

  uint64_t t = 0;
  U256 fees;
  for (size_t i = 0; i < n; ++i) {
    const Transaction& tx = block.transactions[i];
    if (engine) {
      engine->NotifyStarted(i);
    }
    std::optional<SimStoreReader> reader;
    std::optional<StateView> view;  // In-place: StateView is self-referential.
    if (store) {
      reader.emplace(*store, state);
      view.emplace(*reader);
    } else {
      view.emplace(state);
    }
    Receipt receipt = ApplyTransaction(*view, block.context, tx, nullptr, &SharedCodeCache());
    uint64_t cold = cache.Touch(view->read_set());
    uint64_t warm = TotalReadOps(receipt.stats) - std::min(TotalReadOps(receipt.stats), cold);
    t += cost.ExecutionCost(receipt.stats, cold, warm, /*with_ssa=*/false);
    report.instructions += receipt.stats.instructions;
    if (account_prefetch) {
      observed.push_back(view->read_set());
    }
    if (receipt.valid) {
      t += cost.CommitCost(view->write_set().size());
      state.Apply(view->write_set());
      fees = fees + receipt.fee;
    }
    report.receipts.push_back(std::move(receipt));
  }
  if (engine) {
    engine->Finish();
    report.prefetch_wall_ns += engine->warm_wall_ns();
  }
  if (account_prefetch) {
    std::vector<const ReadSet*> reads(n, nullptr);
    for (size_t i = 0; i < n; ++i) {
      reads[i] = &observed[i];
    }
    AccountPrefetch(*store, requests, reads, report);
  }
  CreditCoinbase(state, block.context.coinbase, fees);
  report.makespan_ns = t;
  report.wall_ns = block_timer.ElapsedNs();
  return report;
}

}  // namespace pevm
