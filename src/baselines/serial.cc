#include "src/baselines/serial.h"

#include <optional>
#include <vector>

#include "src/exec/apply.h"
#include "src/codecache/code_cache.h"
#include "src/exec/pipeline.h"
#include "src/state/state_view.h"

namespace pevm {

BlockReport SerialExecutor::Execute(const Block& block, WorldState& state) {
  CostModel cost(options_.cost);
  StateCache cache(options_.prefetch);
  SimStore* store = EnsureSimStore(options_, sim_store_);
  BlockReport report;
  size_t n = block.transactions.size();
  report.receipts.reserve(n);

  // Serial execution benefits from the warm-up too: this is the paper's
  // Table-2 "Prefetch" row, made wall-clock.
  BlockPrefetch prefetch(block, options_, store);
  std::vector<ReadSet> observed;  // Per-tx read sets for prefetch accounting.
  if (prefetch.accounting()) {
    observed.reserve(n);
  }

  uint64_t t = 0;
  U256 fees;
  for (size_t i = 0; i < n; ++i) {
    const Transaction& tx = block.transactions[i];
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
    if (prefetch.accounting()) {
      observed.push_back(view->read_set());
    }
    if (receipt.valid) {
      t += cost.CommitCost(view->write_set().size());
      state.Apply(view->write_set());
      fees = fees + receipt.fee;
    }
    report.receipts.push_back(std::move(receipt));
  }
  if (prefetch.accounting()) {
    std::vector<const ReadSet*> reads(n, nullptr);
    for (size_t i = 0; i < n; ++i) {
      reads[i] = &observed[i];
    }
    prefetch.Account(reads, report);
  }
  CreditCoinbase(state, block.context.coinbase, fees);
  report.makespan_ns = t;
  return report;
}

}  // namespace pevm
