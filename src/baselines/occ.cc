#include "src/baselines/occ.h"

#include <algorithm>

#include "src/codecache/code_cache.h"
#include "src/exec/pipeline.h"
#include "src/telemetry/trace.h"

namespace pevm {

BlockReport OccExecutor::Execute(const Block& block, WorldState& state, BoundarySeeds* seeds) {
  WallTimer block_timer;
  CostModel cost(options_.cost);
  StateCache cache(options_.prefetch);
  SimStore* store = EnsureSimStore(options_, sim_store_);
  BlockReport report;
  size_t n = block.transactions.size();

  // Read phase (no operation logs: OCC cannot repair, only restart). Seeds
  // that survived boundary validation clean are adopted verbatim.
  ReadPhase read = RunReadPhase(block, state, SpecMode::kPlain, cache, cost, options_, store,
                                report, seeds);
  ScheduleResult schedule =
      ListSchedule(read.durations, options_.threads, options_.cost.dispatch_ns);

  // Validate-and-commit loop.
  WallTimer commit_timer;
  PEVM_TRACE_SPAN_ARG("exec.commit_loop", "txs", n);
  uint64_t t = 0;
  U256 fees;
  ConflictAttribution attribution;
  for (size_t i = 0; i < n; ++i) {
    Speculation& spec = read.specs[i];
    t = std::max(t, schedule.finish[i]);
    t += cost.ValidationCost(spec.reads.size());

    ConflictMap conflicts = FindConflicts(spec.reads, state);
    if (conflicts.empty()) {
      t += CommitSpeculation(spec, state, cost, fees, report);
      continue;
    }

    // Abort-and-restart: the entire transaction re-executes on the commit
    // path (transaction-level conflict resolution).
    ++report.conflicts;
    PEVM_TRACE_INSTANT_ARG("exec.conflict", "tx", i);
    RecordConflicts(conflicts, ConflictOutcome::kFallback, attribution);
    ++report.full_reexecutions;
    t += FullReexecute(block, i, state, cache, cost, store, fees, report, &SharedCodeCache());
  }
  report.conflict_keys = attribution.Sorted();

  CreditCoinbase(state, block.context.coinbase, fees);
  report.makespan_ns = t + options_.cost.per_block_ns;
  report.commit_wall_ns = commit_timer.ElapsedNs();
  report.wall_ns = block_timer.ElapsedNs();
  return report;
}

}  // namespace pevm
