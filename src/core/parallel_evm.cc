#include "src/core/parallel_evm.h"

#include <algorithm>
#include <vector>

#include "src/core/redo.h"
#include "src/codecache/code_cache.h"
#include "src/exec/pipeline.h"
#include "src/telemetry/trace.h"

namespace pevm {

BlockReport ParallelEvmExecutor::Execute(const Block& block, WorldState& state,
                                         BoundarySeeds* seeds) {
  CostModel cost(options_.cost);
  StateCache cache(options_.prefetch);
  SimStore* store = EnsureSimStore(options_, sim_store_);
  BlockReport report;
  size_t n = block.transactions.size();

  // --- Read phase: speculative execution against the block-start state on
  // real OS threads, recording read/write sets and SSA operation logs.
  // Boundary-validated cross-block seeds (if any) are adopted in place of
  // fresh speculation — bit-identical records, minus the latency. ---
  ReadPhase read = RunReadPhase(block, state, SpecMode::kWithLog, cache, cost, options_, store,
                                report, seeds);
  ScheduleResult schedule = pre_execution_
                                ? ScheduleResult{std::vector<uint64_t>(n, 0), 0}
                                : ListSchedule(read.durations, options_.threads,
                                               options_.cost.dispatch_ns);

  // --- Commit loop: validate -> redo -> write, in block order. ---
  WallTimer commit_timer;
  PEVM_TRACE_SPAN_ARG("exec.commit_loop", "txs", n);
  uint64_t t = 0;
  U256 fees;
  ConflictAttribution attribution;
  auto committed = [&state](const StateKey& key) { return state.Get(key); };
  for (size_t i = 0; i < n; ++i) {
    Speculation& spec = read.specs[i];
    t = std::max(t, schedule.finish[i]);
    t += cost.ValidationCost(spec.reads.size());

    ConflictMap conflicts = FindConflicts(spec.reads, state);
    if (conflicts.empty()) {
      t += CommitSpeculation(spec, state, cost, fees, report);
      continue;
    }

    ++report.conflicts;
    PEVM_TRACE_INSTANT_ARG("exec.conflict", "tx", i);
    RedoResult redo = RunRedo(spec.log, conflicts, committed);
    if (redo.success) {
      RecordConflicts(conflicts, ConflictOutcome::kRedoResolved, attribution);
      PEVM_TRACE_SPAN_ARG("exec.redo_commit", "tx", i);
      t += CommitRedo(spec, std::move(redo), conflicts.size(), state, cost, fees, report);
      continue;
    }

    // Write-phase fallback: abort and re-execute serially against the
    // committed state (cannot conflict again). The failed redo attempt's
    // DFS and partial re-execution still cost time on the commit path.
    RecordConflicts(conflicts, ConflictOutcome::kFallback, attribution);
    if (spec.log.redoable) {
      ++report.redo_fail;
      t += ChargeFailedRedo(redo, conflicts.size(), cost, report);
    }
    ++report.full_reexecutions;
    t += FullReexecute(block, i, state, cache, cost, store, fees, report, &SharedCodeCache());
  }
  report.conflict_keys = attribution.Sorted();

  CreditCoinbase(state, block.context.coinbase, fees);
  report.makespan_ns = t + options_.cost.per_block_ns;
  report.commit_wall_ns = commit_timer.ElapsedNs();
  return report;
}

}  // namespace pevm
