#include "src/core/scheduled.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/redo.h"
#include "src/codecache/code_cache.h"
#include "src/exec/pipeline.h"

namespace pevm {
namespace {

TxSchedule::Plan PlanFor(const BlockSchedule& schedule, size_t i) {
  // A missing/short schedule degrades to serial re-execution.
  return i < schedule.transactions.size() ? schedule.transactions[i].plan
                                          : TxSchedule::Plan::kFallback;
}

}  // namespace

ProposalResult ProposeBlock(const Block& block, WorldState& state, const ExecOptions& options) {
  WallTimer block_timer;
  CostModel cost(options.cost);
  StateCache cache(options.prefetch);
  // Free functions have no instance to persist hints on; the store (and its
  // hint table) is per call, which still exercises the full prefetch
  // machinery within the block.
  std::unique_ptr<SimStore> local_store;
  SimStore* store = EnsureSimStore(options, local_store);
  ProposalResult result;
  BlockReport& report = result.report;
  size_t n = block.transactions.size();
  result.schedule.transactions.resize(n);

  ReadPhase read =
      RunReadPhase(block, state, SpecMode::kWithLog, cache, cost, options, store, report);
  ScheduleResult sched = ListSchedule(read.durations, options.threads, options.cost.dispatch_ns);

  WallTimer commit_timer;
  uint64_t t = 0;
  U256 fees;
  ConflictAttribution attribution;
  auto committed = [&state](const StateKey& key) { return state.Get(key); };
  for (size_t i = 0; i < n; ++i) {
    Speculation& spec = read.specs[i];
    TxSchedule& plan = result.schedule.transactions[i];
    t = std::max(t, sched.finish[i]);
    t += cost.ValidationCost(spec.reads.size());

    ConflictMap conflicts = FindConflicts(spec.reads, state);
    if (conflicts.empty()) {
      plan.plan = TxSchedule::Plan::kClean;
      t += CommitSpeculation(spec, state, cost, fees, report);
      continue;
    }
    ++report.conflicts;
    RedoResult redo = RunRedo(spec.log, conflicts, committed);
    if (redo.success) {
      plan.plan = TxSchedule::Plan::kRedo;
      plan.conflict_keys.reserve(conflicts.size());
      for (const auto& [key, value] : conflicts) {
        plan.conflict_keys.push_back(key);
      }
      RecordConflicts(conflicts, ConflictOutcome::kRedoResolved, attribution);
      t += CommitRedo(spec, std::move(redo), conflicts.size(), state, cost, fees, report);
      continue;
    }
    plan.plan = TxSchedule::Plan::kFallback;
    RecordConflicts(conflicts, ConflictOutcome::kFallback, attribution);
    if (spec.log.redoable) {
      ++report.redo_fail;
      // The proposer pays for the failed redo attempt exactly like the plain
      // executor, so proposer and plain-executor makespans agree.
      t += ChargeFailedRedo(redo, conflicts.size(), cost, report);
    }
    ++report.full_reexecutions;
    t += FullReexecute(block, i, state, cache, cost, store, fees, report, &SharedCodeCache());
  }
  report.conflict_keys = attribution.Sorted();
  CreditCoinbase(state, block.context.coinbase, fees);
  report.makespan_ns = t + options.cost.per_block_ns;
  report.commit_wall_ns = commit_timer.ElapsedNs();
  report.wall_ns = block_timer.ElapsedNs();
  return result;
}

BlockReport ExecuteWithSchedule(const Block& block, const BlockSchedule& schedule,
                                WorldState& state, const ExecOptions& options, bool paranoid) {
  WallTimer block_timer;
  CostModel cost(options.cost);
  StateCache cache(options.prefetch);
  std::unique_ptr<SimStore> local_store;
  SimStore* store = EnsureSimStore(options, local_store);
  BlockReport report;
  size_t n = block.transactions.size();

  // Read phase: SSA logs are generated only for transactions the schedule
  // marks kRedo (a validator-side saving the plain executor cannot make);
  // kFallback transactions skip speculation entirely unless paranoid mode
  // wants their read sets for verification.
  std::vector<SpecMode> modes(n, SpecMode::kPlain);
  for (size_t i = 0; i < n; ++i) {
    switch (PlanFor(schedule, i)) {
      case TxSchedule::Plan::kClean:
        break;
      case TxSchedule::Plan::kRedo:
        modes[i] = SpecMode::kWithLog;
        break;
      case TxSchedule::Plan::kFallback:
        if (!paranoid) {
          modes[i] = SpecMode::kSkip;
        }
        break;
    }
  }
  ReadPhase read = RunReadPhase(block, state, modes, cache, cost, options, store, report);
  ScheduleResult sched = ListSchedule(read.durations, options.threads, options.cost.dispatch_ns);

  WallTimer commit_timer;
  uint64_t t = 0;
  U256 fees;
  ConflictAttribution attribution;
  auto committed = [&state](const StateKey& key) { return state.Get(key); };
  for (size_t i = 0; i < n; ++i) {
    TxSchedule::Plan plan = PlanFor(schedule, i);
    Speculation& spec = read.specs[i];
    t = std::max(t, sched.finish[i]);

    if (paranoid && plan != TxSchedule::Plan::kFallback) {
      // Verify the schedule's claim instead of trusting it.
      bool claim_clean = plan == TxSchedule::Plan::kClean;
      ConflictMap conflicts = FindConflicts(spec.reads, state);
      if (claim_clean != conflicts.empty()) {
        ++report.conflicts;  // Schedule deviation: repair serially.
        // A deviation with stale reads attributes them; a claim of conflicts
        // that never materialized has no keys to blame.
        RecordConflicts(conflicts, ConflictOutcome::kFallback, attribution);
        ++report.full_reexecutions;
        t += FullReexecute(block, i, state, cache, cost, store, fees, report, &SharedCodeCache());
        continue;
      }
    }

    switch (plan) {
      case TxSchedule::Plan::kClean: {
        t += CommitSpeculation(spec, state, cost, fees, report);
        break;
      }
      case TxSchedule::Plan::kRedo: {
        // Patch exactly the scheduled keys — no read-set scan needed.
        ConflictMap conflicts;
        for (const StateKey& key : schedule.transactions[i].conflict_keys) {
          conflicts.emplace(key, state.Get(key));
        }
        RedoResult redo = RunRedo(spec.log, conflicts, committed);
        if (!redo.success) {
          // Deterministic proposers never hit this; repair serially anyway.
          ++report.full_reexecutions;
          t += FullReexecute(block, i, state, cache, cost, store, fees, report, &SharedCodeCache());
          break;
        }
        t += CommitRedo(spec, std::move(redo), conflicts.size(), state, cost, fees, report);
        break;
      }
      case TxSchedule::Plan::kFallback: {
        ++report.full_reexecutions;
        t += FullReexecute(block, i, state, cache, cost, store, fees, report, &SharedCodeCache());
        break;
      }
    }
  }
  // Scheduled redos execute without re-validating (the schedule is trusted),
  // so only paranoid-mode deviations contribute attribution here.
  report.conflict_keys = attribution.Sorted();
  CreditCoinbase(state, block.context.coinbase, fees);
  report.makespan_ns = t + options.cost.per_block_ns;
  report.commit_wall_ns = commit_timer.ElapsedNs();
  report.wall_ns = block_timer.ElapsedNs();
  return report;
}

}  // namespace pevm
