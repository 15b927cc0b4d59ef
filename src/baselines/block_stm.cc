#include "src/baselines/block_stm.h"

#include <cassert>
#include <map>
#include <optional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "src/exec/apply.h"
#include "src/codecache/code_cache.h"
#include "src/exec/pipeline.h"
#include "src/state/state_view.h"
#include "src/telemetry/trace.h"

namespace pevm {
namespace {

// A read's provenance: which transaction/incarnation produced the value
// (txn == -1 means the pre-block committed state).
struct Version {
  int txn = -1;
  int incarnation = 0;
  friend bool operator==(const Version&, const Version&) = default;
};

struct WriteVersion {
  int incarnation = 0;
  U256 value;
  bool estimate = false;  // Aborted incarnation's write: dependency marker.
};

// Multi-version memory: per key, the writes of every transaction that wrote
// it, ordered by transaction index.
using MvMemory = std::unordered_map<StateKey, std::map<int, WriteVersion>, StateKeyHash>;

// Resolves transaction `txn`'s reads against the multi-version memory,
// recording provenance; reading an ESTIMATE requests an execution abort.
class MvReader final : public BaseReader {
 public:
  MvReader(const MvMemory& mv, const WorldState& base, SimStore* store, int txn)
      : mv_(&mv), base_(&base), store_(store), txn_(txn) {}

  U256 Read(const StateKey& key) const override {
    auto kit = mv_->find(key);
    if (kit != mv_->end()) {
      // Highest writer strictly below us.
      auto vit = kit->second.lower_bound(txn_);
      if (vit != kit->second.begin()) {
        --vit;
        if (vit->second.estimate) {
          abort_ = true;
          blocking_txn_ = vit->first;
          return U256{};
        }
        reads_.push_back({key, Version{vit->first, vit->second.incarnation}, vit->second.value});
        return vit->second.value;
      }
    }
    // Only committed-state reads touch storage; multi-version hits are
    // in-memory.
    if (store_ != nullptr) {
      store_->Touch(key);
    }
    U256 value = base_->Get(key);
    reads_.push_back({key, Version{}, value});
    return value;
  }

  const Bytes* ReadCode(const Address& a) const override { return base_->GetCode(a); }
  bool ShouldAbort() const override { return abort_; }

  struct Read_ {
    StateKey key;
    Version version;
    U256 value;
  };

  bool aborted() const { return abort_; }
  int blocking_txn() const { return blocking_txn_; }
  std::vector<Read_> TakeReads() { return std::move(reads_); }

 private:
  const MvMemory* mv_;
  const WorldState* base_;
  SimStore* store_;
  int txn_;
  mutable bool abort_ = false;
  mutable int blocking_txn_ = -1;
  mutable std::vector<Read_> reads_;
};

using ReadRecord = MvReader::Read_;

enum class TxStatus { kReady, kExecuting, kExecuted, kBlocked };

struct TxState {
  TxStatus status = TxStatus::kReady;
  int incarnation = 0;
  uint64_t exec_finish = 0;  // Virtual time the last successful execution landed.
  // Abort coordination latency (ESTIMATE marking, counter decreases,
  // rescheduling) charged to the next incarnation's start.
  uint64_t abort_penalty = 0;
  std::vector<ReadRecord> reads;
  WriteSet writes;
  Receipt receipt;
  std::unordered_set<int> dependents;  // Blocked on this transaction.
};

struct Task {
  enum class Kind { kExecute, kValidate } kind = Kind::kExecute;
  int txn = -1;
  int incarnation = 0;
};

// A completed task waiting for its virtual finish time.
struct InFlight {
  uint64_t finish = 0;
  size_t seq = 0;  // Tie-break for determinism.
  int worker = 0;
  Task task;
  // Execution effects (computed at start time, applied at finish).
  bool exec_aborted = false;
  int blocking_txn = -1;
  std::vector<ReadRecord> reads;
  WriteSet writes;
  Receipt receipt;
  bool validation_passed = false;

  friend bool operator>(const InFlight& a, const InFlight& b) {
    return a.finish != b.finish ? a.finish > b.finish : a.seq > b.seq;
  }
};

}  // namespace

BlockReport BlockStmExecutor::Execute(const Block& block, WorldState& state) {
  WallTimer read_timer;
  CostModel cost(options_.cost);
  StateCache cache(options_.prefetch);
  SimStore* store = EnsureSimStore(options_, sim_store_);
  BlockReport report;
  const int n = static_cast<int>(block.transactions.size());
  if (n == 0) {
    return report;
  }
  BlockPrefetch prefetch(block, options_, store);

  MvMemory mv;
  std::vector<TxState> txs(static_cast<size_t>(n));
  int execution_idx = 0;
  int validation_idx = 0;

  // --- Scheduler (paper's collaborative scheduler, counter form). ---
  auto fetch_next = [&]() -> std::optional<Task> {
    while (execution_idx < n || validation_idx < n) {
      if (validation_idx < execution_idx || execution_idx >= n) {
        int j = validation_idx++;
        if (j < n && txs[static_cast<size_t>(j)].status == TxStatus::kExecuted) {
          return Task{Task::Kind::kValidate, j, txs[static_cast<size_t>(j)].incarnation};
        }
        continue;
      }
      int j = execution_idx++;
      if (j < n && txs[static_cast<size_t>(j)].status == TxStatus::kReady) {
        txs[static_cast<size_t>(j)].status = TxStatus::kExecuting;
        return Task{Task::Kind::kExecute, j, txs[static_cast<size_t>(j)].incarnation};
      }
    }
    return std::nullopt;
  };

  // --- Task bodies (real execution/validation; duration from the model). ---
  auto run_execute = [&](InFlight& fl) -> uint64_t {
    const Transaction& tx = block.transactions[static_cast<size_t>(fl.task.txn)];
    uint64_t penalty = txs[static_cast<size_t>(fl.task.txn)].abort_penalty;
    txs[static_cast<size_t>(fl.task.txn)].abort_penalty = 0;
    MvReader reader(mv, state, store, fl.task.txn);
    StateView view(reader);
    fl.receipt = ApplyTransaction(view, block.context, tx, nullptr, &SharedCodeCache());
    fl.exec_aborted = reader.aborted();
    fl.blocking_txn = reader.blocking_txn();
    fl.reads = reader.TakeReads();
    fl.writes = view.take_write_set();
    report.instructions += fl.receipt.stats.instructions;
    if (fl.exec_aborted) {
      // Partial execution: charge the instructions actually run plus the
      // reads made so far.
      return penalty + options_.cost.per_tx_ns + fl.receipt.stats.instructions * 2 +
             fl.reads.size() * options_.cost.warm_read_ns;
    }
    ReadSet read_keys;
    for (const ReadRecord& r : fl.reads) {
      read_keys.emplace(r.key, U256{});
    }
    uint64_t total_reads = TotalReadOps(fl.receipt.stats);
    uint64_t cold = std::min(cache.Touch(read_keys), total_reads);
    return penalty +
           cost.ExecutionCost(fl.receipt.stats, cold, total_reads - cold, /*with_ssa=*/false);
  };

  auto run_validate = [&](InFlight& fl) -> uint64_t {
    TxState& t = txs[static_cast<size_t>(fl.task.txn)];
    fl.validation_passed = true;
    for (const ReadRecord& r : t.reads) {
      Version current;  // Base by default.
      auto kit = mv.find(r.key);
      if (kit != mv.end()) {
        auto vit = kit->second.lower_bound(fl.task.txn);
        if (vit != kit->second.begin()) {
          --vit;
          if (vit->second.estimate) {
            fl.validation_passed = false;
            break;
          }
          current = Version{vit->first, vit->second.incarnation};
        }
      }
      if (!(current == r.version)) {
        fl.validation_passed = false;
        break;
      }
    }
    // Scheduler validations are in-memory version compares against the
    // multi-version map — cheaper than the trie-backed commit validation.
    return options_.cost.validate_key_ns * t.reads.size() + 60;
  };

  // --- Effect application at virtual completion time. ---
  auto apply_execute = [&](InFlight& fl) {
    TxState& t = txs[static_cast<size_t>(fl.task.txn)];
    if (fl.task.incarnation != t.incarnation) {
      return;  // Stale incarnation (aborted while running).
    }
    if (fl.exec_aborted) {
      ++report.full_reexecutions;  // This run's work is wasted.
      // Blocking on an ESTIMATE costs a suspend/wake round trip (cheaper
      // than a full abort: no ESTIMATE marking or counter decreases).
      t.abort_penalty += options_.cost.stm_abort_ns / 4;
      TxState& dep = txs[static_cast<size_t>(fl.blocking_txn)];
      if (dep.status == TxStatus::kExecuted) {
        t.status = TxStatus::kReady;  // Dependency resolved meanwhile.
        execution_idx = std::min(execution_idx, fl.task.txn);
      } else {
        t.status = TxStatus::kBlocked;
        dep.dependents.insert(fl.task.txn);
      }
      return;
    }
    // Publish writes; retract stale ones from the previous incarnation.
    bool wrote_new_key = false;
    for (const auto& [key, value] : fl.writes) {
      if (!t.writes.contains(key)) {
        wrote_new_key = true;
      }
      mv[key][fl.task.txn] = WriteVersion{t.incarnation, value, false};
    }
    for (const auto& [key, value] : t.writes) {
      if (!fl.writes.contains(key)) {
        mv[key].erase(fl.task.txn);
      }
    }
    t.reads = std::move(fl.reads);
    t.writes = std::move(fl.writes);
    t.receipt = std::move(fl.receipt);
    t.status = TxStatus::kExecuted;
    t.exec_finish = fl.finish;
    (void)wrote_new_key;
    validation_idx = std::min(validation_idx, fl.task.txn);
    // Wake transactions blocked on us.
    for (int d : t.dependents) {
      TxState& dep = txs[static_cast<size_t>(d)];
      if (dep.status == TxStatus::kBlocked) {
        dep.status = TxStatus::kReady;
        execution_idx = std::min(execution_idx, d);
      }
    }
    t.dependents.clear();
  };

  auto apply_validate = [&](InFlight& fl) {
    TxState& t = txs[static_cast<size_t>(fl.task.txn)];
    if (fl.task.incarnation != t.incarnation || t.status != TxStatus::kExecuted) {
      return;  // Stale.
    }
    if (fl.validation_passed) {
      return;
    }
    // Abort: mark writes as estimates and schedule the next incarnation.
    // The coordination (ESTIMATE flags, counter decreases, rescheduling)
    // delays the next incarnation.
    ++report.conflicts;
    t.abort_penalty += options_.cost.stm_abort_ns;
    for (const auto& [key, value] : t.writes) {
      auto kit = mv.find(key);
      if (kit != mv.end()) {
        auto vit = kit->second.find(fl.task.txn);
        if (vit != kit->second.end()) {
          vit->second.estimate = true;
        }
      }
    }
    ++t.incarnation;
    t.status = TxStatus::kReady;
    execution_idx = std::min(execution_idx, fl.task.txn);
    validation_idx = std::min(validation_idx, fl.task.txn);
  };

  // --- Discrete-event loop over virtual workers. ---
  std::priority_queue<std::pair<uint64_t, int>, std::vector<std::pair<uint64_t, int>>,
                      std::greater<>>
      free_workers;
  for (int w = 0; w < options_.threads; ++w) {
    free_workers.push({0, w});
  }
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>> inflight;
  size_t seq = 0;
  uint64_t makespan = 0;
  // Safety valve against scheduler livelock (never hit in practice).
  const size_t kMaxTasks = 1000 + static_cast<size_t>(n) * 200;
  size_t tasks_run = 0;

  while (true) {
    // Apply any completion that precedes the earliest free worker.
    if (!inflight.empty() &&
        (free_workers.empty() || inflight.top().finish <= free_workers.top().first)) {
      InFlight fl = inflight.top();
      inflight.pop();
      makespan = std::max(makespan, fl.finish);
      if (fl.task.kind == Task::Kind::kExecute) {
        apply_execute(fl);
      } else {
        apply_validate(fl);
      }
      free_workers.push({fl.finish, fl.worker});
      continue;
    }
    if (free_workers.empty()) {
      break;  // Nothing free, nothing in flight.
    }
    auto [now, worker] = free_workers.top();
    std::optional<Task> task = fetch_next();
    if (!task.has_value()) {
      if (inflight.empty()) {
        break;  // Quiescent: done.
      }
      // Idle until the next completion re-opens work.
      free_workers.pop();
      free_workers.push({inflight.top().finish, worker});
      continue;
    }
    free_workers.pop();
    if (++tasks_run > kMaxTasks) {
      break;  // Livelock guard; the commit sweep below repairs serially.
    }
    InFlight fl;
    fl.task = *task;
    fl.seq = seq++;
    fl.worker = worker;
    uint64_t duration = fl.task.kind == Task::Kind::kExecute ? run_execute(fl) : run_validate(fl);
    fl.finish = now + options_.cost.dispatch_ns + duration;
    inflight.push(std::move(fl));
  }

  if (prefetch.accounting()) {
    std::vector<ReadSet> observed(static_cast<size_t>(n));
    for (int j = 0; j < n; ++j) {
      for (const ReadRecord& r : txs[static_cast<size_t>(j)].reads) {
        if (r.version.txn == -1) {  // Base reads only: mv hits never touch storage.
          observed[static_cast<size_t>(j)].emplace(r.key, r.value);
        }
      }
    }
    std::vector<const ReadSet*> reads(static_cast<size_t>(n), nullptr);
    for (int j = 0; j < n; ++j) {
      reads[static_cast<size_t>(j)] = &observed[static_cast<size_t>(j)];
    }
    prefetch.Account(reads, report);
  }
  report.read_wall_ns = read_timer.ElapsedNs();

  // --- Commit sweep: verify each transaction's reads against the now-
  // committed state by value, then apply its write set in block order. At
  // quiescence Block-STM guarantees consistency, so re-executions here are
  // a correctness net for the livelock-guard path only. The sweep pipelines
  // with the scheduler: committing transaction j waits only for j's own
  // final execution (and the preceding commits), not the whole DES.
  WallTimer commit_timer;
  PEVM_TRACE_SPAN_ARG("exec.commit_loop", "txs", n);
  uint64_t t = 0;
  U256 fees;
  // Hot-key attribution covers the commit sweep's value validation only; the
  // scheduler's version-based aborts above live in multi-version memory and
  // are counted in report.conflicts, not per key.
  ConflictAttribution attribution;
  std::unordered_set<StateKey, StateKeyHash> stale;  // Dedup: reads may repeat keys.
  for (int j = 0; j < n; ++j) {
    TxState& tx_state = txs[static_cast<size_t>(j)];
    bool consistent = tx_state.status == TxStatus::kExecuted;
    t = std::max(t, tx_state.exec_finish);
    t += cost.ValidationCost(tx_state.reads.size());  // Final in-order check.
    if (consistent) {
      // Full scan (no break on the first mismatch) so every stale key is
      // attributed; the virtual cost already charges the whole read set and
      // state.Get has no side effects, so this cannot perturb the oracle.
      stale.clear();
      for (const ReadRecord& r : tx_state.reads) {
        if (state.Get(r.key) != r.value) {
          stale.insert(r.key);
        }
      }
      consistent = stale.empty();
      if (!consistent) {
        PEVM_TRACE_INSTANT_ARG("exec.conflict", "tx", j);
        for (const StateKey& key : stale) {
          attribution.Record(key, ConflictOutcome::kFallback);
        }
      }
    }
    if (!consistent) {
      ++report.full_reexecutions;
      t += FullReexecute(block, static_cast<size_t>(j), state, cache, cost, store, fees,
                         report, &SharedCodeCache());
      continue;
    }
    t += CommitResult(std::move(tx_state.receipt), std::move(tx_state.writes), state, cost,
                      fees, report);
  }
  report.conflict_keys = attribution.Sorted();

  CreditCoinbase(state, block.context.coinbase, fees);
  report.makespan_ns = t + options_.cost.per_block_ns;
  report.commit_wall_ns = commit_timer.ElapsedNs();
  return report;
}

}  // namespace pevm
