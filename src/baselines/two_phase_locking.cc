#include "src/baselines/two_phase_locking.h"

#include <functional>
#include <optional>
#include <queue>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/exec/apply.h"
#include "src/codecache/code_cache.h"
#include "src/exec/pipeline.h"
#include "src/state/state_view.h"

namespace pevm {
namespace {

constexpr uint64_t kLockOpNs = 60;  // Lock-table access per acquisition/release.
// Handing a contended lock to a parked thread costs a futex wake plus a
// scheduling delay — the convoy effect that makes lock-based execution
// collapse under hot-spot contention.
constexpr uint64_t kLockWakeupNs = 7000;

enum class St { kIdle, kRunning, kWaiting, kExecuted, kCommitted };

struct TxSim {
  std::vector<StateKey> points;  // Lock-acquisition order (first accesses).
  uint64_t exec_cost = 0;
  uint64_t seg_cost = 0;  // exec_cost spread over points.size()+1 segments.
  size_t next_point = 0;
  St st = St::kIdle;
  std::vector<StateKey> held;
  std::optional<StateKey> waiting_on;
  int worker = -1;
  uint64_t epoch = 0;  // Invalidates in-flight events after a wound.
  int aborts = 0;
};

struct LockState {
  int owner = -1;
  std::set<int> waiters;  // Ordered: the oldest (lowest index) wins.
};

struct Event {
  uint64_t time = 0;
  uint64_t seq = 0;
  int tx = -1;
  uint64_t epoch = 0;
  friend bool operator>(const Event& a, const Event& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }
};

}  // namespace

BlockReport TwoPhaseLockingExecutor::Execute(const Block& block, WorldState& state) {
  WallTimer block_timer;
  CostModel cost(options_.cost);
  StateCache cache(options_.prefetch);
  BlockReport report;
  const int n = static_cast<int>(block.transactions.size());

  // --- Pre-pass: serial semantics + per-transaction traces/costs. ---
  std::vector<TxSim> sims(static_cast<size_t>(n));
  std::vector<size_t> write_counts(static_cast<size_t>(n), 0);
  U256 fees;
  for (int i = 0; i < n; ++i) {
    StateView view(state);
    Receipt receipt = ApplyTransaction(view, block.context, block.transactions[static_cast<size_t>(i)],
                                       nullptr, &SharedCodeCache());
    TxSim& sim = sims[static_cast<size_t>(i)];
    std::unordered_set<StateKey, StateKeyHash> seen;
    for (const StateKey& key : view.read_order()) {
      if (seen.insert(key).second) {
        sim.points.push_back(key);
      }
    }
    for (const auto& [key, value] : view.write_set()) {
      if (seen.insert(key).second) {
        sim.points.push_back(key);
      }
    }
    uint64_t total_reads = TotalReadOps(receipt.stats);
    uint64_t cold = std::min(cache.Touch(view.read_set()), total_reads);
    sim.exec_cost =
        cost.ExecutionCost(receipt.stats, cold, total_reads - cold, /*with_ssa=*/false);
    sim.seg_cost = sim.exec_cost / (sim.points.size() + 1);
    write_counts[static_cast<size_t>(i)] = view.write_set().size();
    report.instructions += receipt.stats.instructions;
    if (receipt.valid) {
      state.Apply(view.write_set());
      fees = fees + receipt.fee;
    }
    report.receipts.push_back(std::move(receipt));
  }
  CreditCoinbase(state, block.context.coinbase, fees);

  // --- Lock-contention simulation (wound-wait, in-order commit). ---
  std::unordered_map<StateKey, LockState, StateKeyHash> locks;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  uint64_t seq = 0;
  int next_tx_to_start = 0;
  int commit_upto = 0;
  uint64_t commit_tail = 0;  // When the previous commit finished.
  uint64_t makespan = 0;

  auto schedule = [&](int tx, uint64_t time) {
    events.push(Event{time, seq++, tx, sims[static_cast<size_t>(tx)].epoch});
  };

  auto start_tx = [&](int tx, int worker, uint64_t time) {
    TxSim& sim = sims[static_cast<size_t>(tx)];
    sim.worker = worker;
    sim.st = St::kRunning;
    sim.next_point = 0;
    sim.held.clear();
    sim.waiting_on.reset();
    ++sim.epoch;
    schedule(tx, time + sim.seg_cost);
  };

  // Forward declarations via std::function to allow mutual recursion.
  std::function<void(const StateKey&, uint64_t)> resolve_lock;
  std::function<void(int, uint64_t)> wound;
  std::function<void(int, uint64_t)> granted;
  std::function<void(uint64_t)> try_commit_chain;

  granted = [&](int tx, uint64_t time) {
    TxSim& sim = sims[static_cast<size_t>(tx)];
    bool was_parked = sim.st == St::kWaiting;
    sim.held.push_back(sim.points[sim.next_point]);
    sim.waiting_on.reset();
    sim.st = St::kRunning;
    ++sim.next_point;
    uint64_t wakeup = was_parked ? kLockWakeupNs : 0;
    schedule(tx, time + kLockOpNs + wakeup + sim.seg_cost);
  };

  wound = [&](int victim, uint64_t time) {
    TxSim& sim = sims[static_cast<size_t>(victim)];
    ++report.lock_aborts;
    ++sim.aborts;
    std::vector<StateKey> released = std::move(sim.held);
    sim.held.clear();
    if (sim.waiting_on.has_value()) {
      locks[*sim.waiting_on].waiters.erase(victim);
      sim.waiting_on.reset();
    }
    for (const StateKey& key : released) {
      locks[key].owner = -1;
    }
    // Naive immediate retry (as the paper describes): the wound wastes the
    // partial execution and the victim restarts from scratch.
    sim.st = St::kRunning;
    sim.next_point = 0;
    ++sim.epoch;
    uint64_t backoff = kLockWakeupNs + sim.exec_cost / 8;
    schedule(victim, time + backoff + sim.seg_cost);
    for (const StateKey& key : released) {
      resolve_lock(key, time);
    }
  };

  resolve_lock = [&](const StateKey& key, uint64_t time) {
    LockState& lock = locks[key];
    if (lock.waiters.empty()) {
      return;
    }
    int oldest = *lock.waiters.begin();
    if (lock.owner == -1) {
      lock.waiters.erase(lock.waiters.begin());
      lock.owner = oldest;
      granted(oldest, time);
      return;
    }
    if (oldest < lock.owner) {
      wound(lock.owner, time);  // Releases this lock and recursively resolves.
    }
  };

  try_commit_chain = [&](uint64_t time) {
    while (commit_upto < n && sims[static_cast<size_t>(commit_upto)].st == St::kExecuted) {
      TxSim& sim = sims[static_cast<size_t>(commit_upto)];
      uint64_t start = std::max(time, commit_tail);
      uint64_t end = start + cost.CommitCost(write_counts[static_cast<size_t>(commit_upto)]) +
                     kLockOpNs * sim.held.size();
      commit_tail = end;
      makespan = std::max(makespan, end);
      sim.st = St::kCommitted;
      std::vector<StateKey> released = std::move(sim.held);
      for (const StateKey& key : released) {
        locks[key].owner = -1;
      }
      int worker = sim.worker;
      ++commit_upto;
      for (const StateKey& key : released) {
        resolve_lock(key, end);
      }
      if (next_tx_to_start < n) {
        start_tx(next_tx_to_start++, worker, end);
      }
      time = end;
    }
  };

  int initial = std::min(options_.threads, n);
  for (int w = 0; w < initial; ++w) {
    start_tx(next_tx_to_start++, w, 0);
  }

  while (!events.empty()) {
    Event ev = events.top();
    events.pop();
    TxSim& sim = sims[static_cast<size_t>(ev.tx)];
    if (ev.epoch != sim.epoch || sim.st != St::kRunning) {
      continue;  // Stale event (wounded or already blocked meanwhile).
    }
    if (sim.next_point >= sim.points.size()) {
      sim.st = St::kExecuted;
      makespan = std::max(makespan, ev.time);
      try_commit_chain(ev.time);
      continue;
    }
    const StateKey& key = sim.points[sim.next_point];
    LockState& lock = locks[key];
    if (lock.owner == -1 || lock.owner == ev.tx) {
      if (lock.owner == -1) {
        lock.owner = ev.tx;
      }
      granted(ev.tx, ev.time);
      continue;
    }
    sim.st = St::kWaiting;
    sim.waiting_on = key;
    lock.waiters.insert(ev.tx);
    resolve_lock(key, ev.time);
  }

  report.conflicts = report.lock_aborts;
  report.makespan_ns = makespan + options_.cost.per_block_ns;
  report.wall_ns = block_timer.ElapsedNs();
  return report;
}

}  // namespace pevm
