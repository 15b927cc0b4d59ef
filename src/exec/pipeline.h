// The shared executor pipeline (paper §5.1): the one Speculation record, the
// genuinely parallel read phase, the read-set validation scan, and the
// commit-side accounting (clean commit, redo repair, failed-redo charge,
// serial fallback re-execution, fee accrual). Every concurrency-control
// executor — ParallelEVM, OCC, Block-STM's commit sweep, and the §7
// proposer/validator pair — is built from these pieces, so they necessarily
// agree on semantics and on cost accounting.
//
// Time is reported twice (DESIGN.md §3.2): the virtual-time cost model stays
// the paper-figure oracle (makespan_ns), while WallTimer feeds the real
// wall-clock BlockReport fields (read_wall_ns, commit_wall_ns) that
// the thread-pool read phase actually earns. Results are bit-identical for
// every OS-thread count: only the wall-clock fields may differ.
#ifndef SRC_EXEC_PIPELINE_H_
#define SRC_EXEC_PIPELINE_H_

#include <chrono>
#include <optional>
#include <span>
#include <vector>

#include "src/core/oplog.h"
#include "src/core/redo.h"
#include "src/exec/executor.h"
#include "src/state/state_view.h"

namespace pevm {

// One transaction's speculative execution against the block-start state: the
// receipt, the observed read set (validation input), the buffered write set
// (commit input) and, when requested, the SSA operation log (redo input).
// (SpecMode, the per-transaction read-phase mode, lives in executor.h so the
// Executor interface can name its seedable shape.)
struct Speculation {
  Receipt receipt;
  ReadSet reads;
  WriteSet writes;
  TxLog log;
};

// Cross-block speculation hand-off (declared in executor.h): per-transaction
// speculation records produced against the *previous* block's uncommitted
// overlay and boundary-validated against the committed state, so each engaged
// entry is bit-identical to the record a fresh in-block speculation would
// produce. RunReadPhase consumes engaged entries instead of re-speculating;
// disengaged entries (not launched, or dropped at the boundary) speculate
// fresh as usual.
struct BoundarySeeds {
  std::vector<std::optional<Speculation>> specs;
};

// Speculatively executes `tx` against the committed state, buffering all
// effects in the returned record. Thread-safe: `state` is only read. When
// `store` is set, committed reads route through the simulated storage
// front-end (wall-clock latency + residency tracking; values are unchanged).
// `provider` is the code cache (null = every frame scans its own JUMPDESTs);
// it moves only wall clock, never the record.
Speculation SpeculateTransaction(const WorldState& state, const BlockContext& context,
                                 const Transaction& tx, bool with_log, SimStore* store = nullptr,
                                 CodeProvider* provider = nullptr);

// As above, but against an arbitrary committed-state reader (the chain's
// speculation stage passes an overlay view stacking the in-flight block's
// writes over the committed state). Thread-safety is the reader's contract.
Speculation SpeculateTransaction(const BaseReader& reader, const BlockContext& context,
                                 const Transaction& tx, bool with_log,
                                 CodeProvider* provider = nullptr);

struct ReadPhase {
  std::vector<Speculation> specs;
  // Virtual speculation duration per transaction (0 for kSkip); feeds
  // ListSchedule.
  std::vector<uint64_t> durations;
};

// Runs the read phase: speculates every non-skipped transaction concurrently
// on `options.os_threads` real OS threads (0 = one per hardware thread)
// against the read-only committed state, then runs all order-dependent
// accounting (StateCache cold/warm classification, virtual durations, report
// counters) as a deterministic block-order pass on the calling thread. Adds
// the elapsed wall time to report.read_wall_ns.
//
// When `store` is set, reads pay the simulated storage latency; when
// additionally `options.prefetch_depth` > 0, a background PrefetchEngine
// warms the predicted access set of transaction i+depth while transaction i
// executes, and the deterministic prefetch hit/miss/wasted counters land in
// `report`. With `options.external_warmup` a chain runner already warmed the
// block (and owns residency), so the per-block BeginBlock and the engine are
// skipped — the deterministic accounting still runs.
//
// When `seeds` is set, a transaction with an engaged seed entry adopts that
// record instead of speculating (its boundary validation already proved it
// bit-identical to a fresh speculation), skipping the per-transaction
// storage-latency wait; everything downstream — the deterministic block-order
// accounting pass included — treats it exactly like a fresh record, so every
// deterministic BlockReport field is unchanged by seeding.
ReadPhase RunReadPhase(const Block& block, const WorldState& state,
                       std::span<const SpecMode> modes, StateCache& cache,
                       const CostModel& cost, const ExecOptions& options, SimStore* store,
                       BlockReport& report, BoundarySeeds* seeds = nullptr);

// Uniform-mode convenience overload.
ReadPhase RunReadPhase(const Block& block, const WorldState& state, SpecMode mode,
                       StateCache& cache, const CostModel& cost, const ExecOptions& options,
                       SimStore* store, BlockReport& report, BoundarySeeds* seeds = nullptr);

// Builds the per-transaction static access-set predictions (envelope
// accounts + calldata selector) the PrefetchEngine and AccountPrefetch
// consume.
std::vector<PrefetchRequest> BuildPrefetchRequests(const Block& block);

// Deterministic prefetch accounting, run on the block-order pass after the
// engine has been joined: classifies every observed read as a prefetch hit
// (its key was in the transaction's predicted set) or miss, counts predicted
// keys nothing read as wasted, then feeds the observed storage keys back
// into the store's hint table. reads_per_tx entries may be null (skipped /
// never-executed transactions).
void AccountPrefetch(SimStore& store, const std::vector<PrefetchRequest>& requests,
                     const std::vector<const ReadSet*>& reads_per_tx, BlockReport& report);

// Validation scan: every read whose committed value changed since
// speculation, mapped to the freshly committed value (the redo phase's patch
// input).
ConflictMap FindConflicts(const ReadSet& reads, const WorldState& state);

// Books every key of a validation failure into the block's attribution
// histogram under the given resolution outcome. Call on the block-order
// commit path (after the outcome is known) so the histogram stays
// OS-thread-count invariant.
inline void RecordConflicts(const ConflictMap& conflicts, ConflictOutcome outcome,
                            ConflictAttribution& attribution) {
  for (const auto& [key, value] : conflicts) {
    attribution.Record(key, outcome);
  }
}

// Commits a validated receipt + write set: applies the writes and accrues the
// fee if the receipt is valid, then moves the receipt into the report.
// Returns the virtual commit cost.
uint64_t CommitResult(Receipt&& receipt, WriteSet&& writes, WorldState& state,
                      const CostModel& cost, U256& fees, BlockReport& report);

// Clean-speculation commit (validation found no conflicts).
uint64_t CommitSpeculation(Speculation& spec, WorldState& state, const CostModel& cost,
                           U256& fees, BlockReport& report);

// Books a successful redo repair: success counters, write application, fee
// accrual, receipt hand-off. Returns the virtual redo + commit cost.
uint64_t CommitRedo(Speculation& spec, RedoResult&& redo, size_t conflict_count,
                    WorldState& state, const CostModel& cost, U256& fees, BlockReport& report);

// Charges a failed redo attempt's DFS and partial re-execution: the abort
// happens on the commit path, so the wasted work is real makespan (callers
// count report.redo_fail themselves).
uint64_t ChargeFailedRedo(const RedoResult& redo, size_t conflict_count, const CostModel& cost,
                          BlockReport& report);

// Write-phase fallback: serial re-execution of transaction `i` against the
// committed state (cannot conflict again), committing its effects. Returns
// the virtual cost (callers count report.full_reexecutions themselves).
// With `store` set, the re-execution reads through the storage front-end —
// keys the read phase (or the prefetcher) already warmed stay warm.
// `provider` is the code cache, as for SpeculateTransaction: pass
// &SharedCodeCache() so fallbacks share it.
uint64_t FullReexecute(const Block& block, size_t i, WorldState& state, StateCache& cache,
                       const CostModel& cost, SimStore* store, U256& fees, BlockReport& report,
                       CodeProvider* provider = nullptr);

// Wall-clock stopwatch feeding the real-time BlockReport fields.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  uint64_t ElapsedNs() const {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now() - start_)
                                     .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pevm

#endif  // SRC_EXEC_PIPELINE_H_
