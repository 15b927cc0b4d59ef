// Always-on per-block flight recorder: a fixed-size ring of BlockRecords —
// where each committed block's wall time went (stage busy vs queue wait), what
// its conflict/redo/speculation outcome was, and what committing and sealing
// it cost. The chain runner fills one record per block as the block moves
// through its stages and hands it here once, final, when the block's batch
// seals; the same record goes to ChainReport::blocks and the per-block
// histograms on /metrics. The last N blocks are always available for
// /debug/blocks and for the stall watchdog's diagnosis, with no opt-in flag:
// the per-block cost is one struct copy under a mutex nobody on the hot path
// contends (the ring's only other readers are ops scrapes).
//
// Inertness (DESIGN.md §4.8): every field is copied *out* of pipeline state
// after the fact; nothing reads the ring back into execution. The deterministic
// fields (conflicts, redo counts, oplog entries, ...) are copies of
// BlockReport fields already proven invariant; the wall-clock fields come
// from the same telemetry::NowNs() clock the trace recorder uses.
#ifndef SRC_OPS_FLIGHT_RECORDER_H_
#define SRC_OPS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/support/keccak.h"

namespace pevm::ops {

// One committed block's record. Fields marked [det] are deterministic
// (bit-identical run to run for the same stream); everything else is
// wall-clock class and may vary with scheduling. Field names are the
// /debug/blocks keys (block_index is "block").
struct BlockRecord {
  // Identity, numbered once by the warm stage.
  uint64_t block_index = 0;   // [det] Chain-lifetime, 1-based (resume-aware).
  uint64_t transactions = 0;  // [det]
  Hash256 root{};             // [det]

  // Stage busy / queue-wait split, in nanoseconds.
  uint64_t warm_busy_ns = 0;
  uint64_t spec_busy_ns = 0;         // 0 when the speculation stage is off.
  uint64_t exec_busy_ns = 0;         // Boundary validation + Execute.
  uint64_t ready_wait_ns = 0;        // Queued between the warm and exec stages.
  uint64_t commit_wait_ns = 0;       // Left exec stage → committer picked it up.
  uint64_t commit_apply_ns = 0;      // Diff replay + incremental re-root.
  uint64_t queue_to_durable_ns = 0;  // Left exec stage → its batch's seal returned.

  // Durable seal (all zero under PersistMode::kNone; bytes but no fsyncs
  // under kInMemory). A seal's costs are shared by its whole batch and land
  // on the batch's last block; sync_ns ⊂ commit_persist_ns.
  uint64_t commit_persist_ns = 0;  // Dirty-node harvest + store commit (incl. sync).
  uint64_t sync_ns = 0;            // Inside fdatasync.
  uint64_t nodes_written = 0;
  uint64_t bytes_appended = 0;  // Framed log bytes, commit marker included.
  uint64_t fsyncs = 0;
  uint64_t commit_batch = 0;  // 1-based ordinal of this run's seal the block landed in.

  // Execution outcome, copied from the block's BlockReport. [det]
  int conflicts = 0;
  int redo_success = 0;
  int redo_fail = 0;
  int full_reexecutions = 0;
  uint64_t oplog_entries = 0;
  uint64_t instructions = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_misses = 0;

  // Cross-block speculation outcome (all zero when the stage is off).
  // Wall-clock class: which txs launch early depends on thread timing.
  uint64_t spec_launched = 0;
  uint64_t spec_held = 0;
  uint64_t spec_clean = 0;
  uint64_t spec_repaired = 0;
  uint64_t spec_dropped = 0;
  uint64_t spec_stale_reads = 0;  // Stale read-set entries at the boundary.
  uint64_t spec_validate_ns = 0;  // Boundary validation wall time.

  // Diff size and snapshot-registry state when the block committed.
  uint64_t diff_entries = 0;        // [det] Ordered-journal entries applied.
  uint64_t snapshots_retained = 0;  // Registry occupancy after publish (0 = tier off).
  uint64_t snapshot_live_pins = 0;  // Outstanding query handles at publish.

  friend bool operator==(const BlockRecord&, const BlockRecord&) = default;
};

class FlightRecorder {
 public:
  // `capacity` blocks are retained; older records are overwritten.
  explicit FlightRecorder(size_t capacity = 256);

  // Called by the commit path once per block, when its batch has sealed.
  void Record(const BlockRecord& record);

  // Resident records, oldest first.
  std::vector<BlockRecord> Snapshot() const;

  uint64_t total_recorded() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<BlockRecord> ring_;  // Slot = total index % capacity.
  uint64_t total_ = 0;             // Records ever written.
};

// JSON array of the recorder's resident records, oldest first — the
// /debug/blocks response body (root as hex, every counter as a number).
std::string FlightRecorderJson(const FlightRecorder& recorder);

}  // namespace pevm::ops

#endif  // SRC_OPS_FLIGHT_RECORDER_H_
