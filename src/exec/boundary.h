// Cross-block speculation boundary (DESIGN.md §4.5): while block N executes,
// the chain's speculation stage runs block N+1's read phase against an
// overlay of N's uncommitted writes. When N commits, ValidateBoundary checks
// every speculative record against the now-committed state and decides, per
// transaction, whether the record can seed N+1's in-block read phase:
//
//   clean          — no read changed; the record is *definitionally* what a
//                    fresh speculation would produce (same pure function of
//                    the same committed values).
//   redo-repaired  — some reads are stale but the operation-level redo
//                    machinery (src/core/redo.h) repairs the record in place:
//                    reads patched to committed values, the write set rebuilt
//                    from the patched log, the receipt output re-sliced from
//                    its provenance. A successful redo proves the control
//                    path (and therefore gas, status and stats) unchanged, so
//                    the repaired record is bit-identical to a fresh one.
//   dropped        — the redo declined (guard failure, non-redoable log, or
//                    no log at all for kPlain seeds); the transaction simply
//                    speculates fresh inside block N+1, exactly as if it had
//                    never been launched early.
//
// Correctness therefore never depends on *which* transactions were launched
// early — only wall-clock time does.
#ifndef SRC_EXEC_BOUNDARY_H_
#define SRC_EXEC_BOUNDARY_H_

#include <optional>
#include <vector>

#include "src/exec/pipeline.h"
#include "src/state/world_state.h"

namespace pevm {

struct BoundaryOutcome {
  BoundarySeeds seeds;
  uint64_t validated = 0;      // Engaged records inspected.
  uint64_t clean = 0;          // Reused verbatim (no stale read).
  uint64_t redo_repaired = 0;  // Repaired by operation-level redo.
  uint64_t dropped = 0;        // Discarded; will speculate fresh in-block.
  uint64_t stale_keys = 0;     // Total stale read-set entries observed.
  // Stale keys of records the redo could NOT repair — the cross-block analog
  // of an in-block full-reexecution fallback. The chain feeds these to its
  // hot-key gate so repeat offenders are held instead of launched, wasted and
  // dropped again (redo-repairable keys stay launchable; repair is cheap).
  std::vector<StateKey> dropped_keys;
};

// Validates every engaged speculative record against the committed
// post-predecessor state and returns the seeds safe to hand to
// Executor::Execute. Runs on the chain's exec thread between the
// predecessor's commit barrier and the successor's read phase, so `committed`
// is quiescent. Consumes `specs`.
BoundaryOutcome ValidateBoundary(std::vector<std::optional<Speculation>> specs,
                                 const WorldState& committed);

}  // namespace pevm

#endif  // SRC_EXEC_BOUNDARY_H_
