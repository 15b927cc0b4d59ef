// The redo phase (paper §5.3, Algorithm 1): given the conflicting storage
// keys and their freshly committed values, patch the type-I read sources,
// find every operation the definition-use graph reaches from them, re-execute
// those in LSN order via the pure evaluator, and verify every constraint
// guard. On success the transaction's write set is rebuilt from the log's
// latest writes; on any guard failure the caller falls back to full
// re-execution (the paper's abort-and-restart write phase).
//
// RunRedo reads the flat log in place (oplog.h). The graph is not stored:
// every def edge names an earlier entry, so one pass in log order marks
// exactly the entries the paper's DFS visits. The marks live in a buffer each
// thread reuses and pure ops read their operands straight from the operand
// pool, so once that buffer has grown a redo allocates only its result's
// write set.
#ifndef SRC_CORE_REDO_H_
#define SRC_CORE_REDO_H_

#include <functional>
#include <unordered_map>

#include "src/core/oplog.h"
#include "src/state/world_state.h"

namespace pevm {

// key -> freshly committed value for every stale read-set entry.
using ConflictMap = std::unordered_map<StateKey, U256, StateKeyHash>;

struct RedoResult {
  bool success = false;
  size_t dfs_visited = 0;  // Entries the def-use graph reaches from the sources (incl.).
  size_t reexecuted = 0;   // Entries actually re-executed (excl. sources).
  // Valid only when success: the repaired write set.
  WriteSet write_set;
};

// `committed` resolves the current committed value of a key (used for SSTORE
// dynamic-gas recomputation); typically bound to the post-predecessor world
// state.
RedoResult RunRedo(TxLog& log, const ConflictMap& conflicts,
                   const std::function<U256(const StateKey&)>& committed);

// Rebuilds a write set from the log's latest writes (KeyRecord::latest_write;
// also used to cross-check the builder against StateView in tests).
WriteSet WriteSetFromLog(const TxLog& log);

// Rebuilds the receipt's output bytes from the log's return-output provenance
// (TxLog::ReturnBytes/ReturnDeps): constant bytes stay as captured,
// dependent runs are re-sliced from their defining entries' current results.
// Call after a successful RunRedo; the result then matches what a fresh
// execution against the patched read values would have returned. Returns the
// captured bytes unchanged when the log has no return provenance.
Bytes PatchedReturnOutput(const TxLog& log);

}  // namespace pevm

#endif  // SRC_CORE_REDO_H_
