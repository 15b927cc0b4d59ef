// The SSA operation log (paper §5.2): a dynamically generated
// static-single-assignment representation of a transaction's state-relevant
// operations. Every entry's inputs are (i) immediate constants captured at
// read-phase time, (ii) results of earlier entries (def_stack / def_storage /
// def_memory back-references), or (iii) committed storage reads — so entries
// can be re-executed in isolation during the redo phase without any EVM
// runtime context.
#ifndef SRC_CORE_OPLOG_H_
#define SRC_CORE_OPLOG_H_

#include <unordered_map>
#include <vector>

#include "src/evm/opcode.h"
#include "src/state/state_key.h"
#include "src/support/bytes.h"
#include "src/support/u256.h"

namespace pevm {

// Log sequence number; kNullLsn marks a constant (no defining operation).
using Lsn = int32_t;
inline constexpr Lsn kNullLsn = -1;

// One <start, len, lsn, offset> memory-dependency tuple (paper Fig. 8c): the
// input bytes [start, start+len) come from bytes [offset, offset+len) of the
// lsn-th entry's result.
struct MemDep {
  uint32_t start = 0;
  uint32_t len = 0;
  Lsn lsn = kNullLsn;
  uint32_t offset = 0;
};

struct OpLogEntry {
  Lsn lsn = kNullLsn;
  Opcode op = Opcode::kInvalid;

  // Operand values observed during the read phase. Layout by op:
  //   pure ops:        stack operands (top first)
  //   kSload:          [slot]
  //   kSstore:         [slot, value]
  //   kMstore/8:       [offset, value]
  //   kDebit/kCredit:  [balance_before, amount]
  //   kNonceBump:      [nonce_before]
  //   kAssertEq:       [expected]
  //   kAssertGe:       [lhs, rhs]  (checks lhs >= rhs)
  std::vector<U256> operands;
  // Defining operations of the stack operands (parallel to `operands`).
  std::vector<Lsn> def_stack;
  // For type-II SLOAD/balance reads: the defining in-transaction write.
  // kNullLsn marks a type-I committed read (§5.2.2).
  Lsn def_storage = kNullLsn;
  // Byte-level provenance of `input_bytes` (SHA3 / MLOAD / CALLDATALOAD).
  std::vector<MemDep> def_memory;
  // Captured input bytes for memory-consuming ops; patched during redo.
  Bytes input_bytes;

  // The operation's result; updated in place during redo.
  U256 result;
  // For memory-writing ops: how many bytes of `result` land in memory
  // (32 for MSTORE, 1 for MSTORE8); 0 otherwise.
  uint8_t result_width = 0;

  // State key for storage-ish ops (SLOAD/SSTORE/kCommittedRead/kDebit/...).
  bool has_key = false;
  StateKey key;

  // Gas-flow constraint data (§5.2.4): the dynamic gas charged at read-phase
  // time, re-derived and compared during redo. -1 = no gas constraint.
  int64_t dyn_gas = -1;
  // For SSTORE gas recomputation: the in-transaction write this store
  // overwrote (kNullLsn -> it overwrote the committed value).
  Lsn prior_def = kNullLsn;

  // Bytes this entry contributes to memory/returndata, for MemDep patching.
  Bytes ResultBytes() const {
    if (result_width == 1) {
      return Bytes{static_cast<uint8_t>(result.limb(0) & 0xff)};
    }
    std::array<uint8_t, 32> be = result.ToBigEndian();
    return Bytes(be.begin(), be.end());
  }
};

// A transaction's complete SSA operation log plus the side tables the redo
// phase needs.
struct TxLog {
  std::vector<OpLogEntry> entries;
  // Definition-use graph (§5.2.5): dug[d] lists the entries using d's result.
  std::vector<std::vector<Lsn>> dug;
  // Type-I reads per state key (§5.2.2): the redo phase's conflict sources.
  std::unordered_map<StateKey, std::vector<Lsn>, StateKeyHash> direct_reads;
  // Last write entry per state key; the post-redo write set is rebuilt from
  // these entries' results.
  std::unordered_map<StateKey, Lsn, StateKeyHash> latest_writes;
  // All SSTOREs per key whose dynamic gas depends on the *committed* prior
  // value (prior_def == kNullLsn); rechecked when that key conflicts.
  std::unordered_map<StateKey, std::vector<Lsn>, StateKeyHash> committed_prior_sstores;
  // False when the transaction cannot be repaired at operation level (any
  // frame reverted/halted, a call was skipped, or the envelope was invalid);
  // such transactions fall back to full re-execution.
  bool redoable = true;

  // Return-output provenance (outermost frame only): the receipt's output
  // bytes as captured at read-phase time plus their byte-level provenance,
  // mirroring OpLogEntry::{input_bytes, def_memory}. A successful redo leaves
  // the defining entries' results updated in place, so
  // PatchedReturnOutput (redo.h) can rebuild a storage-dependent output
  // (balanceOf, AMM amount_out) without re-entering the EVM. A side table,
  // not a log entry: it adds nothing to size()/dug, so every oplog-derived
  // counter and the virtual makespan are unchanged.
  Bytes return_bytes;
  std::vector<MemDep> return_deps;
  bool has_return = false;

  size_t size() const { return entries.size(); }
  const OpLogEntry& operator[](size_t i) const { return entries[i]; }
  OpLogEntry& operator[](size_t i) { return entries[i]; }
};

}  // namespace pevm

#endif  // SRC_CORE_OPLOG_H_
