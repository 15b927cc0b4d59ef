// The SSA operation log (paper §5.2): a dynamically generated
// static-single-assignment representation of a transaction's state-relevant
// operations. Every entry's inputs are (i) immediate constants captured at
// read-phase time, (ii) results of earlier entries (operand defs / def_storage /
// def_memory back-references), or (iii) committed storage reads — so entries
// can be re-executed in isolation during the redo phase without any EVM
// runtime context.
//
// Layout. A TxLog is a few flat arrays it owns: the entries, one pool each for
// operands, memory-dependency runs and captured bytes, and a table of the
// state keys the transaction touched. An entry owns no heap memory: it
// addresses its slices of the pools by offset and count (PoolRange) and names
// its key by index. A log therefore costs one allocation per non-empty array,
// copies and moves by value, and holds no pointer into the builder that made
// it, so a Speculation record carrying one may cross threads and outlive the
// read phase.
//
// The definition-use graph (§5.2.5) is not stored. Every def edge names an
// earlier entry (ForEachDef), so the redo phase finds the entries reachable
// from its sources in one forward pass, and the printer derives the
// adjacency lists only when it prints them.
#ifndef SRC_CORE_OPLOG_H_
#define SRC_CORE_OPLOG_H_

#include <span>
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

// An operand value observed during the read phase and the entry that defined
// it (kNullLsn for a transaction constant).
struct Operand {
  U256 value;
  Lsn def = kNullLsn;
};

// A slice [begin, begin + size) of one of TxLog's pools.
struct PoolRange {
  uint32_t begin = 0;
  uint32_t size = 0;
};

// A state key the transaction touched, with its storage-flow records
// (§5.2.2). Each record is one LSN: the builder reuses a key's committed-read
// source, and only a key's first write can find the committed value as its
// prior value.
struct KeyRecord {
  StateKey key;
  // The type-I read of the committed value (a kCommittedRead source): what
  // the redo phase patches when the key conflicts.
  Lsn direct_read = kNullLsn;
  // The key's last write; the post-redo write set is rebuilt from these.
  Lsn latest_write = kNullLsn;
  // The SSTORE whose dynamic gas depends on the *committed* prior value
  // (prior_def == kNullLsn); rechecked when the key conflicts.
  Lsn committed_prior_sstore = kNullLsn;
};

// Marks an entry that names no state key.
inline constexpr int32_t kNoKey = -1;

struct OpLogEntry {
  // The operation's result; updated in place during redo.
  U256 result;
  // Gas-flow constraint data (§5.2.4): the dynamic gas charged at read-phase
  // time, re-derived and compared during redo. -1 = no gas constraint.
  int64_t dyn_gas = -1;
  Lsn lsn = kNullLsn;
  // For type-II SLOAD/balance reads: the defining in-transaction write.
  // kNullLsn marks a type-I committed read (§5.2.2).
  Lsn def_storage = kNullLsn;
  // For SSTORE gas recomputation: the in-transaction write this store
  // overwrote (kNullLsn -> it overwrote the committed value).
  Lsn prior_def = kNullLsn;
  // State key (index into TxLog::keys) for storage-ish ops
  // (SSTORE/kCommittedRead/kDebit/...); kNoKey otherwise.
  int32_t key = kNoKey;
  // Operands with their defining operations (TxLog::operands). Layout by op:
  //   pure ops:        stack operands (top first)
  //   kSload:          [slot]
  //   kSstore:         [slot, value]
  //   kMstore/8:       [offset, value]
  //   kDebit/kCredit:  [balance_before, amount]
  //   kNonceBump:      [nonce_before]
  //   kAssertEq:       [expected]
  //   kAssertGe:       [lhs, rhs]  (checks lhs >= rhs)
  PoolRange operands;
  // Byte-level provenance of the input bytes (TxLog::mem_deps; SHA3 / MLOAD /
  // CALLDATALOAD).
  PoolRange def_memory;
  // Captured input bytes for memory-consuming ops (TxLog::bytes); patched
  // during redo.
  PoolRange input_bytes;
  Opcode op = Opcode::kInvalid;
  // For memory-writing ops: how many bytes of `result` land in memory
  // (32 for MSTORE, 1 for MSTORE8); 0 otherwise.
  uint8_t result_width = 0;

  bool has_key() const { return key != kNoKey; }
};

// A transaction's complete SSA operation log plus the side tables the redo
// phase needs.
struct TxLog {
  std::vector<OpLogEntry> entries;
  // Pools the entries (and the return provenance) slice by PoolRange.
  std::vector<Operand> operands;
  std::vector<MemDep> mem_deps;
  Bytes bytes;
  // Every state key an entry names, each once. A transaction touches a
  // handful of keys, so lookups scan linearly.
  std::vector<KeyRecord> keys;
  // False when the transaction cannot be repaired at operation level (any
  // frame reverted/halted, a call was skipped, or the envelope was invalid);
  // such transactions fall back to full re-execution.
  bool redoable = true;

  // Return-output provenance (outermost frame only): the receipt's output
  // bytes as captured at read-phase time plus their byte-level provenance,
  // mirroring an entry's {input_bytes, def_memory}. A successful redo leaves
  // the defining entries' results updated in place, so PatchedReturnOutput
  // (redo.h) can rebuild a storage-dependent output (balanceOf, AMM
  // amount_out) without re-entering the EVM. A side table, not a log entry:
  // it adds nothing to size() or the def-use graph, so every oplog-derived
  // counter and the virtual makespan are unchanged.
  PoolRange return_bytes;  // TxLog::bytes
  PoolRange return_deps;   // TxLog::mem_deps
  bool has_return = false;

  size_t size() const { return entries.size(); }

  std::span<const Operand> Operands(const OpLogEntry& e) const {
    return std::span<const Operand>(operands).subspan(e.operands.begin, e.operands.size);
  }
  std::span<const MemDep> DefMemory(const OpLogEntry& e) const {
    return std::span<const MemDep>(mem_deps).subspan(e.def_memory.begin, e.def_memory.size);
  }
  BytesView InputBytes(const OpLogEntry& e) const {
    return BytesView(bytes).subspan(e.input_bytes.begin, e.input_bytes.size);
  }
  std::span<uint8_t> InputBytes(const OpLogEntry& e) {
    return std::span<uint8_t>(bytes).subspan(e.input_bytes.begin, e.input_bytes.size);
  }
  BytesView ReturnBytes() const {
    return BytesView(bytes).subspan(return_bytes.begin, return_bytes.size);
  }
  std::span<const MemDep> ReturnDeps() const {
    return std::span<const MemDep>(mem_deps).subspan(return_deps.begin, return_deps.size);
  }
  // The key of an entry with has_key().
  const StateKey& Key(const OpLogEntry& e) const { return keys[static_cast<size_t>(e.key)].key; }

  // The record of `key`, or nullptr when no entry names it.
  const KeyRecord* FindKey(const StateKey& key) const {
    for (const KeyRecord& record : keys) {
      if (record.key == key) {
        return &record;
      }
    }
    return nullptr;
  }
  Lsn DirectRead(const StateKey& key) const {
    const KeyRecord* record = FindKey(key);
    return record == nullptr ? kNullLsn : record->direct_read;
  }
  Lsn CommittedPriorSstore(const StateKey& key) const {
    const KeyRecord* record = FindKey(key);
    return record == nullptr ? kNullLsn : record->committed_prior_sstore;
  }

  // Calls fn(def) for every def edge of `entry` (each names an earlier
  // entry), in the order operand defs, def_storage, prior_def, def_memory.
  template <typename Fn>
  void ForEachDef(const OpLogEntry& entry, Fn&& fn) const {
    for (const Operand& operand : Operands(entry)) {
      if (operand.def != kNullLsn) {
        fn(operand.def);
      }
    }
    if (entry.def_storage != kNullLsn) {
      fn(entry.def_storage);
    }
    if (entry.prior_def != kNullLsn) {
      fn(entry.prior_def);
    }
    for (const MemDep& dep : DefMemory(entry)) {
      if (dep.lsn != kNullLsn) {
        fn(dep.lsn);
      }
    }
  }
};

}  // namespace pevm

#endif  // SRC_CORE_OPLOG_H_
