#include "src/core/redo.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "src/evm/eval.h"

namespace pevm {
namespace {

constexpr int64_t kExpByteGas = 50;
constexpr int64_t kSstoreSetGas = 20000;
constexpr int64_t kSstoreResetGas = 5000;

U256 Resolve(const TxLog& log, Lsn def, const U256& fallback) {
  return def == kNullLsn ? fallback : log.entries[static_cast<size_t>(def)].result;
}

// Patches `entry.input_bytes` from its memory dependencies' (possibly
// updated) results.
void PatchInputBytes(TxLog& log, OpLogEntry& entry) {
  for (const MemDep& dep : entry.def_memory) {
    Bytes src = log.entries[static_cast<size_t>(dep.lsn)].ResultBytes();
    for (uint32_t i = 0; i < dep.len; ++i) {
      size_t dst_idx = dep.start + i;
      size_t src_idx = dep.offset + i;
      if (dst_idx < entry.input_bytes.size() && src_idx < src.size()) {
        entry.input_bytes[dst_idx] = src[src_idx];
      }
    }
  }
}

// Re-executes one entry in place. Returns false on a constraint violation.
bool Reexecute(TxLog& log, OpLogEntry& entry,
               const std::function<U256(const StateKey&)>& committed) {
  switch (entry.op) {
    case Opcode::kAssertEq:
      return Resolve(log, entry.def_stack[0], entry.operands[0]) == entry.operands[0];
    case Opcode::kAssertGe:
      return Resolve(log, entry.def_stack[0], entry.operands[0]) >=
             Resolve(log, entry.def_stack[1], entry.operands[1]);
    case Opcode::kCommittedRead:
      return true;  // Sources are patched by the caller, never re-executed.
    case Opcode::kSload:
      // Type-II read: forwards the defining write's (updated) value.
      entry.result = Resolve(log, entry.def_storage, entry.result);
      return true;
    case Opcode::kSstore: {
      entry.result = Resolve(log, entry.def_stack[1], entry.operands[1]);
      // Gas-flow constraint: the dynamic cost must be unchanged (§5.2.4).
      U256 prior = entry.prior_def == kNullLsn
                       ? committed(entry.key)
                       : log.entries[static_cast<size_t>(entry.prior_def)].result;
      int64_t gas =
          (prior.IsZero() && !entry.result.IsZero()) ? kSstoreSetGas : kSstoreResetGas;
      return gas == entry.dyn_gas;
    }
    case Opcode::kMstore:
    case Opcode::kMstore8:
      entry.result = Resolve(log, entry.def_stack[1], entry.operands[1]);
      return true;
    case Opcode::kMload:
    case Opcode::kCalldataload:
      PatchInputBytes(log, entry);
      entry.result = U256::FromBigEndian(entry.input_bytes);
      return true;
    case Opcode::kSha3:
      PatchInputBytes(log, entry);
      entry.result = Keccak256Word(entry.input_bytes);
      return true;
    case Opcode::kDebit: {
      U256 balance = Resolve(log, entry.def_stack[0], entry.operands[0]);
      U256 amount = Resolve(log, entry.def_stack[1], entry.operands[1]);
      entry.result = balance - amount;
      return true;
    }
    case Opcode::kCredit: {
      U256 balance = Resolve(log, entry.def_stack[0], entry.operands[0]);
      U256 amount = Resolve(log, entry.def_stack[1], entry.operands[1]);
      entry.result = balance + amount;
      return true;
    }
    case Opcode::kNonceBump:
      entry.result = Resolve(log, entry.def_stack[0], entry.operands[0]) + U256(1);
      return true;
    default: {
      if (!IsPureOp(entry.op)) {
        return false;  // Unknown entry kind: give up safely.
      }
      std::vector<U256> inputs(entry.operands.size());
      for (size_t i = 0; i < inputs.size(); ++i) {
        inputs[i] = Resolve(log, entry.def_stack[i], entry.operands[i]);
      }
      entry.result = EvalPure(entry.op, inputs);
      if (entry.op == Opcode::kExp && entry.dyn_gas >= 0) {
        // Gas-flow constraint: EXP's cost tracks the exponent width.
        if (kExpByteGas * inputs[1].ByteLength() != entry.dyn_gas) {
          return false;
        }
      }
      return true;
    }
  }
}

}  // namespace

Bytes PatchedReturnOutput(const TxLog& log) {
  Bytes out = log.return_bytes;
  for (const MemDep& dep : log.return_deps) {
    Bytes src = log.entries[static_cast<size_t>(dep.lsn)].ResultBytes();
    for (uint32_t i = 0; i < dep.len; ++i) {
      size_t dst_idx = dep.start + i;
      size_t src_idx = dep.offset + i;
      if (dst_idx < out.size() && src_idx < src.size()) {
        out[dst_idx] = src[src_idx];
      }
    }
  }
  return out;
}

WriteSet WriteSetFromLog(const TxLog& log) {
  WriteSet writes;
  writes.reserve(log.latest_writes.size());
  for (const auto& [key, lsn] : log.latest_writes) {
    writes[key] = log.entries[static_cast<size_t>(lsn)].result;
  }
  return writes;
}

RedoResult RunRedo(TxLog& log, const ConflictMap& conflicts,
                   const std::function<U256(const StateKey&)>& committed) {
  RedoResult result;
  if (!log.redoable) {
    return result;
  }

  // Lines 2-5: find the type-I reads of conflicting keys and patch their
  // results with the freshly committed values. A conflicting key with no
  // source entry cannot be repaired.
  std::vector<Lsn> sources;
  for (const auto& [key, value] : conflicts) {
    auto it = log.direct_reads.find(key);
    if (it == log.direct_reads.end()) {
      // The stale read fed no log entry. This is only safe when the key is
      // covered by an SSTORE gas recheck below (a pure gas-probe read);
      // otherwise give up.
      if (!log.committed_prior_sstores.contains(key)) {
        return result;
      }
      continue;
    }
    for (Lsn lsn : it->second) {
      log.entries[static_cast<size_t>(lsn)].result = value;
      sources.push_back(lsn);
    }
  }

  // Gas-flow recheck for first-writes whose dynamic cost sampled a committed
  // value that has now changed.
  for (const auto& [key, value] : conflicts) {
    auto it = log.committed_prior_sstores.find(key);
    if (it == log.committed_prior_sstores.end()) {
      continue;
    }
    for (Lsn lsn : it->second) {
      const OpLogEntry& store = log.entries[static_cast<size_t>(lsn)];
      int64_t gas =
          (value.IsZero() && !store.result.IsZero()) ? kSstoreSetGas : kSstoreResetGas;
      if (gas != store.dyn_gas) {
        return result;  // The transaction's total gas would change: abort.
      }
    }
  }

  // Line 6: DFS over the definition-use graph.
  std::vector<bool> visited(log.entries.size(), false);
  std::vector<Lsn> stack = sources;
  std::vector<Lsn> order;
  for (Lsn s : sources) {
    visited[static_cast<size_t>(s)] = true;
  }
  while (!stack.empty()) {
    Lsn cur = stack.back();
    stack.pop_back();
    order.push_back(cur);
    for (Lsn use : log.dug[static_cast<size_t>(cur)]) {
      if (!visited[static_cast<size_t>(use)]) {
        visited[static_cast<size_t>(use)] = true;
        stack.push_back(use);
      }
    }
  }
  result.dfs_visited = order.size();

  // Lines 7-16: re-execute the conflicting operations (excluding the patched
  // sources) in log order so defs precede uses.
  std::sort(order.begin(), order.end());
  std::vector<bool> is_source(log.entries.size(), false);
  for (Lsn s : sources) {
    is_source[static_cast<size_t>(s)] = true;
  }
  for (Lsn lsn : order) {
    if (is_source[static_cast<size_t>(lsn)]) {
      continue;
    }
    OpLogEntry& entry = log.entries[static_cast<size_t>(lsn)];
    if (!Reexecute(log, entry, committed)) {
      return result;  // Guard violated (line 11).
    }
    ++result.reexecuted;
  }

  result.success = true;
  result.write_set = WriteSetFromLog(log);
  return result;
}

}  // namespace pevm
