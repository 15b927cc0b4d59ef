#include "src/core/redo.h"

#include <array>
#include <vector>

#include "src/evm/eval.h"

namespace pevm {
namespace {

constexpr int64_t kExpByteGas = 50;
constexpr int64_t kSstoreSetGas = 20000;
constexpr int64_t kSstoreResetGas = 5000;

// Largest stack arity of a pure op (ADDMOD, MULMOD).
constexpr size_t kMaxPureOperands = 3;

// Redo's reachability mark per entry.
enum Mark : uint8_t { kUnreached = 0, kReached = 1, kSource = 2 };

U256 Resolve(const TxLog& log, Lsn def, const U256& fallback) {
  return def == kNullLsn ? fallback : log.entries[static_cast<size_t>(def)].result;
}

U256 Resolve(const TxLog& log, const Operand& operand) {
  return Resolve(log, operand.def, operand.value);
}

// Copies each dependency run from its defining entry's current result into
// `dst`. An entry contributes its low byte (MSTORE8) or its whole big-endian
// word to memory and returndata.
void PatchBytes(const TxLog& log, std::span<const MemDep> deps, std::span<uint8_t> dst) {
  for (const MemDep& dep : deps) {
    const OpLogEntry& def = log.entries[static_cast<size_t>(dep.lsn)];
    std::array<uint8_t, 32> be = def.result.ToBigEndian();
    BytesView src = def.result_width == 1 ? BytesView(be).last(1) : BytesView(be);
    for (uint32_t i = 0; i < dep.len; ++i) {
      size_t dst_idx = dep.start + i;
      size_t src_idx = dep.offset + i;
      if (dst_idx < dst.size() && src_idx < src.size()) {
        dst[dst_idx] = src[src_idx];
      }
    }
  }
}

// Re-executes one entry in place. Returns false on a constraint violation.
bool Reexecute(TxLog& log, OpLogEntry& entry,
               const std::function<U256(const StateKey&)>& committed) {
  std::span<const Operand> operands = log.Operands(entry);
  switch (entry.op) {
    case Opcode::kAssertEq:
      return Resolve(log, operands[0]) == operands[0].value;
    case Opcode::kAssertGe:
      return Resolve(log, operands[0]) >= Resolve(log, operands[1]);
    case Opcode::kCommittedRead:
      return true;  // Sources are patched by the caller, never re-executed.
    case Opcode::kSload:
      // Type-II read: forwards the defining write's (updated) value.
      entry.result = Resolve(log, entry.def_storage, entry.result);
      return true;
    case Opcode::kSstore: {
      entry.result = Resolve(log, operands[1]);
      // Gas-flow constraint: the dynamic cost must be unchanged (§5.2.4).
      U256 prior = entry.prior_def == kNullLsn
                       ? committed(log.Key(entry))
                       : log.entries[static_cast<size_t>(entry.prior_def)].result;
      int64_t gas =
          (prior.IsZero() && !entry.result.IsZero()) ? kSstoreSetGas : kSstoreResetGas;
      return gas == entry.dyn_gas;
    }
    case Opcode::kMstore:
    case Opcode::kMstore8:
      entry.result = Resolve(log, operands[1]);
      return true;
    case Opcode::kMload:
    case Opcode::kCalldataload: {
      std::span<uint8_t> input = log.InputBytes(entry);
      PatchBytes(log, log.DefMemory(entry), input);
      entry.result = U256::FromBigEndian(input);
      return true;
    }
    case Opcode::kSha3: {
      std::span<uint8_t> input = log.InputBytes(entry);
      PatchBytes(log, log.DefMemory(entry), input);
      entry.result = Keccak256Word(input);
      return true;
    }
    case Opcode::kDebit:
      entry.result = Resolve(log, operands[0]) - Resolve(log, operands[1]);
      return true;
    case Opcode::kCredit:
      entry.result = Resolve(log, operands[0]) + Resolve(log, operands[1]);
      return true;
    case Opcode::kNonceBump:
      entry.result = Resolve(log, operands[0]) + U256(1);
      return true;
    default: {
      if (!IsPureOp(entry.op) || operands.size() > kMaxPureOperands) {
        return false;  // Unknown entry kind: give up safely.
      }
      std::array<U256, kMaxPureOperands> inputs;
      for (size_t i = 0; i < operands.size(); ++i) {
        inputs[i] = Resolve(log, operands[i]);
      }
      entry.result = EvalPure(entry.op, std::span<const U256>(inputs.data(), operands.size()));
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
  BytesView captured = log.ReturnBytes();
  Bytes out(captured.begin(), captured.end());
  PatchBytes(log, log.ReturnDeps(), out);
  return out;
}

WriteSet WriteSetFromLog(const TxLog& log) {
  WriteSet writes;
  writes.reserve(log.keys.size());
  for (const KeyRecord& record : log.keys) {
    if (record.latest_write != kNullLsn) {
      writes[record.key] = log.entries[static_cast<size_t>(record.latest_write)].result;
    }
  }
  return writes;
}

RedoResult RunRedo(TxLog& log, const ConflictMap& conflicts,
                   const std::function<U256(const StateKey&)>& committed) {
  RedoResult result;
  if (!log.redoable) {
    return result;
  }
  // One mark per entry, in a buffer the calling thread reuses.
  thread_local std::vector<uint8_t> marks;
  marks.assign(log.size(), kUnreached);

  // Lines 2-5: find the type-I reads of conflicting keys and patch their
  // results with the freshly committed values. A conflicting key with no
  // source entry cannot be repaired.
  for (const auto& [key, value] : conflicts) {
    Lsn source = log.DirectRead(key);
    if (source == kNullLsn) {
      // The stale read fed no log entry. This is only safe when the key is
      // covered by an SSTORE gas recheck below (a pure gas-probe read);
      // otherwise give up.
      if (log.CommittedPriorSstore(key) == kNullLsn) {
        return result;
      }
      continue;
    }
    log.entries[static_cast<size_t>(source)].result = value;
    marks[static_cast<size_t>(source)] = kSource;
  }

  // Gas-flow recheck for first-writes whose dynamic cost sampled a committed
  // value that has now changed.
  for (const auto& [key, value] : conflicts) {
    Lsn lsn = log.CommittedPriorSstore(key);
    if (lsn == kNullLsn) {
      continue;
    }
    const OpLogEntry& store = log.entries[static_cast<size_t>(lsn)];
    int64_t gas = (value.IsZero() && !store.result.IsZero()) ? kSstoreSetGas : kSstoreResetGas;
    if (gas != store.dyn_gas) {
      return result;  // The transaction's total gas would change: abort.
    }
  }

  // Line 6: the entries the definition-use graph reaches from the sources.
  // Every def edge names an earlier entry, so one pass in log order marks
  // exactly the set the paper's DFS visits.
  for (const OpLogEntry& entry : log.entries) {
    uint8_t& mark = marks[static_cast<size_t>(entry.lsn)];
    if (mark == kUnreached) {
      log.ForEachDef(entry, [&](Lsn def) {
        if (marks[static_cast<size_t>(def)] != kUnreached) {
          mark = kReached;
        }
      });
    }
    if (mark != kUnreached) {
      ++result.dfs_visited;
    }
  }

  // Lines 7-16: re-execute the conflicting operations (excluding the patched
  // sources) in log order so defs precede uses.
  for (OpLogEntry& entry : log.entries) {
    if (marks[static_cast<size_t>(entry.lsn)] != kReached) {
      continue;
    }
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
