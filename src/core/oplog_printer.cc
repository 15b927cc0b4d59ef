#include "src/core/oplog_printer.h"

#include <sstream>
#include <vector>

namespace pevm {
namespace {

std::string Short(const U256& v) {
  std::string hex = v.ToHexString();
  if (hex.size() > 14) {
    return hex.substr(0, 8) + ".." + hex.substr(hex.size() - 4);
  }
  return hex;
}

}  // namespace

std::string FormatOpLogEntry(const TxLog& log, const OpLogEntry& entry) {
  std::ostringstream out;
  out << "L" << entry.lsn << ": " << OpcodeName(entry.op);
  if (entry.has_key()) {
    out << " [" << log.Key(entry).ToString() << "]";
  }
  out << " (";
  std::span<const Operand> operands = log.Operands(entry);
  for (size_t i = 0; i < operands.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << Short(operands[i].value);
    if (operands[i].def != kNullLsn) {
      out << "<-L" << operands[i].def;
    }
  }
  out << ")";
  if (entry.def_storage != kNullLsn) {
    out << " def.storage=L" << entry.def_storage;
  }
  for (const MemDep& dep : log.DefMemory(entry)) {
    out << " def.mem[" << dep.start << ":" << dep.start + dep.len << ")=L" << dep.lsn << "+"
        << dep.offset;
  }
  if (entry.op != Opcode::kAssertEq && entry.op != Opcode::kAssertGe) {
    out << " -> " << Short(entry.result);
  }
  if (entry.dyn_gas >= 0) {
    out << " {gas=" << entry.dyn_gas << "}";
  }
  return out.str();
}

std::string FormatOpLog(const TxLog& log) {
  // The definition-use graph (§5.2.5) as an adjacency array: the uses of
  // entry d are uses[offsets[d], offsets[d + 1]), in log order.
  std::vector<uint32_t> offsets(log.size() + 1, 0);
  for (const OpLogEntry& entry : log.entries) {
    log.ForEachDef(entry, [&](Lsn def) { ++offsets[static_cast<size_t>(def) + 1]; });
  }
  for (size_t d = 0; d < log.size(); ++d) {
    offsets[d + 1] += offsets[d];
  }
  std::vector<Lsn> uses(offsets.back());
  std::vector<uint32_t> next(offsets.begin(), offsets.end() - 1);
  for (const OpLogEntry& entry : log.entries) {
    log.ForEachDef(entry, [&](Lsn def) { uses[next[static_cast<size_t>(def)]++] = entry.lsn; });
  }

  std::ostringstream out;
  for (const OpLogEntry& entry : log.entries) {
    out << FormatOpLogEntry(log, entry);
    size_t d = static_cast<size_t>(entry.lsn);
    if (offsets[d] != offsets[d + 1]) {
      out << "   uses:";
      for (uint32_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        out << " L" << uses[i];
      }
    }
    out << "\n";
  }
  if (!log.redoable) {
    out << "(transaction is not redoable)\n";
  }
  return out.str();
}

}  // namespace pevm
