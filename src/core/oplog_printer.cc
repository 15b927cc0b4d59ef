#include "src/core/oplog_printer.h"

#include <sstream>

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
  (void)log;
  std::ostringstream out;
  out << "L" << entry.lsn << ": " << OpcodeName(entry.op);
  if (entry.has_key) {
    out << " [" << entry.key.ToString() << "]";
  }
  out << " (";
  for (size_t i = 0; i < entry.operands.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << Short(entry.operands[i]);
    if (i < entry.def_stack.size() && entry.def_stack[i] != kNullLsn) {
      out << "<-L" << entry.def_stack[i];
    }
  }
  out << ")";
  if (entry.def_storage != kNullLsn) {
    out << " def.storage=L" << entry.def_storage;
  }
  for (const MemDep& dep : entry.def_memory) {
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
  std::ostringstream out;
  for (const OpLogEntry& entry : log.entries) {
    out << FormatOpLogEntry(log, entry);
    const std::vector<Lsn>& uses = log.dug[static_cast<size_t>(entry.lsn)];
    if (!uses.empty()) {
      out << "   uses:";
      for (Lsn use : uses) {
        out << " L" << use;
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
