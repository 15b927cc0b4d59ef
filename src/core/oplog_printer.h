// Human-readable rendering of SSA operation logs (the paper's Figure 5).
#ifndef SRC_CORE_OPLOG_PRINTER_H_
#define SRC_CORE_OPLOG_PRINTER_H_

#include <string>

#include "src/core/oplog.h"

namespace pevm {

// One line per entry: LSN, opcode, operands with their definitions, result.
std::string FormatOpLogEntry(const TxLog& log, const OpLogEntry& entry);

// The whole log plus the definition-use edges, derived from the entries'
// defs: each entry's "uses:" lists the later entries reading its result.
std::string FormatOpLog(const TxLog& log);

}  // namespace pevm

#endif  // SRC_CORE_OPLOG_PRINTER_H_
