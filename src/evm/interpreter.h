// A from-scratch EVM bytecode interpreter (yellow-paper semantics for the
// opcode subset in src/evm/opcode.h): 1024-entry word stack, byte-addressable
// expanding memory, gas metering with dynamic costs, nested message calls
// with revert semantics, and a Tracer narration channel rich enough to build
// SSA operation logs.
#ifndef SRC_EVM_INTERPRETER_H_
#define SRC_EVM_INTERPRETER_H_

#include <vector>

#include "src/codecache/program.h"
#include "src/evm/evm_types.h"
#include "src/evm/host.h"
#include "src/evm/tracer.h"

namespace pevm {

inline constexpr int kMaxCallDepth = 1024;
inline constexpr size_t kMaxStack = 1024;

class Interpreter {
 public:
  // `tracer` and `provider` may be null. All references must outlive the
  // interpreter. With a provider, frames look JUMPDESTs up in the cached
  // per-code-hash bitmap; without one every frame scans its code on its
  // first jump — identical results either way.
  Interpreter(Host& host, const BlockContext& block, const TxContext& tx,
              Tracer* tracer = nullptr, CodeProvider* provider = nullptr)
      : host_(&host), block_(&block), tx_(&tx), tracer_(tracer), provider_(provider) {}

  // Executes a message call against the host. Exceptional halts consume all
  // frame gas; kRevert returns remaining gas and the revert payload.
  EvmResult Execute(const Message& msg);

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats{}; }

 private:
  struct Frame;

  EvmResult RunFrame(const Message& msg, const Bytes& code);
  // Handles CALL/DELEGATECALL/STATICCALL inside `frame`; returns false on an
  // exceptional halt of the *caller* frame (bad operands / OOG).
  bool DoCall(Frame& frame, Opcode op);

  const std::vector<bool>& Jumpdests(Frame& frame);

  Host* host_;
  const BlockContext* block_;
  const TxContext* tx_;
  Tracer* tracer_;
  CodeProvider* provider_;
  ExecStats stats_;
};

}  // namespace pevm

#endif  // SRC_EVM_INTERPRETER_H_
