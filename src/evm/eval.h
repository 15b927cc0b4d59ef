// Pure evaluation of data-flow opcodes: result = f(operands), no runtime
// context. Shared by the interpreter's dispatch loop and the redo phase's
// operation re-execution (paper §5.3 line 14) so both necessarily agree.
#ifndef SRC_EVM_EVAL_H_
#define SRC_EVM_EVAL_H_

#include <span>

#include "src/evm/opcode.h"
#include "src/support/u256.h"

namespace pevm {

// Evaluates a pure opcode (IsPureOp(op) must hold). Operand order matches
// stack order: operands[0] is the top of the stack.
U256 EvalPure(Opcode op, std::span<const U256> operands);

}  // namespace pevm

#endif  // SRC_EVM_EVAL_H_
