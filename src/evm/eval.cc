#include "src/evm/eval.h"

#include <cassert>

namespace pevm {

U256 EvalPure(Opcode op, std::span<const U256> operands) {
  const U256& a = operands[0];
  switch (op) {
    case Opcode::kAdd:
      return a + operands[1];
    case Opcode::kMul:
      return a * operands[1];
    case Opcode::kSub:
      return a - operands[1];
    case Opcode::kDiv:
      return U256::Div(a, operands[1]);
    case Opcode::kSdiv:
      return U256::SDiv(a, operands[1]);
    case Opcode::kMod:
      return U256::Mod(a, operands[1]);
    case Opcode::kSmod:
      return U256::SMod(a, operands[1]);
    case Opcode::kAddmod:
      return U256::AddMod(a, operands[1], operands[2]);
    case Opcode::kMulmod:
      return U256::MulMod(a, operands[1], operands[2]);
    case Opcode::kExp:
      return U256::Exp(a, operands[1]);
    case Opcode::kSignextend:
      return U256::SignExtend(a, operands[1]);
    case Opcode::kLt:
      return U256(a < operands[1] ? 1 : 0);
    case Opcode::kGt:
      return U256(a > operands[1] ? 1 : 0);
    case Opcode::kSlt:
      return U256(U256::SLt(a, operands[1]) ? 1 : 0);
    case Opcode::kSgt:
      return U256(U256::SLt(operands[1], a) ? 1 : 0);
    case Opcode::kEq:
      return U256(a == operands[1] ? 1 : 0);
    case Opcode::kIszero:
      return U256(a.IsZero() ? 1 : 0);
    case Opcode::kAnd:
      return a & operands[1];
    case Opcode::kOr:
      return a | operands[1];
    case Opcode::kXor:
      return a ^ operands[1];
    case Opcode::kNot:
      return ~a;
    case Opcode::kByte:
      return U256::Byte(a, operands[1]);
    case Opcode::kShl:
      return U256::Shl(a, operands[1]);
    case Opcode::kShr:
      return U256::Shr(a, operands[1]);
    case Opcode::kSar:
      return U256::Sar(a, operands[1]);
    default:
      assert(false && "EvalPure called with a non-pure opcode");
      return U256{};
  }
}

}  // namespace pevm
