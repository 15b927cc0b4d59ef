#include "src/evm/opcode.h"

#include <array>

namespace pevm {
namespace {

// Gas constants (Istanbul-era schedule, flat costs — no EIP-2929 access
// lists; see DESIGN.md). Dynamic components live in the interpreter.
constexpr int32_t kGasZero = 0;
constexpr int32_t kGasBase = 2;
constexpr int32_t kGasVeryLow = 3;
constexpr int32_t kGasLow = 5;
constexpr int32_t kGasMid = 8;
constexpr int32_t kGasHigh = 10;
constexpr int32_t kGasBalance = 700;
constexpr int32_t kGasExt = 700;
constexpr int32_t kGasSload = 800;
constexpr int32_t kGasJumpdest = 1;
constexpr int32_t kGasSha3 = 30;
constexpr int32_t kGasBlockhash = 20;
constexpr int32_t kGasLog = 375;
constexpr int32_t kGasCallBase = 700;

struct Table {
  std::array<OpcodeTraits, 256> entries{};

  constexpr void Def(Opcode op, std::string_view name, int pops, int pushes, int32_t gas) {
    entries[static_cast<uint8_t>(op)] = {name, static_cast<int8_t>(pops),
                                         static_cast<int8_t>(pushes), gas, true};
  }
};

Table BuildTable() {
  Table t;
  t.Def(Opcode::kStop, "STOP", 0, 0, kGasZero);
  t.Def(Opcode::kAdd, "ADD", 2, 1, kGasVeryLow);
  t.Def(Opcode::kMul, "MUL", 2, 1, kGasLow);
  t.Def(Opcode::kSub, "SUB", 2, 1, kGasVeryLow);
  t.Def(Opcode::kDiv, "DIV", 2, 1, kGasLow);
  t.Def(Opcode::kSdiv, "SDIV", 2, 1, kGasLow);
  t.Def(Opcode::kMod, "MOD", 2, 1, kGasLow);
  t.Def(Opcode::kSmod, "SMOD", 2, 1, kGasLow);
  t.Def(Opcode::kAddmod, "ADDMOD", 3, 1, kGasMid);
  t.Def(Opcode::kMulmod, "MULMOD", 3, 1, kGasMid);
  t.Def(Opcode::kExp, "EXP", 2, 1, kGasHigh);  // + 50 per exponent byte.
  t.Def(Opcode::kSignextend, "SIGNEXTEND", 2, 1, kGasLow);
  t.Def(Opcode::kLt, "LT", 2, 1, kGasVeryLow);
  t.Def(Opcode::kGt, "GT", 2, 1, kGasVeryLow);
  t.Def(Opcode::kSlt, "SLT", 2, 1, kGasVeryLow);
  t.Def(Opcode::kSgt, "SGT", 2, 1, kGasVeryLow);
  t.Def(Opcode::kEq, "EQ", 2, 1, kGasVeryLow);
  t.Def(Opcode::kIszero, "ISZERO", 1, 1, kGasVeryLow);
  t.Def(Opcode::kAnd, "AND", 2, 1, kGasVeryLow);
  t.Def(Opcode::kOr, "OR", 2, 1, kGasVeryLow);
  t.Def(Opcode::kXor, "XOR", 2, 1, kGasVeryLow);
  t.Def(Opcode::kNot, "NOT", 1, 1, kGasVeryLow);
  t.Def(Opcode::kByte, "BYTE", 2, 1, kGasVeryLow);
  t.Def(Opcode::kShl, "SHL", 2, 1, kGasVeryLow);
  t.Def(Opcode::kShr, "SHR", 2, 1, kGasVeryLow);
  t.Def(Opcode::kSar, "SAR", 2, 1, kGasVeryLow);
  t.Def(Opcode::kSha3, "SHA3", 2, 1, kGasSha3);  // + 6 per word + memory.
  t.Def(Opcode::kAddress, "ADDRESS", 0, 1, kGasBase);
  t.Def(Opcode::kBalance, "BALANCE", 1, 1, kGasBalance);
  t.Def(Opcode::kOrigin, "ORIGIN", 0, 1, kGasBase);
  t.Def(Opcode::kCaller, "CALLER", 0, 1, kGasBase);
  t.Def(Opcode::kCallvalue, "CALLVALUE", 0, 1, kGasBase);
  t.Def(Opcode::kCalldataload, "CALLDATALOAD", 1, 1, kGasVeryLow);
  t.Def(Opcode::kCalldatasize, "CALLDATASIZE", 0, 1, kGasBase);
  t.Def(Opcode::kCalldatacopy, "CALLDATACOPY", 3, 0, kGasVeryLow);  // + copy + memory.
  t.Def(Opcode::kCodesize, "CODESIZE", 0, 1, kGasBase);
  t.Def(Opcode::kCodecopy, "CODECOPY", 3, 0, kGasVeryLow);  // + copy + memory.
  t.Def(Opcode::kGasprice, "GASPRICE", 0, 1, kGasBase);
  t.Def(Opcode::kExtcodesize, "EXTCODESIZE", 1, 1, kGasExt);
  t.Def(Opcode::kExtcodecopy, "EXTCODECOPY", 4, 0, kGasExt);
  t.Def(Opcode::kReturndatasize, "RETURNDATASIZE", 0, 1, kGasBase);
  t.Def(Opcode::kReturndatacopy, "RETURNDATACOPY", 3, 0, kGasVeryLow);
  t.Def(Opcode::kExtcodehash, "EXTCODEHASH", 1, 1, kGasExt);
  t.Def(Opcode::kBlockhash, "BLOCKHASH", 1, 1, kGasBlockhash);
  t.Def(Opcode::kCoinbase, "COINBASE", 0, 1, kGasBase);
  t.Def(Opcode::kTimestamp, "TIMESTAMP", 0, 1, kGasBase);
  t.Def(Opcode::kNumber, "NUMBER", 0, 1, kGasBase);
  t.Def(Opcode::kPrevrandao, "PREVRANDAO", 0, 1, kGasBase);
  t.Def(Opcode::kGaslimit, "GASLIMIT", 0, 1, kGasBase);
  t.Def(Opcode::kChainid, "CHAINID", 0, 1, kGasBase);
  t.Def(Opcode::kSelfbalance, "SELFBALANCE", 0, 1, kGasLow);
  t.Def(Opcode::kBasefee, "BASEFEE", 0, 1, kGasBase);
  t.Def(Opcode::kPop, "POP", 1, 0, kGasBase);
  t.Def(Opcode::kMload, "MLOAD", 1, 1, kGasVeryLow);
  t.Def(Opcode::kMstore, "MSTORE", 2, 0, kGasVeryLow);
  t.Def(Opcode::kMstore8, "MSTORE8", 2, 0, kGasVeryLow);
  t.Def(Opcode::kSload, "SLOAD", 1, 1, kGasSload);
  t.Def(Opcode::kSstore, "SSTORE", 2, 0, 0);  // Fully dynamic.
  t.Def(Opcode::kJump, "JUMP", 1, 0, kGasMid);
  t.Def(Opcode::kJumpi, "JUMPI", 2, 0, kGasHigh);
  t.Def(Opcode::kPc, "PC", 0, 1, kGasBase);
  t.Def(Opcode::kMsize, "MSIZE", 0, 1, kGasBase);
  t.Def(Opcode::kGas, "GAS", 0, 1, kGasBase);
  t.Def(Opcode::kJumpdest, "JUMPDEST", 0, 0, kGasJumpdest);
  for (int i = 0x5f; i <= 0x7f; ++i) {
    t.Def(static_cast<Opcode>(i), "PUSH", 0, 1, kGasVeryLow);
  }
  t.entries[0x5f].name = "PUSH0";
  for (int i = 0x80; i <= 0x8f; ++i) {
    int n = i - 0x7f;
    t.Def(static_cast<Opcode>(i), "DUP", static_cast<int8_t>(n), static_cast<int8_t>(n + 1),
          kGasVeryLow);
  }
  for (int i = 0x90; i <= 0x9f; ++i) {
    int n = i - 0x8f;
    t.Def(static_cast<Opcode>(i), "SWAP", static_cast<int8_t>(n + 1), static_cast<int8_t>(n + 1),
          kGasVeryLow);
  }
  for (int i = 0xa0; i <= 0xa4; ++i) {
    t.Def(static_cast<Opcode>(i), "LOG", static_cast<int8_t>(2 + (i - 0xa0)), 0,
          kGasLog);  // + 375/topic + 8/byte + memory.
  }
  t.Def(Opcode::kCall, "CALL", 7, 1, kGasCallBase);
  t.Def(Opcode::kReturn, "RETURN", 2, 0, kGasZero);
  t.Def(Opcode::kDelegatecall, "DELEGATECALL", 6, 1, kGasCallBase);
  t.Def(Opcode::kStaticcall, "STATICCALL", 6, 1, kGasCallBase);
  t.Def(Opcode::kRevert, "REVERT", 2, 0, kGasZero);
  t.Def(Opcode::kInvalid, "INVALID", 0, 0, kGasZero);
  // Pseudo-ops (log-only).
  t.Def(Opcode::kCommittedRead, "COMMITTED_READ", 0, 1, 0);
  t.Def(Opcode::kDebit, "DEBIT", 2, 1, 0);
  t.Def(Opcode::kCredit, "CREDIT", 2, 1, 0);
  t.Def(Opcode::kNonceBump, "NONCE_BUMP", 1, 1, 0);
  t.Def(Opcode::kAssertEq, "ASSERT_EQ", 1, 0, 0);
  t.Def(Opcode::kAssertGe, "ASSERT_GE", 2, 0, 0);
  return t;
}

const Table& GetTable() {
  static const Table table = BuildTable();
  return table;
}

}  // namespace

const OpcodeTraits& TraitsOf(Opcode op) { return GetTable().entries[static_cast<uint8_t>(op)]; }

std::string_view OpcodeName(Opcode op) {
  const OpcodeTraits& t = TraitsOf(op);
  return t.defined ? t.name : "UNDEFINED";
}

std::vector<bool> JumpdestBitmap(BytesView code) {
  std::vector<bool> bitmap(code.size(), false);
  for (size_t pc = 0; pc < code.size(); ++pc) {
    Opcode op = static_cast<Opcode>(code[pc]);
    if (op == Opcode::kJumpdest) {
      bitmap[pc] = true;
    } else if (IsPush(op)) {
      pc += static_cast<size_t>(PushSize(op));
    }
  }
  return bitmap;
}

}  // namespace pevm
