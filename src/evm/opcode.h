// EVM opcode definitions and static traits (stack arity, constant gas).
// Covers the Shanghai-era opcode set minus CREATE*/SELFDESTRUCT/precompiles,
// which no workload in this reproduction uses (see DESIGN.md §3.4).
#ifndef SRC_EVM_OPCODE_H_
#define SRC_EVM_OPCODE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/support/bytes.h"

namespace pevm {

enum class Opcode : uint8_t {
  kStop = 0x00,
  kAdd = 0x01,
  kMul = 0x02,
  kSub = 0x03,
  kDiv = 0x04,
  kSdiv = 0x05,
  kMod = 0x06,
  kSmod = 0x07,
  kAddmod = 0x08,
  kMulmod = 0x09,
  kExp = 0x0a,
  kSignextend = 0x0b,

  kLt = 0x10,
  kGt = 0x11,
  kSlt = 0x12,
  kSgt = 0x13,
  kEq = 0x14,
  kIszero = 0x15,
  kAnd = 0x16,
  kOr = 0x17,
  kXor = 0x18,
  kNot = 0x19,
  kByte = 0x1a,
  kShl = 0x1b,
  kShr = 0x1c,
  kSar = 0x1d,

  kSha3 = 0x20,

  kAddress = 0x30,
  kBalance = 0x31,
  kOrigin = 0x32,
  kCaller = 0x33,
  kCallvalue = 0x34,
  kCalldataload = 0x35,
  kCalldatasize = 0x36,
  kCalldatacopy = 0x37,
  kCodesize = 0x38,
  kCodecopy = 0x39,
  kGasprice = 0x3a,
  kExtcodesize = 0x3b,
  kExtcodecopy = 0x3c,
  kReturndatasize = 0x3d,
  kReturndatacopy = 0x3e,
  kExtcodehash = 0x3f,

  kBlockhash = 0x40,
  kCoinbase = 0x41,
  kTimestamp = 0x42,
  kNumber = 0x43,
  kPrevrandao = 0x44,
  kGaslimit = 0x45,
  kChainid = 0x46,
  kSelfbalance = 0x47,
  kBasefee = 0x48,

  kPop = 0x50,
  kMload = 0x51,
  kMstore = 0x52,
  kMstore8 = 0x53,
  kSload = 0x54,
  kSstore = 0x55,
  kJump = 0x56,
  kJumpi = 0x57,
  kPc = 0x58,
  kMsize = 0x59,
  kGas = 0x5a,
  kJumpdest = 0x5b,

  kPush0 = 0x5f,
  kPush1 = 0x60,
  // ... kPush2..kPush31 ...
  kPush32 = 0x7f,
  kDup1 = 0x80,
  kDup2 = 0x81,
  kDup3 = 0x82,
  kDup4 = 0x83,
  kDup5 = 0x84,
  kDup6 = 0x85,
  kDup7 = 0x86,
  kDup8 = 0x87,
  kDup16 = 0x8f,
  kSwap1 = 0x90,
  kSwap2 = 0x91,
  kSwap3 = 0x92,
  kSwap4 = 0x93,
  kSwap16 = 0x9f,
  kLog0 = 0xa0,
  kLog1 = 0xa1,
  kLog2 = 0xa2,
  kLog3 = 0xa3,
  kLog4 = 0xa4,

  kCall = 0xf1,
  kReturn = 0xf3,
  kDelegatecall = 0xf4,
  kStaticcall = 0xfa,
  kRevert = 0xfd,
  kInvalid = 0xfe,

  // --- Pseudo-opcodes that only appear in SSA operation logs, never in
  // bytecode. They model the transaction envelope and constraint guards
  // (paper §5.2.4) in the same operation vocabulary as real instructions.
  kCommittedRead = 0xe0,  // Committed-state read (SLOAD type I / BALANCE / nonce).
  kDebit = 0xe1,          // balance -= amount
  kCredit = 0xe2,         // balance += amount
  kNonceBump = 0xe3,      // nonce += 1
  kAssertEq = 0xe8,       // Constraint guard: value must equal def's result.
  kAssertGe = 0xe9,       // Constraint guard: def's result must be >= bound.
};

constexpr bool IsPush(Opcode op) {
  return static_cast<uint8_t>(op) >= 0x5f && static_cast<uint8_t>(op) <= 0x7f;
}
constexpr bool IsDup(Opcode op) {
  return static_cast<uint8_t>(op) >= 0x80 && static_cast<uint8_t>(op) <= 0x8f;
}
constexpr bool IsSwap(Opcode op) {
  return static_cast<uint8_t>(op) >= 0x90 && static_cast<uint8_t>(op) <= 0x9f;
}
constexpr bool IsLog(Opcode op) {
  return static_cast<uint8_t>(op) >= 0xa0 && static_cast<uint8_t>(op) <= 0xa4;
}

// Number of immediate bytes following a PUSH opcode (0 for PUSH0).
constexpr int PushSize(Opcode op) { return static_cast<int>(static_cast<uint8_t>(op)) - 0x5f; }
// DUPn / SWAPn index (1-based).
constexpr int DupIndex(Opcode op) { return static_cast<int>(static_cast<uint8_t>(op)) - 0x7f; }
constexpr int SwapIndex(Opcode op) { return static_cast<int>(static_cast<uint8_t>(op)) - 0x8f; }
constexpr int LogTopics(Opcode op) { return static_cast<int>(static_cast<uint8_t>(op)) - 0xa0; }

// True for opcodes whose result is a pure function of their stack operands
// (the class EvalPure handles; also the class the SSA log can re-execute
// without any runtime context).
constexpr bool IsPureOp(Opcode op) {
  uint8_t v = static_cast<uint8_t>(op);
  return (v >= 0x01 && v <= 0x0b) || (v >= 0x10 && v <= 0x1d);
}

struct OpcodeTraits {
  std::string_view name;
  int8_t stack_pops = 0;    // Operands consumed.
  int8_t stack_pushes = 0;  // Results produced.
  int32_t const_gas = 0;    // Constant gas component.
  bool defined = false;
};

// Static trait lookup; undefined opcodes report defined == false.
const OpcodeTraits& TraitsOf(Opcode op);

std::string_view OpcodeName(Opcode op);

// Valid jump targets of `code`: bitmap[pc] is true when a JUMPDEST opcode
// (not PUSH immediate data) sits at pc. The one scan behind both the code
// cache's analysis and the interpreter's provider-less path.
std::vector<bool> JumpdestBitmap(BytesView code);

}  // namespace pevm

#endif  // SRC_EVM_OPCODE_H_
