// Execution-trace hooks. The interpreter narrates every stack effect,
// storage/memory access, control-flow decision and frame transition through
// this interface; core::SsaBuilder implements it to construct the SSA
// operation log (paper §5.2) without the interpreter knowing anything about
// SSA. All operand spans list the popped values top-of-stack first.
//
// The transaction envelope (nonce bump, fee debit, value transfer, refund) is
// narrated by exec::ApplyTransaction through the OnTx* events so ether and
// nonce accesses participate in operation-level conflict resolution exactly
// like SLOAD/SSTORE.
#ifndef SRC_EVM_TRACER_H_
#define SRC_EVM_TRACER_H_

#include <span>

#include "src/evm/evm_types.h"
#include "src/evm/opcode.h"
#include "src/support/bytes.h"
#include "src/support/u256.h"

namespace pevm {

// Source of a bulk memory write.
enum class CopySource : uint8_t { kCalldata, kCode, kReturndata };

class Tracer {
 public:
  virtual ~Tracer() = default;

  // --- Frame lifecycle. Fired for the outermost frame as well. ---
  virtual void OnFrameEnter(const Message& msg) { (void)msg; }
  // `out_off`/`output` describe the RETURN/REVERT payload within the exiting
  // frame's memory (empty for STOP / exceptional halts).
  virtual void OnFrameExit(EvmStatus status, uint64_t out_off, BytesView output) {
    (void)status;
    (void)out_off;
    (void)output;
  }

  // --- Pure stack shape (shadow-stack mirroring). ---
  virtual void OnPush() {}      // A tx-constant was pushed (PUSH*, env reads).
  // CALLVALUE pushed msg.value — distinct from OnPush because an inner
  // frame's value may be derived from caller data (the CALL value operand).
  virtual void OnCallValue() { OnPush(); }
  virtual void OnPop() {}       // POP.
  virtual void OnDup(int n) { (void)n; }
  virtual void OnSwap(int n) { (void)n; }

  // A data-flow op: popped `operands`, pushed `result` (IsPureOp(op) holds).
  virtual void OnPureOp(Opcode op, std::span<const U256> operands, const U256& result) {
    (void)op;
    (void)operands;
    (void)result;
  }

  // An op whose result is constant for this transaction given unchanged
  // operands: EXTCODESIZE, BLOCKHASH, LOG*, … Popped `operands`, pushed
  // `pushes` constants.
  virtual void OnOpaqueOp(Opcode op, std::span<const U256> operands, int pushes) {
    (void)op;
    (void)operands;
    (void)pushes;
  }

  // CALLDATALOAD: reads calldata[offset, offset+32). Distinct from OnOpaqueOp
  // because calldata carries byte provenance in inner frames.
  virtual void OnCalldataLoad(const U256& offset, const U256& result) {
    (void)offset;
    (void)result;
  }

  // --- Storage. `address` is the storage context (DELEGATECALL-aware). ---
  virtual void OnSload(const Address& address, const U256& slot, const U256& value) {
    (void)address;
    (void)slot;
    (void)value;
  }
  virtual void OnSstore(const Address& address, const U256& slot, const U256& value,
                        int64_t dynamic_gas) {
    (void)address;
    (void)slot;
    (void)value;
    (void)dynamic_gas;
  }

  // --- Balance-observing reads (BALANCE pops an address operand;
  // SELFBALANCE pops none and passes has_operand = false). ---
  virtual void OnBalanceRead(Opcode op, const Address& address, const U256& value,
                             bool has_operand) {
    (void)op;
    (void)address;
    (void)value;
    (void)has_operand;
  }

  // --- Memory. ---
  virtual void OnMload(const U256& offset, BytesView word) {
    (void)offset;
    (void)word;
  }
  virtual void OnMstore(Opcode op, const U256& offset, const U256& value) {
    (void)op;
    (void)offset;
    (void)value;
  }
  // Bulk copy into memory (CALLDATACOPY / CODECOPY / RETURNDATACOPY /
  // EXTCODECOPY — the latter maps to kCode with 4 popped operands).
  virtual void OnMemCopy(CopySource source, std::span<const U256> operands, uint64_t dst,
                         uint64_t src, uint64_t len) {
    (void)source;
    (void)operands;
    (void)dst;
    (void)src;
    (void)len;
  }
  virtual void OnSha3(std::span<const U256> operands, BytesView data, const U256& result) {
    (void)operands;
    (void)data;
    (void)result;
  }

  // --- Control flow (constraint-guard sources, §5.2.4). ---
  virtual void OnJump(const U256& dest) { (void)dest; }
  virtual void OnJumpi(const U256& dest, const U256& condition) {
    (void)dest;
    (void)condition;
  }

  // --- Message calls. `operands` are the raw popped CALL operands (7 for
  // CALL, 6 for DELEGATECALL/STATICCALL). A matching OnFrameEnter/OnFrameExit
  // pair follows unless the call was skipped (depth/balance), in which case
  // OnCallSkipped fires instead. OnCallDone always fires last, after the
  // interpreter wrote returndata[0, ret_len) to caller memory at ret_dst and
  // pushed the success flag. ---
  virtual void OnCall(Opcode op, std::span<const U256> operands, const Message& callee_msg) {
    (void)op;
    (void)operands;
    (void)callee_msg;
  }
  virtual void OnCallSkipped(EvmStatus reason) { (void)reason; }
  virtual void OnCallDone(uint64_t ret_dst, uint64_t ret_len, bool success) {
    (void)ret_dst;
    (void)ret_len;
    (void)success;
  }

  // Value transfer executed as part of a CALL (fires between OnCall and the
  // callee's OnFrameEnter). The amount always equals CALL operand #2.
  virtual void OnValueTransfer(const Address& from, const U256& from_balance_before,
                               const Address& to, const U256& to_balance_before,
                               const U256& amount) {
    (void)from;
    (void)from_balance_before;
    (void)to;
    (void)to_balance_before;
    (void)amount;
  }

  // --- Transaction envelope (fired by exec::ApplyTransaction). Amounts are
  // transaction constants; the balance/nonce values read participate in
  // def-use chains. `minimum` on the debit is the AssertGe bound (upfront
  // balance check). ---
  virtual void OnTxNonceCheck(const Address& sender, uint64_t observed, uint64_t expected) {
    (void)sender;
    (void)observed;
    (void)expected;
  }
  virtual void OnTxDebit(const Address& addr, const U256& balance_before, const U256& amount,
                         const U256& minimum) {
    (void)addr;
    (void)balance_before;
    (void)amount;
    (void)minimum;
  }
  virtual void OnTxCredit(const Address& addr, const U256& balance_before, const U256& amount) {
    (void)addr;
    (void)balance_before;
    (void)amount;
  }
};

}  // namespace pevm

#endif  // SRC_EVM_TRACER_H_
