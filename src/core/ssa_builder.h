// Dynamic SSA operation-log generation (paper §5.2): an evm::Tracer that
// mirrors the interpreter with a shadow stack per frame, a byte-granular
// shadow memory per frame (Fig. 8), shadow calldata/returndata provenance
// across message calls, the latest_writes / direct_reads storage-flow tables
// (§5.2.2), and constraint-guard generation for control flow, runtime-context
// addresses and dynamic gas (§5.2.4). Constant folding is built in: an
// operation whose inputs are all transaction constants produces no log entry
// (§6.4 — this is what shrinks the log to ~5% of executed instructions).
#ifndef SRC_CORE_SSA_BUILDER_H_
#define SRC_CORE_SSA_BUILDER_H_

#include <optional>
#include <vector>

#include "src/core/oplog.h"
#include "src/evm/tracer.h"

namespace pevm {

class SsaBuilder final : public Tracer {
 public:
  struct Options {
    // Constant folding (§6.4): operations whose inputs are all transaction
    // constants produce no log entry. Disabling it is the ablation that
    // shows why the log stays at a few percent of the instruction stream.
    bool fold_constants = true;
  };

  SsaBuilder() : SsaBuilder(Options{}) {}
  explicit SsaBuilder(const Options& options);

  // Hands over the finished log. The builder is in an unspecified state
  // afterwards; construct a fresh one per transaction.
  TxLog TakeLog();

  // Marks the transaction un-redoable (invalid envelope, executor policy).
  void MarkNotRedoable() { log_.redoable = false; }

  // --- Tracer interface. ---
  void OnFrameEnter(const Message& msg) override;
  void OnFrameExit(EvmStatus status, uint64_t out_off, BytesView output) override;
  void OnPush() override;
  void OnCallValue() override;
  void OnPop() override;
  void OnDup(int n) override;
  void OnSwap(int n) override;
  void OnPureOp(Opcode op, std::span<const U256> operands, const U256& result) override;
  void OnOpaqueOp(Opcode op, std::span<const U256> operands, int pushes) override;
  void OnCalldataLoad(const U256& offset, const U256& result) override;
  void OnSload(const Address& address, const U256& slot, const U256& value) override;
  void OnSstore(const Address& address, const U256& slot, const U256& value,
                int64_t dynamic_gas) override;
  void OnBalanceRead(Opcode op, const Address& address, const U256& value,
                     bool has_operand) override;
  void OnMload(const U256& offset, BytesView word) override;
  void OnMstore(Opcode op, const U256& offset, const U256& value) override;
  void OnMemCopy(CopySource source, std::span<const U256> operands, uint64_t dst, uint64_t src,
                 uint64_t len) override;
  void OnSha3(std::span<const U256> operands, BytesView data, const U256& result) override;
  void OnJump(const U256& dest) override;
  void OnJumpi(const U256& dest, const U256& condition) override;
  void OnCall(Opcode op, std::span<const U256> operands, const Message& callee_msg) override;
  void OnCallSkipped(EvmStatus reason) override;
  void OnCallDone(uint64_t ret_dst, uint64_t ret_len, bool success) override;
  void OnValueTransfer(const Address& from, const U256& from_balance_before, const Address& to,
                       const U256& to_balance_before, const U256& amount) override;
  void OnTxNonceCheck(const Address& sender, uint64_t observed, uint64_t expected) override;
  void OnTxDebit(const Address& addr, const U256& balance_before, const U256& amount,
                 const U256& minimum) override;
  void OnTxCredit(const Address& addr, const U256& balance_before, const U256& amount) override;

 private:
  // One shadow-memory / shadow-calldata / shadow-returndata cell: which log
  // entry (and which byte of its result) defined this byte; kNullLsn for
  // transaction constants.
  struct ByteDef {
    Lsn lsn = kNullLsn;
    uint32_t offset = 0;
  };

  struct ShadowFrame {
    std::vector<Lsn> stack;
    std::vector<ByteDef> memory;
    std::vector<ByteDef> calldata;
    std::vector<ByteDef> returndata;
    // Definition of this frame's msg.value (CALLVALUE provenance); kNullLsn
    // when the value is a transaction constant.
    Lsn value_def = kNullLsn;
  };

  // A CALL in flight: operand-derived geometry plus the amount operand's def.
  struct PendingCall {
    Lsn value_def = kNullLsn;
    std::vector<ByteDef> input_provenance;
  };

  ShadowFrame& frame() { return frames_.back(); }

  // Appends an entry, wiring DUG edges from every non-null def.
  Lsn Append(OpLogEntry entry);

  Lsn PopDef();
  void PushDef(Lsn lsn) { frame().stack.push_back(lsn); }

  // Emits ASSERT_EQ guarding `value` against its defining op (no-op when the
  // operand is a constant).
  void GuardEq(const U256& value, Lsn def);
  // Emits ASSERT_GE(lhs >= rhs) unless both sides are constants.
  void GuardGe(const U256& lhs, Lsn lhs_def, const U256& rhs, Lsn rhs_def);

  // Returns the defining LSN for the current value of `key`, creating a
  // kCommittedRead source entry (and a direct_reads record) when the key has
  // not been written in this transaction.
  Lsn ReadStateKey(const StateKey& key, const U256& observed);

  // Records a balance/nonce write entry as the key's latest write.
  void RecordWrite(const StateKey& key, Lsn lsn) { log_.latest_writes[key] = lsn; }

  // Reads `len` provenance cells starting at `off` from `cells` (null-padded
  // past the end).
  static std::vector<ByteDef> Slice(const std::vector<ByteDef>& cells, uint64_t off,
                                    uint64_t len);
  // True if every cell is a constant.
  static bool AllConstant(const std::vector<ByteDef>& cells);
  // Coalesces cells into MemDep runs.
  static std::vector<MemDep> CollectDeps(const std::vector<ByteDef>& cells);

  // Writes provenance cells into the current frame's shadow memory.
  void WriteShadowMemory(uint64_t dst, const std::vector<ByteDef>& cells);
  void WriteShadowMemoryConstant(uint64_t dst, uint64_t len);

  Options options_;
  TxLog log_;
  std::vector<ShadowFrame> frames_;
  std::vector<PendingCall> pending_calls_;
};

}  // namespace pevm

#endif  // SRC_CORE_SSA_BUILDER_H_
