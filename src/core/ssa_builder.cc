#include "src/core/ssa_builder.h"

#include <algorithm>
#include <cassert>

namespace pevm {
namespace {

constexpr int64_t kExpByteGas = 50;

}  // namespace

SsaBuilder::SsaBuilder(const Options& options) : options_(options) {
  // Base frame for the transaction envelope (nonce/fee events fire before the
  // outermost OnFrameEnter).
  frames_.emplace_back();
}

TxLog SsaBuilder::TakeLog() { return std::move(log_); }

Lsn SsaBuilder::Append(OpLogEntry entry) {
  Lsn lsn = static_cast<Lsn>(log_.entries.size());
  entry.lsn = lsn;
  log_.dug.emplace_back();
  auto wire = [&](Lsn def) {
    if (def != kNullLsn) {
      log_.dug[static_cast<size_t>(def)].push_back(lsn);
    }
  };
  for (Lsn def : entry.def_stack) {
    wire(def);
  }
  wire(entry.def_storage);
  wire(entry.prior_def);
  for (const MemDep& dep : entry.def_memory) {
    wire(dep.lsn);
  }
  log_.entries.push_back(std::move(entry));
  return lsn;
}

Lsn SsaBuilder::PopDef() {
  ShadowFrame& f = frame();
  if (f.stack.empty()) {
    // Shadow/actual stack divergence would be a builder bug; the interpreter
    // has already validated stack depth.
    assert(false && "shadow stack underflow");
    return kNullLsn;
  }
  Lsn lsn = f.stack.back();
  f.stack.pop_back();
  return lsn;
}

void SsaBuilder::GuardEq(const U256& value, Lsn def) {
  if (def == kNullLsn) {
    return;
  }
  OpLogEntry e;
  e.op = Opcode::kAssertEq;
  e.operands = {value};
  e.def_stack = {def};
  Append(std::move(e));
}

void SsaBuilder::GuardGe(const U256& lhs, Lsn lhs_def, const U256& rhs, Lsn rhs_def) {
  if (lhs_def == kNullLsn && rhs_def == kNullLsn) {
    return;
  }
  OpLogEntry e;
  e.op = Opcode::kAssertGe;
  e.operands = {lhs, rhs};
  e.def_stack = {lhs_def, rhs_def};
  Append(std::move(e));
}

Lsn SsaBuilder::ReadStateKey(const StateKey& key, const U256& observed) {
  auto wit = log_.latest_writes.find(key);
  if (wit != log_.latest_writes.end()) {
    return wit->second;  // Type II: reads an in-transaction write.
  }
  auto rit = log_.direct_reads.find(key);
  if (rit != log_.direct_reads.end()) {
    return rit->second.front();  // Reuse the existing committed-read source.
  }
  OpLogEntry e;
  e.op = Opcode::kCommittedRead;
  e.has_key = true;
  e.key = key;
  e.result = observed;
  Lsn lsn = Append(std::move(e));
  log_.direct_reads[key].push_back(lsn);
  return lsn;
}

// --- Shadow-byte helpers. ---

std::vector<SsaBuilder::ByteDef> SsaBuilder::Slice(const std::vector<ByteDef>& cells,
                                                   uint64_t off, uint64_t len) {
  std::vector<ByteDef> out(len);
  for (uint64_t i = 0; i < len; ++i) {
    uint64_t idx = off + i;
    if (idx >= off && idx < cells.size()) {  // idx >= off guards wrap-around.
      out[i] = cells[idx];
    }
  }
  return out;
}

bool SsaBuilder::AllConstant(const std::vector<ByteDef>& cells) {
  return std::all_of(cells.begin(), cells.end(),
                     [](const ByteDef& c) { return c.lsn == kNullLsn; });
}

std::vector<MemDep> SsaBuilder::CollectDeps(const std::vector<ByteDef>& cells) {
  std::vector<MemDep> deps;
  size_t i = 0;
  while (i < cells.size()) {
    if (cells[i].lsn == kNullLsn) {
      ++i;
      continue;
    }
    MemDep dep;
    dep.start = static_cast<uint32_t>(i);
    dep.lsn = cells[i].lsn;
    dep.offset = cells[i].offset;
    size_t j = i + 1;
    while (j < cells.size() && cells[j].lsn == dep.lsn &&
           cells[j].offset == dep.offset + (j - i)) {
      ++j;
    }
    dep.len = static_cast<uint32_t>(j - i);
    deps.push_back(dep);
    i = j;
  }
  return deps;
}

void SsaBuilder::WriteShadowMemory(uint64_t dst, const std::vector<ByteDef>& cells) {
  std::vector<ByteDef>& mem = frame().memory;
  if (mem.size() < dst + cells.size()) {
    mem.resize(dst + cells.size());
  }
  std::copy(cells.begin(), cells.end(), mem.begin() + static_cast<long>(dst));
}

void SsaBuilder::WriteShadowMemoryConstant(uint64_t dst, uint64_t len) {
  std::vector<ByteDef>& mem = frame().memory;
  if (mem.size() < dst + len) {
    mem.resize(dst + len);
  }
  std::fill(mem.begin() + static_cast<long>(dst), mem.begin() + static_cast<long>(dst + len),
            ByteDef{});
}

// --- Frame lifecycle. ---

void SsaBuilder::OnFrameEnter(const Message&) {
  ShadowFrame f;
  if (!pending_calls_.empty()) {
    f.calldata = std::move(pending_calls_.back().input_provenance);
    f.value_def = pending_calls_.back().value_def;
    pending_calls_.back().input_provenance.clear();
  }
  frames_.push_back(std::move(f));
}

void SsaBuilder::OnFrameExit(EvmStatus status, uint64_t out_off, BytesView output) {
  std::vector<ByteDef> provenance = Slice(frame().memory, out_off, output.size());
  if (frames_.size() == 2 && status == EvmStatus::kSuccess && !output.empty()) {
    // Outermost frame: this output becomes the receipt's. Record it with its
    // provenance so a redo can rebuild a storage-dependent output from the
    // patched entries (TxLog::return_bytes docs).
    log_.return_bytes.assign(output.begin(), output.end());
    log_.return_deps = CollectDeps(provenance);
    log_.has_return = true;
  }
  frames_.pop_back();
  if (frames_.empty()) {
    frames_.emplace_back();  // Defensive; the base frame should remain.
  }
  frame().returndata = std::move(provenance);
  if (status != EvmStatus::kSuccess) {
    // A reverted or halted frame leaves latest_writes/def chains that no
    // longer reflect the committed effects; fall back to full re-execution.
    log_.redoable = false;
  }
}

// --- Stack shape. ---

void SsaBuilder::OnPush() { PushDef(kNullLsn); }

void SsaBuilder::OnCallValue() { PushDef(frame().value_def); }

void SsaBuilder::OnPop() { PopDef(); }

void SsaBuilder::OnDup(int n) {
  ShadowFrame& f = frame();
  PushDef(f.stack[f.stack.size() - static_cast<size_t>(n)]);
}

void SsaBuilder::OnSwap(int n) {
  ShadowFrame& f = frame();
  std::swap(f.stack[f.stack.size() - 1], f.stack[f.stack.size() - 1 - static_cast<size_t>(n)]);
}

// --- Data-flow ops. ---

void SsaBuilder::OnPureOp(Opcode op, std::span<const U256> operands, const U256& result) {
  std::vector<Lsn> defs(operands.size());
  for (size_t i = 0; i < operands.size(); ++i) {
    defs[i] = PopDef();
  }
  bool all_const = std::all_of(defs.begin(), defs.end(),
                               [](Lsn d) { return d == kNullLsn; });
  if (all_const && options_.fold_constants) {
    PushDef(kNullLsn);  // Constant folding: no log entry (§6.4).
    return;
  }
  OpLogEntry e;
  e.op = op;
  e.operands.assign(operands.begin(), operands.end());
  e.def_stack = std::move(defs);
  e.result = result;
  if (op == Opcode::kExp && e.def_stack[1] != kNullLsn) {
    // Gas-flow constraint: EXP's dynamic cost depends on the exponent width.
    e.dyn_gas = kExpByteGas * operands[1].ByteLength();
  }
  PushDef(Append(std::move(e)));
}

void SsaBuilder::OnOpaqueOp(Opcode, std::span<const U256> operands, int pushes) {
  for (size_t i = 0; i < operands.size(); ++i) {
    GuardEq(operands[i], PopDef());
  }
  for (int i = 0; i < pushes; ++i) {
    PushDef(kNullLsn);
  }
}

void SsaBuilder::OnCalldataLoad(const U256& offset, const U256& result) {
  GuardEq(offset, PopDef());
  std::vector<ByteDef> cells = Slice(frame().calldata, offset.AsUint64Saturated(), 32);
  if (AllConstant(cells)) {
    PushDef(kNullLsn);
    return;
  }
  OpLogEntry e;
  e.op = Opcode::kCalldataload;
  std::array<uint8_t, 32> be = result.ToBigEndian();
  e.input_bytes.assign(be.begin(), be.end());
  e.def_memory = CollectDeps(cells);
  e.result = result;
  PushDef(Append(std::move(e)));
}

void SsaBuilder::OnSload(const Address& address, const U256& slot, const U256& value) {
  GuardEq(slot, PopDef());
  PushDef(ReadStateKey(StateKey::Storage(address, slot), value));
}

void SsaBuilder::OnSstore(const Address& address, const U256& slot, const U256& value,
                          int64_t dynamic_gas) {
  Lsn slot_def = PopDef();
  Lsn value_def = PopDef();
  GuardEq(slot, slot_def);
  StateKey key = StateKey::Storage(address, slot);
  OpLogEntry e;
  e.op = Opcode::kSstore;
  e.operands = {slot, value};
  e.def_stack = {kNullLsn, value_def};
  e.has_key = true;
  e.key = key;
  e.result = value;
  e.dyn_gas = dynamic_gas;
  auto wit = log_.latest_writes.find(key);
  e.prior_def = wit == log_.latest_writes.end() ? kNullLsn : wit->second;
  Lsn lsn = Append(std::move(e));
  if (log_.entries[static_cast<size_t>(lsn)].prior_def == kNullLsn) {
    log_.committed_prior_sstores[key].push_back(lsn);
  }
  log_.latest_writes[key] = lsn;
}

void SsaBuilder::OnBalanceRead(Opcode, const Address& address, const U256& value,
                               bool has_operand) {
  if (has_operand) {
    Lsn def = PopDef();
    GuardEq(U256::FromAddress(address), def);
  }
  PushDef(ReadStateKey(StateKey::Balance(address), value));
}

void SsaBuilder::OnMload(const U256& offset, BytesView word) {
  GuardEq(offset, PopDef());
  std::vector<ByteDef> cells = Slice(frame().memory, offset.AsUint64Saturated(), word.size());
  if (AllConstant(cells)) {
    PushDef(kNullLsn);
    return;
  }
  OpLogEntry e;
  e.op = Opcode::kMload;
  e.input_bytes.assign(word.begin(), word.end());
  e.def_memory = CollectDeps(cells);
  e.result = U256::FromBigEndian(word);
  PushDef(Append(std::move(e)));
}

void SsaBuilder::OnMstore(Opcode op, const U256& offset, const U256& value) {
  Lsn offset_def = PopDef();
  Lsn value_def = PopDef();
  GuardEq(offset, offset_def);
  uint64_t width = op == Opcode::kMstore8 ? 1 : 32;
  uint64_t dst = offset.AsUint64Saturated();
  if (value_def == kNullLsn) {
    WriteShadowMemoryConstant(dst, width);
    return;
  }
  OpLogEntry e;
  e.op = op;
  e.operands = {offset, value};
  e.def_stack = {kNullLsn, value_def};
  e.result = value;
  e.result_width = static_cast<uint8_t>(width);
  Lsn lsn = Append(std::move(e));
  std::vector<ByteDef> cells(width);
  for (uint64_t i = 0; i < width; ++i) {
    cells[i] = {lsn, static_cast<uint32_t>(i)};
  }
  WriteShadowMemory(dst, cells);
}

void SsaBuilder::OnMemCopy(CopySource source, std::span<const U256> operands, uint64_t dst,
                           uint64_t src, uint64_t len) {
  for (size_t i = 0; i < operands.size(); ++i) {
    GuardEq(operands[i], PopDef());
  }
  switch (source) {
    case CopySource::kCode:
      WriteShadowMemoryConstant(dst, len);
      return;
    case CopySource::kCalldata:
      WriteShadowMemory(dst, Slice(frame().calldata, src, len));
      return;
    case CopySource::kReturndata:
      WriteShadowMemory(dst, Slice(frame().returndata, src, len));
      return;
  }
}

void SsaBuilder::OnSha3(std::span<const U256> operands, BytesView data, const U256& result) {
  Lsn off_def = PopDef();
  Lsn len_def = PopDef();
  GuardEq(operands[0], off_def);
  GuardEq(operands[1], len_def);
  std::vector<ByteDef> cells = Slice(frame().memory, operands[0].AsUint64Saturated(),
                                     data.size());
  if (AllConstant(cells)) {
    PushDef(kNullLsn);
    return;
  }
  OpLogEntry e;
  e.op = Opcode::kSha3;
  e.input_bytes.assign(data.begin(), data.end());
  e.def_memory = CollectDeps(cells);
  e.result = result;
  PushDef(Append(std::move(e)));
}

// --- Control flow. ---

void SsaBuilder::OnJump(const U256& dest) { GuardEq(dest, PopDef()); }

void SsaBuilder::OnJumpi(const U256& dest, const U256& condition) {
  Lsn dest_def = PopDef();
  Lsn cond_def = PopDef();
  GuardEq(dest, dest_def);
  GuardEq(condition, cond_def);
}

// --- Message calls. ---

void SsaBuilder::OnCall(Opcode op, std::span<const U256> operands, const Message&) {
  bool has_value = op == Opcode::kCall;
  std::vector<Lsn> defs(operands.size());
  for (size_t i = 0; i < operands.size(); ++i) {
    defs[i] = PopDef();
    if (has_value && i == 2) {
      // The transfer amount flows onward (debit/credit entries, callee
      // CALLVALUE); only its zero-ness is pinned, because it decides the
      // value-transfer gas surcharge and the callee stipend (§5.2.4
      // gas-flow constraints).
      if (defs[i] != kNullLsn) {
        if (operands[i].IsZero()) {
          GuardEq(U256{}, defs[i]);
        } else {
          GuardGe(operands[i], defs[i], U256(1), kNullLsn);
        }
      }
      continue;
    }
    // Control-flow / address / gas operands must be stable.
    GuardEq(operands[i], defs[i]);
  }
  PendingCall pending;
  pending.value_def = kNullLsn;
  if (has_value) {
    pending.value_def = defs[2];
  } else if (op == Opcode::kDelegatecall) {
    pending.value_def = frame().value_def;  // DELEGATECALL inherits msg.value.
  }
  uint64_t in_off = operands[has_value ? 3 : 2].AsUint64Saturated();
  uint64_t in_len = operands[has_value ? 4 : 3].AsUint64Saturated();
  pending.input_provenance = Slice(frame().memory, in_off, in_len);
  pending_calls_.push_back(std::move(pending));
}

void SsaBuilder::OnCallSkipped(EvmStatus) {
  frame().returndata.clear();
  // The skip condition (depth / balance probe) is not representable as a
  // guard; conservatively disable operation-level repair.
  log_.redoable = false;
}

void SsaBuilder::OnCallDone(uint64_t ret_dst, uint64_t ret_len, bool) {
  if (!pending_calls_.empty()) {
    pending_calls_.pop_back();
  }
  if (ret_len > 0) {
    WriteShadowMemory(ret_dst, Slice(frame().returndata, 0, ret_len));
  }
  PushDef(kNullLsn);  // Success flag: constant given control-flow guards.
}

void SsaBuilder::OnValueTransfer(const Address& from, const U256& from_balance_before,
                                 const Address& to, const U256& to_balance_before,
                                 const U256& amount) {
  Lsn amount_def = pending_calls_.empty() ? kNullLsn : pending_calls_.back().value_def;
  Lsn from_def = ReadStateKey(StateKey::Balance(from), from_balance_before);
  OpLogEntry debit;
  debit.op = Opcode::kDebit;
  debit.operands = {from_balance_before, amount};
  debit.def_stack = {from_def, amount_def};
  GuardGe(from_balance_before, from_def, amount, amount_def);
  debit.has_key = true;
  debit.key = StateKey::Balance(from);
  debit.result = from_balance_before - amount;
  RecordWrite(debit.key, Append(std::move(debit)));

  Lsn to_def = ReadStateKey(StateKey::Balance(to), to_balance_before);
  OpLogEntry credit;
  credit.op = Opcode::kCredit;
  credit.operands = {to_balance_before, amount};
  credit.def_stack = {to_def, amount_def};
  credit.has_key = true;
  credit.key = StateKey::Balance(to);
  credit.result = to_balance_before + amount;
  RecordWrite(credit.key, Append(std::move(credit)));
}

// --- Transaction envelope. ---

void SsaBuilder::OnTxNonceCheck(const Address& sender, uint64_t observed, uint64_t expected) {
  StateKey key = StateKey::Nonce(sender);
  Lsn read_def = ReadStateKey(key, U256(observed));
  if (observed != expected) {
    GuardEq(U256(expected), read_def);
    log_.redoable = false;
    return;
  }
  OpLogEntry bump;
  bump.op = Opcode::kNonceBump;
  bump.operands = {U256(observed)};
  bump.def_stack = {read_def};
  GuardEq(U256(expected), read_def);
  bump.has_key = true;
  bump.key = key;
  bump.result = U256(observed + 1);
  RecordWrite(key, Append(std::move(bump)));
}

void SsaBuilder::OnTxDebit(const Address& addr, const U256& balance_before, const U256& amount,
                           const U256& minimum) {
  StateKey key = StateKey::Balance(addr);
  Lsn def = ReadStateKey(key, balance_before);
  if (balance_before < minimum) {
    GuardGe(balance_before, def, minimum, kNullLsn);
    log_.redoable = false;
    return;
  }
  OpLogEntry debit;
  debit.op = Opcode::kDebit;
  debit.operands = {balance_before, amount};
  debit.def_stack = {def, kNullLsn};
  GuardGe(balance_before, def, minimum, kNullLsn);
  debit.has_key = true;
  debit.key = key;
  debit.result = balance_before - amount;
  RecordWrite(key, Append(std::move(debit)));
}

void SsaBuilder::OnTxCredit(const Address& addr, const U256& balance_before,
                            const U256& amount) {
  StateKey key = StateKey::Balance(addr);
  Lsn def = ReadStateKey(key, balance_before);
  OpLogEntry credit;
  credit.op = Opcode::kCredit;
  credit.operands = {balance_before, amount};
  credit.def_stack = {def, kNullLsn};
  credit.has_key = true;
  credit.key = key;
  credit.result = balance_before + amount;
  RecordWrite(key, Append(std::move(credit)));
}

}  // namespace pevm
