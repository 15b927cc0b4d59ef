#include "src/core/ssa_builder.h"

#include <algorithm>
#include <cassert>

namespace pevm {
namespace {

constexpr int64_t kExpByteGas = 50;

// A scratch buffer outgrown by one outsized transaction is released rather
// than kept for the thread's lifetime.
constexpr size_t kMaxRetainedBytes = size_t{1} << 20;

// Empties `v` for the next transaction, keeping its capacity within
// kMaxRetainedBytes.
template <typename T>
void Recycle(std::vector<T>& v) {
  if (v.capacity() * sizeof(T) > kMaxRetainedBytes) {
    std::vector<T>().swap(v);
  } else {
    v.clear();
  }
}

}  // namespace

// frames[0..depth] are live, frames[0] being the transaction envelope's base
// frame (nonce/fee events fire before the outermost OnFrameEnter); calls[0,
// call_count) are in flight. Entries past those bounds keep their capacity
// for the next push.
struct SsaBuilder::Scratch {
  TxLog log;
  std::vector<ShadowFrame> frames;
  size_t depth = 0;
  std::vector<PendingCall> calls;
  size_t call_count = 0;
  std::vector<ByteDef> slice;

  void Reset() {
    Recycle(log.entries);
    Recycle(log.operands);
    Recycle(log.mem_deps);
    Recycle(log.bytes);
    Recycle(log.keys);
    log.redoable = true;
    log.return_bytes = {};
    log.return_deps = {};
    log.has_return = false;
    if (frames.empty()) {
      frames.emplace_back();
    }
    for (ShadowFrame& f : frames) {
      f.Reset();
    }
    depth = 0;
    for (PendingCall& call : calls) {
      Recycle(call.input_provenance);
    }
    call_count = 0;
    Recycle(slice);
  }
};

void SsaBuilder::ShadowFrame::Reset() {
  Recycle(stack);
  Recycle(memory);
  Recycle(calldata);
  Recycle(returndata);
  value_def = kNullLsn;
}

std::vector<std::unique_ptr<SsaBuilder::Scratch>>& SsaBuilder::FreeScratch() {
  thread_local std::vector<std::unique_ptr<Scratch>> free_list;
  return free_list;
}

SsaBuilder::SsaBuilder(const Options& options) : options_(options) {
  std::vector<std::unique_ptr<Scratch>>& free_list = FreeScratch();
  if (free_list.empty()) {
    scratch_ = std::make_unique<Scratch>();
  } else {
    scratch_ = std::move(free_list.back());
    free_list.pop_back();
  }
  scratch_->Reset();
}

SsaBuilder::~SsaBuilder() { FreeScratch().push_back(std::move(scratch_)); }

TxLog SsaBuilder::TakeLog() const { return scratch_->log; }

void SsaBuilder::MarkNotRedoable() { log().redoable = false; }

TxLog& SsaBuilder::log() { return scratch_->log; }

SsaBuilder::ShadowFrame& SsaBuilder::frame() { return scratch_->frames[scratch_->depth]; }

Lsn SsaBuilder::Append(OpLogEntry entry) {
  std::vector<OpLogEntry>& entries = log().entries;
  entry.lsn = static_cast<Lsn>(entries.size());
  entries.push_back(entry);
  return entry.lsn;
}

PoolRange SsaBuilder::AddOperands(std::initializer_list<Operand> operands) {
  std::vector<Operand>& pool = log().operands;
  PoolRange range{static_cast<uint32_t>(pool.size()), static_cast<uint32_t>(operands.size())};
  pool.insert(pool.end(), operands.begin(), operands.end());
  return range;
}

PoolRange SsaBuilder::AddBytes(BytesView data) {
  Bytes& pool = log().bytes;
  PoolRange range{static_cast<uint32_t>(pool.size()), static_cast<uint32_t>(data.size())};
  pool.insert(pool.end(), data.begin(), data.end());
  return range;
}

int32_t SsaBuilder::InternKey(const StateKey& key) {
  std::vector<KeyRecord>& keys = log().keys;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].key == key) {
      return static_cast<int32_t>(i);
    }
  }
  keys.push_back(KeyRecord{key});
  return static_cast<int32_t>(keys.size() - 1);
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

void SsaBuilder::PushDef(Lsn lsn) { frame().stack.push_back(lsn); }

void SsaBuilder::GuardEq(const U256& value, Lsn def) {
  if (def == kNullLsn) {
    return;
  }
  OpLogEntry e;
  e.op = Opcode::kAssertEq;
  e.operands = AddOperands({{value, def}});
  Append(e);
}

void SsaBuilder::GuardGe(const U256& lhs, Lsn lhs_def, const U256& rhs, Lsn rhs_def) {
  if (lhs_def == kNullLsn && rhs_def == kNullLsn) {
    return;
  }
  OpLogEntry e;
  e.op = Opcode::kAssertGe;
  e.operands = AddOperands({{lhs, lhs_def}, {rhs, rhs_def}});
  Append(e);
}

Lsn SsaBuilder::ReadStateKey(int32_t key, const U256& observed) {
  const KeyRecord& record = log().keys[static_cast<size_t>(key)];
  if (record.latest_write != kNullLsn) {
    return record.latest_write;  // Type II: reads an in-transaction write.
  }
  if (record.direct_read != kNullLsn) {
    return record.direct_read;  // Reuse the existing committed-read source.
  }
  OpLogEntry e;
  e.op = Opcode::kCommittedRead;
  e.key = key;
  e.result = observed;
  Lsn lsn = Append(e);
  log().keys[static_cast<size_t>(key)].direct_read = lsn;
  return lsn;
}

void SsaBuilder::RecordWrite(int32_t key, Lsn lsn) {
  log().keys[static_cast<size_t>(key)].latest_write = lsn;
}

// --- Shadow-byte helpers. ---

const std::vector<SsaBuilder::ByteDef>& SsaBuilder::Slice(const std::vector<ByteDef>& cells,
                                                          uint64_t off, uint64_t len) {
  std::vector<ByteDef>& out = scratch_->slice;
  out.assign(len, ByteDef{});
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

PoolRange SsaBuilder::CollectDeps(const std::vector<ByteDef>& cells) {
  std::vector<MemDep>& deps = log().mem_deps;
  PoolRange range{static_cast<uint32_t>(deps.size()), 0};
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
  range.size = static_cast<uint32_t>(deps.size() - range.begin);
  return range;
}

std::vector<SsaBuilder::ByteDef>& SsaBuilder::ShadowMemory(uint64_t end) {
  std::vector<ByteDef>& mem = frame().memory;
  if (mem.size() < end) {
    mem.resize(end);
  }
  return mem;
}

void SsaBuilder::WriteShadowMemory(uint64_t dst, const std::vector<ByteDef>& cells) {
  std::vector<ByteDef>& mem = ShadowMemory(dst + cells.size());
  std::copy(cells.begin(), cells.end(), mem.begin() + static_cast<long>(dst));
}

void SsaBuilder::WriteShadowMemoryConstant(uint64_t dst, uint64_t len) {
  std::vector<ByteDef>& mem = ShadowMemory(dst + len);
  std::fill(mem.begin() + static_cast<long>(dst), mem.begin() + static_cast<long>(dst + len),
            ByteDef{});
}

// --- Frame lifecycle. ---

void SsaBuilder::OnFrameEnter(const Message&) {
  Scratch& s = *scratch_;
  if (++s.depth == s.frames.size()) {
    s.frames.emplace_back();
  } else {
    s.frames[s.depth].Reset();
  }
  if (s.call_count > 0) {
    PendingCall& call = s.calls[s.call_count - 1];
    frame().calldata.swap(call.input_provenance);  // Leaves the call's buffer empty.
    frame().value_def = call.value_def;
  }
}

void SsaBuilder::OnFrameExit(EvmStatus status, uint64_t out_off, BytesView output) {
  Scratch& s = *scratch_;
  const std::vector<ByteDef>& provenance = Slice(frame().memory, out_off, output.size());
  if (s.depth == 1 && status == EvmStatus::kSuccess && !output.empty()) {
    // Outermost frame: this output becomes the receipt's. Record it with its
    // provenance so a redo can rebuild a storage-dependent output from the
    // patched entries (TxLog::return_bytes docs).
    s.log.return_bytes = AddBytes(output);
    s.log.return_deps = CollectDeps(provenance);
    s.log.has_return = true;
  }
  if (s.depth > 0) {
    --s.depth;
  } else {
    s.frames[0].Reset();  // Defensive; the base frame should remain.
  }
  frame().returndata.assign(provenance.begin(), provenance.end());
  if (status != EvmStatus::kSuccess) {
    // A reverted or halted frame leaves latest writes/def chains that no
    // longer reflect the committed effects; fall back to full re-execution.
    s.log.redoable = false;
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
  std::vector<Operand>& pool = log().operands;
  OpLogEntry e;
  e.operands = {static_cast<uint32_t>(pool.size()), static_cast<uint32_t>(operands.size())};
  bool all_const = true;
  for (const U256& value : operands) {
    Lsn def = PopDef();
    all_const = all_const && def == kNullLsn;
    pool.push_back({value, def});
  }
  if (all_const && options_.fold_constants) {
    pool.resize(e.operands.begin);
    PushDef(kNullLsn);  // Constant folding: no log entry (§6.4).
    return;
  }
  e.op = op;
  e.result = result;
  if (op == Opcode::kExp && pool[e.operands.begin + 1].def != kNullLsn) {
    // Gas-flow constraint: EXP's dynamic cost depends on the exponent width.
    e.dyn_gas = kExpByteGas * operands[1].ByteLength();
  }
  PushDef(Append(e));
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
  const std::vector<ByteDef>& cells = Slice(frame().calldata, offset.AsUint64Saturated(), 32);
  if (AllConstant(cells)) {
    PushDef(kNullLsn);
    return;
  }
  OpLogEntry e;
  e.op = Opcode::kCalldataload;
  std::array<uint8_t, 32> be = result.ToBigEndian();
  e.input_bytes = AddBytes(be);
  e.def_memory = CollectDeps(cells);
  e.result = result;
  PushDef(Append(e));
}

void SsaBuilder::OnSload(const Address& address, const U256& slot, const U256& value) {
  GuardEq(slot, PopDef());
  PushDef(ReadStateKey(InternKey(StateKey::Storage(address, slot)), value));
}

void SsaBuilder::OnSstore(const Address& address, const U256& slot, const U256& value,
                          int64_t dynamic_gas) {
  Lsn slot_def = PopDef();
  Lsn value_def = PopDef();
  GuardEq(slot, slot_def);
  int32_t key = InternKey(StateKey::Storage(address, slot));
  OpLogEntry e;
  e.op = Opcode::kSstore;
  e.operands = AddOperands({{slot, kNullLsn}, {value, value_def}});
  e.key = key;
  e.result = value;
  e.dyn_gas = dynamic_gas;
  e.prior_def = log().keys[static_cast<size_t>(key)].latest_write;
  Lsn lsn = Append(e);
  KeyRecord& record = log().keys[static_cast<size_t>(key)];
  if (e.prior_def == kNullLsn) {
    // Only a key's first write overwrites the committed value.
    record.committed_prior_sstore = lsn;
  }
  record.latest_write = lsn;
}

void SsaBuilder::OnBalanceRead(Opcode, const Address& address, const U256& value,
                               bool has_operand) {
  if (has_operand) {
    Lsn def = PopDef();
    GuardEq(U256::FromAddress(address), def);
  }
  PushDef(ReadStateKey(InternKey(StateKey::Balance(address)), value));
}

void SsaBuilder::OnMload(const U256& offset, BytesView word) {
  GuardEq(offset, PopDef());
  const std::vector<ByteDef>& cells =
      Slice(frame().memory, offset.AsUint64Saturated(), word.size());
  if (AllConstant(cells)) {
    PushDef(kNullLsn);
    return;
  }
  OpLogEntry e;
  e.op = Opcode::kMload;
  e.input_bytes = AddBytes(word);
  e.def_memory = CollectDeps(cells);
  e.result = U256::FromBigEndian(word);
  PushDef(Append(e));
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
  e.operands = AddOperands({{offset, kNullLsn}, {value, value_def}});
  e.result = value;
  e.result_width = static_cast<uint8_t>(width);
  Lsn lsn = Append(e);
  std::vector<ByteDef>& mem = ShadowMemory(dst + width);
  for (uint64_t i = 0; i < width; ++i) {
    mem[dst + i] = {lsn, static_cast<uint32_t>(i)};
  }
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
  const std::vector<ByteDef>& cells =
      Slice(frame().memory, operands[0].AsUint64Saturated(), data.size());
  if (AllConstant(cells)) {
    PushDef(kNullLsn);
    return;
  }
  OpLogEntry e;
  e.op = Opcode::kSha3;
  e.input_bytes = AddBytes(data);
  e.def_memory = CollectDeps(cells);
  e.result = result;
  PushDef(Append(e));
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
  // DELEGATECALL inherits msg.value; CALL's comes from its amount operand.
  Lsn value_def = op == Opcode::kDelegatecall ? frame().value_def : kNullLsn;
  for (size_t i = 0; i < operands.size(); ++i) {
    Lsn def = PopDef();
    if (has_value && i == 2) {
      // The transfer amount flows onward (debit/credit entries, callee
      // CALLVALUE); only its zero-ness is pinned, because it decides the
      // value-transfer gas surcharge and the callee stipend (§5.2.4
      // gas-flow constraints).
      value_def = def;
      if (def != kNullLsn) {
        if (operands[i].IsZero()) {
          GuardEq(U256{}, def);
        } else {
          GuardGe(operands[i], def, U256(1), kNullLsn);
        }
      }
      continue;
    }
    // Control-flow / address / gas operands must be stable.
    GuardEq(operands[i], def);
  }
  uint64_t in_off = operands[has_value ? 3 : 2].AsUint64Saturated();
  uint64_t in_len = operands[has_value ? 4 : 3].AsUint64Saturated();
  const std::vector<ByteDef>& input = Slice(frame().memory, in_off, in_len);
  Scratch& s = *scratch_;
  if (s.call_count == s.calls.size()) {
    s.calls.emplace_back();
  }
  PendingCall& call = s.calls[s.call_count++];
  call.value_def = value_def;
  call.input_provenance.assign(input.begin(), input.end());
}

void SsaBuilder::OnCallSkipped(EvmStatus) {
  frame().returndata.clear();
  // The skip condition (depth / balance probe) is not representable as a
  // guard; conservatively disable operation-level repair.
  log().redoable = false;
}

void SsaBuilder::OnCallDone(uint64_t ret_dst, uint64_t ret_len, bool) {
  if (scratch_->call_count > 0) {
    --scratch_->call_count;
  }
  if (ret_len > 0) {
    WriteShadowMemory(ret_dst, Slice(frame().returndata, 0, ret_len));
  }
  PushDef(kNullLsn);  // Success flag: constant given control-flow guards.
}

void SsaBuilder::OnValueTransfer(const Address& from, const U256& from_balance_before,
                                 const Address& to, const U256& to_balance_before,
                                 const U256& amount) {
  const Scratch& s = *scratch_;
  Lsn amount_def = s.call_count == 0 ? kNullLsn : s.calls[s.call_count - 1].value_def;
  int32_t from_key = InternKey(StateKey::Balance(from));
  Lsn from_def = ReadStateKey(from_key, from_balance_before);
  GuardGe(from_balance_before, from_def, amount, amount_def);
  OpLogEntry debit;
  debit.op = Opcode::kDebit;
  debit.operands = AddOperands({{from_balance_before, from_def}, {amount, amount_def}});
  debit.key = from_key;
  debit.result = from_balance_before - amount;
  RecordWrite(from_key, Append(debit));

  int32_t to_key = InternKey(StateKey::Balance(to));
  Lsn to_def = ReadStateKey(to_key, to_balance_before);
  OpLogEntry credit;
  credit.op = Opcode::kCredit;
  credit.operands = AddOperands({{to_balance_before, to_def}, {amount, amount_def}});
  credit.key = to_key;
  credit.result = to_balance_before + amount;
  RecordWrite(to_key, Append(credit));
}

// --- Transaction envelope. ---

void SsaBuilder::OnTxNonceCheck(const Address& sender, uint64_t observed, uint64_t expected) {
  int32_t key = InternKey(StateKey::Nonce(sender));
  Lsn read_def = ReadStateKey(key, U256(observed));
  GuardEq(U256(expected), read_def);
  if (observed != expected) {
    log().redoable = false;
    return;
  }
  OpLogEntry bump;
  bump.op = Opcode::kNonceBump;
  bump.operands = AddOperands({{U256(observed), read_def}});
  bump.key = key;
  bump.result = U256(observed + 1);
  RecordWrite(key, Append(bump));
}

void SsaBuilder::OnTxDebit(const Address& addr, const U256& balance_before, const U256& amount,
                           const U256& minimum) {
  int32_t key = InternKey(StateKey::Balance(addr));
  Lsn def = ReadStateKey(key, balance_before);
  GuardGe(balance_before, def, minimum, kNullLsn);
  if (balance_before < minimum) {
    log().redoable = false;
    return;
  }
  OpLogEntry debit;
  debit.op = Opcode::kDebit;
  debit.operands = AddOperands({{balance_before, def}, {amount, kNullLsn}});
  debit.key = key;
  debit.result = balance_before - amount;
  RecordWrite(key, Append(debit));
}

void SsaBuilder::OnTxCredit(const Address& addr, const U256& balance_before,
                            const U256& amount) {
  int32_t key = InternKey(StateKey::Balance(addr));
  Lsn def = ReadStateKey(key, balance_before);
  OpLogEntry credit;
  credit.op = Opcode::kCredit;
  credit.operands = AddOperands({{balance_before, def}, {amount, kNullLsn}});
  credit.key = key;
  credit.result = balance_before + amount;
  RecordWrite(key, Append(credit));
}

}  // namespace pevm
