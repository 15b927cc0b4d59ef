#include "src/evm/interpreter.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

#include "src/evm/eval.h"
#include "src/support/keccak.h"

namespace pevm {
namespace {

// Memory is capped well below anything gas could pay for; keeps the quadratic
// cost arithmetic trivially overflow-free.
constexpr uint64_t kMemoryLimit = uint64_t{1} << 25;  // 32 MiB.

constexpr int64_t kCallValueGas = 9000;
constexpr int64_t kCallStipend = 2300;
constexpr int64_t kExpByteGas = 50;
constexpr int64_t kCopyWordGas = 3;
constexpr int64_t kSha3WordGas = 6;
constexpr int64_t kLogTopicGas = 375;
constexpr int64_t kLogDataGas = 8;
constexpr int64_t kSstoreSetGas = 20000;
constexpr int64_t kSstoreResetGas = 5000;

int64_t MemoryCost(uint64_t words) {
  return static_cast<int64_t>(3 * words + words * words / 512);
}

uint64_t WordCount(uint64_t bytes) { return (bytes + 31) / 32; }

}  // namespace

const char* EvmStatusName(EvmStatus s) {
  switch (s) {
    case EvmStatus::kSuccess:
      return "success";
    case EvmStatus::kRevert:
      return "revert";
    case EvmStatus::kOutOfGas:
      return "out of gas";
    case EvmStatus::kInvalidInstruction:
      return "invalid instruction";
    case EvmStatus::kStackUnderflow:
      return "stack underflow";
    case EvmStatus::kStackOverflow:
      return "stack overflow";
    case EvmStatus::kBadJumpDestination:
      return "bad jump destination";
    case EvmStatus::kStaticModeViolation:
      return "static mode violation";
    case EvmStatus::kCallDepthExceeded:
      return "call depth exceeded";
    case EvmStatus::kInsufficientBalance:
      return "insufficient balance";
    case EvmStatus::kDependencyAbort:
      return "dependency abort";
  }
  return "?";
}

struct Interpreter::Frame {
  const Message* msg = nullptr;
  const Bytes* code = nullptr;
  // Cached per-code-hash analysis (null when the interpreter has no provider).
  std::shared_ptr<const CodeAnalysis> analysis;
  // Lazy JUMPDEST bitmap for the no-provider path, built on first jump.
  std::vector<bool> local_jumpdests;
  bool local_jumpdests_built = false;
  std::vector<U256> stack;
  Bytes memory;
  Bytes returndata;
  size_t pc = 0;
  int64_t gas = 0;
  EvmStatus halt = EvmStatus::kSuccess;  // Meaningful once `halted`.
  bool halted = false;

  void Fail(EvmStatus status) {
    halt = status;
    halted = true;
  }

  bool Charge(int64_t amount) {
    gas -= amount;
    if (gas < 0) {
      gas = 0;
      Fail(EvmStatus::kOutOfGas);
      return false;
    }
    return true;
  }

  U256 Pop() {
    U256 v = stack.back();
    stack.pop_back();
    return v;
  }

  void Push(const U256& v) { stack.push_back(v); }

  // Expands memory to cover [offset, offset+len), charging the quadratic
  // expansion cost. No-op when len == 0.
  bool Expand(const U256& offset, const U256& len) {
    if (len.IsZero()) {
      return true;
    }
    if (!offset.FitsUint64() || !len.FitsUint64()) {
      Fail(EvmStatus::kOutOfGas);
      return false;
    }
    uint64_t off = offset.AsUint64();
    uint64_t n = len.AsUint64();
    if (off > kMemoryLimit || n > kMemoryLimit || off + n > kMemoryLimit) {
      Fail(EvmStatus::kOutOfGas);
      return false;
    }
    uint64_t new_size = WordCount(off + n) * 32;
    if (new_size <= memory.size()) {
      return true;
    }
    int64_t cost = MemoryCost(new_size / 32) - MemoryCost(memory.size() / 32);
    if (!Charge(cost)) {
      return false;
    }
    memory.resize(new_size, 0);
    return true;
  }

  BytesView MemView(uint64_t off, uint64_t len) const {
    return BytesView(memory.data() + off, len);
  }
};

const std::vector<bool>& Interpreter::Jumpdests(Frame& f) {
  if (f.analysis != nullptr) {
    return f.analysis->jumpdests;
  }
  if (!f.local_jumpdests_built) {
    f.local_jumpdests = JumpdestBitmap(*f.code);
    f.local_jumpdests_built = true;
  }
  return f.local_jumpdests;
}

EvmResult Interpreter::Execute(const Message& msg) {
  const Bytes* code = host_->GetCode(msg.code_address);
  if (code == nullptr || code->empty()) {
    return {EvmStatus::kSuccess, msg.gas, {}};
  }
  return RunFrame(msg, *code);
}

EvmResult Interpreter::RunFrame(const Message& msg, const Bytes& code) {
  Frame f;
  f.msg = &msg;
  f.code = &code;
  f.gas = msg.gas;
  f.stack.reserve(64);
  if (provider_ != nullptr) {
    f.analysis = provider_->Analyze(code, host_->GetCodeHash(msg.code_address));
  }
  if (tracer_ != nullptr) {
    tracer_->OnFrameEnter(msg);
  }

  U256 output_off;
  Bytes output;
  EvmStatus status = EvmStatus::kSuccess;

  while (true) {
    if (f.halted) {
      status = f.halt;
      break;
    }
    if (f.pc >= code.size()) {
      status = EvmStatus::kSuccess;  // Implicit STOP.
      break;
    }

    Opcode op = static_cast<Opcode>(code[f.pc]);
    const OpcodeTraits& traits = TraitsOf(op);
    if (!traits.defined || op == Opcode::kInvalid) {
      status = EvmStatus::kInvalidInstruction;
      f.gas = 0;
      break;
    }
    if (f.stack.size() < static_cast<size_t>(traits.stack_pops)) {
      status = EvmStatus::kStackUnderflow;
      f.gas = 0;
      break;
    }
    if (f.stack.size() - static_cast<size_t>(traits.stack_pops) +
            static_cast<size_t>(traits.stack_pushes) > kMaxStack) {
      status = EvmStatus::kStackOverflow;
      f.gas = 0;
      break;
    }
    if (!f.Charge(traits.const_gas)) {
      status = EvmStatus::kOutOfGas;
      break;
    }
    ++stats_.instructions;
    size_t next_pc = f.pc + 1;

    // --- Generic classes first. ---
    if (IsPush(op)) {
      // The immediate decodes from a stack buffer; bytes past the end of the
      // code read as zero.
      size_t n = static_cast<size_t>(PushSize(op));
      std::array<uint8_t, 32> imm{};
      if (next_pc < code.size()) {
        std::memcpy(imm.data(), code.data() + next_pc, std::min(n, code.size() - next_pc));
      }
      f.Push(U256::FromBigEndian(BytesView(imm.data(), n)));
      if (tracer_ != nullptr) {
        tracer_->OnPush();
      }
      f.pc = next_pc + n;
      continue;
    }
    if (IsDup(op)) {
      int n = DupIndex(op);
      f.Push(f.stack[f.stack.size() - static_cast<size_t>(n)]);
      if (tracer_ != nullptr) {
        tracer_->OnDup(n);
      }
      f.pc = next_pc;
      continue;
    }
    if (IsSwap(op)) {
      int n = SwapIndex(op);
      std::swap(f.stack[f.stack.size() - 1], f.stack[f.stack.size() - 1 - static_cast<size_t>(n)]);
      if (tracer_ != nullptr) {
        tracer_->OnSwap(n);
      }
      f.pc = next_pc;
      continue;
    }
    if (IsPureOp(op)) {
      std::array<U256, 3> ops;
      int pops = traits.stack_pops;
      for (int i = 0; i < pops; ++i) {
        ops[static_cast<size_t>(i)] = f.Pop();
      }
      if (op == Opcode::kExp) {
        if (!f.Charge(kExpByteGas * ops[1].ByteLength())) {
          continue;
        }
      }
      U256 result = EvalPure(op, std::span<const U256>(ops.data(), static_cast<size_t>(pops)));
      f.Push(result);
      if (tracer_ != nullptr) {
        tracer_->OnPureOp(op, std::span<const U256>(ops.data(), static_cast<size_t>(pops)),
                          result);
      }
      f.pc = next_pc;
      continue;
    }
    if (IsLog(op)) {
      if (msg.is_static) {
        status = EvmStatus::kStaticModeViolation;
        f.gas = 0;
        break;
      }
      int topics = LogTopics(op);
      std::array<U256, 6> ops;
      for (int i = 0; i < 2 + topics; ++i) {
        ops[static_cast<size_t>(i)] = f.Pop();
      }
      const U256& len = ops[1];
      if (!len.FitsUint64() ||
          !f.Charge(kLogTopicGas * topics +
                    kLogDataGas * static_cast<int64_t>(len.AsUint64Saturated())) ||
          !f.Expand(ops[0], len)) {
        continue;
      }
      // Event payloads do not affect the world state; nothing else to do.
      if (tracer_ != nullptr) {
        tracer_->OnOpaqueOp(op, std::span<const U256>(ops.data(), static_cast<size_t>(2 + topics)),
                            0);
      }
      f.pc = next_pc;
      continue;
    }

    switch (op) {
      case Opcode::kStop:
        status = EvmStatus::kSuccess;
        break;
      case Opcode::kReturn:
      case Opcode::kRevert: {
        U256 off = f.Pop();
        U256 len = f.Pop();
        if (!f.Expand(off, len)) {
          continue;
        }
        if (!len.IsZero()) {
          output.assign(f.memory.begin() + static_cast<long>(off.AsUint64()),
                        f.memory.begin() + static_cast<long>(off.AsUint64() + len.AsUint64()));
          output_off = off;
        }
        status = op == Opcode::kReturn ? EvmStatus::kSuccess : EvmStatus::kRevert;
        break;
      }

      case Opcode::kAddress:
        f.Push(U256::FromAddress(msg.storage_address));
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kOrigin:
        f.Push(U256::FromAddress(tx_->origin));
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kCaller:
        f.Push(U256::FromAddress(msg.caller));
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kCallvalue:
        f.Push(msg.value);
        if (tracer_ != nullptr) {
          tracer_->OnCallValue();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kGasprice:
        f.Push(tx_->gas_price);
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kCalldatasize:
        f.Push(U256(msg.data.size()));
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kCodesize:
        f.Push(U256(code.size()));
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kReturndatasize:
        f.Push(U256(f.returndata.size()));
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kCoinbase:
        f.Push(U256::FromAddress(block_->coinbase));
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kTimestamp:
        f.Push(block_->timestamp);
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kNumber:
        f.Push(block_->number);
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kPrevrandao:
        f.Push(block_->prevrandao);
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kGaslimit:
        f.Push(block_->gas_limit);
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kChainid:
        f.Push(block_->chain_id);
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kBasefee:
        f.Push(block_->base_fee);
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kPc:
        f.Push(U256(f.pc));
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kMsize:
        f.Push(U256(f.memory.size()));
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kGas:
        f.Push(U256(static_cast<uint64_t>(f.gas)));
        if (tracer_ != nullptr) {
          tracer_->OnPush();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kPop:
        f.Pop();
        if (tracer_ != nullptr) {
          tracer_->OnPop();
        }
        f.pc = next_pc;
        continue;
      case Opcode::kJumpdest:
        f.pc = next_pc;
        continue;

      case Opcode::kCalldataload: {
        U256 off = f.Pop();
        Bytes word(32, 0);
        if (off.FitsUint64() && off.AsUint64() < msg.data.size()) {
          uint64_t o = off.AsUint64();
          size_t n = std::min<size_t>(32, msg.data.size() - o);
          std::memcpy(word.data(), msg.data.data() + o, n);
        }
        U256 result = U256::FromBigEndian(word);
        f.Push(result);
        if (tracer_ != nullptr) {
          tracer_->OnCalldataLoad(off, result);
        }
        f.pc = next_pc;
        continue;
      }
      case Opcode::kBalance: {
        U256 a = f.Pop();
        Address addr = a.ToAddress();
        U256 bal = host_->GetBalance(addr);
        ++stats_.sloads;
        if (host_->ShouldAbortExecution()) {
          status = EvmStatus::kDependencyAbort;
          break;
        }
        f.Push(bal);
        if (tracer_ != nullptr) {
          tracer_->OnBalanceRead(op, addr, bal, /*has_operand=*/true);
        }
        f.pc = next_pc;
        continue;
      }
      case Opcode::kSelfbalance: {
        U256 bal = host_->GetBalance(msg.storage_address);
        ++stats_.sloads;
        if (host_->ShouldAbortExecution()) {
          status = EvmStatus::kDependencyAbort;
          break;
        }
        f.Push(bal);
        if (tracer_ != nullptr) {
          tracer_->OnBalanceRead(op, msg.storage_address, bal, /*has_operand=*/false);
        }
        f.pc = next_pc;
        continue;
      }
      case Opcode::kExtcodesize: {
        U256 a = f.Pop();
        const Bytes* c = host_->GetCode(a.ToAddress());
        f.Push(U256(c == nullptr ? 0 : c->size()));
        if (tracer_ != nullptr) {
          std::array<U256, 1> ops = {a};
          tracer_->OnOpaqueOp(op, ops, 1);
        }
        f.pc = next_pc;
        continue;
      }
      case Opcode::kExtcodehash: {
        U256 a = f.Pop();
        const Bytes* c = host_->GetCode(a.ToAddress());
        f.Push(c == nullptr ? U256{} : Keccak256Word(*c));
        if (tracer_ != nullptr) {
          std::array<U256, 1> ops = {a};
          tracer_->OnOpaqueOp(op, ops, 1);
        }
        f.pc = next_pc;
        continue;
      }
      case Opcode::kBlockhash: {
        U256 n = f.Pop();
        // Synthetic but deterministic block hashes.
        std::array<uint8_t, 32> be = n.ToBigEndian();
        f.Push(Keccak256Word(BytesView(be.data(), be.size())));
        if (tracer_ != nullptr) {
          std::array<U256, 1> ops = {n};
          tracer_->OnOpaqueOp(op, ops, 1);
        }
        f.pc = next_pc;
        continue;
      }

      case Opcode::kMload: {
        U256 off = f.Pop();
        if (!f.Expand(off, U256(32))) {
          continue;
        }
        uint64_t o = off.AsUint64();
        U256 result = U256::FromBigEndian(f.MemView(o, 32));
        f.Push(result);
        if (tracer_ != nullptr) {
          tracer_->OnMload(off, f.MemView(o, 32));
        }
        f.pc = next_pc;
        continue;
      }
      case Opcode::kMstore: {
        U256 off = f.Pop();
        U256 value = f.Pop();
        if (!f.Expand(off, U256(32))) {
          continue;
        }
        std::array<uint8_t, 32> be = value.ToBigEndian();
        std::memcpy(f.memory.data() + off.AsUint64(), be.data(), 32);
        if (tracer_ != nullptr) {
          tracer_->OnMstore(op, off, value);
        }
        f.pc = next_pc;
        continue;
      }
      case Opcode::kMstore8: {
        U256 off = f.Pop();
        U256 value = f.Pop();
        if (!f.Expand(off, U256(1))) {
          continue;
        }
        f.memory[off.AsUint64()] = static_cast<uint8_t>(value.limb(0) & 0xff);
        if (tracer_ != nullptr) {
          tracer_->OnMstore(op, off, value);
        }
        f.pc = next_pc;
        continue;
      }
      case Opcode::kCalldatacopy:
      case Opcode::kCodecopy:
      case Opcode::kReturndatacopy: {
        std::array<U256, 3> ops = {f.Pop(), f.Pop(), f.Pop()};  // dst, src, len.
        const U256& len = ops[2];
        if (!len.FitsUint64() ||
            !f.Charge(kCopyWordGas * static_cast<int64_t>(WordCount(len.AsUint64Saturated())))) {
          if (!f.halted) {
            f.Fail(EvmStatus::kOutOfGas);
          }
          continue;
        }
        if (!f.Expand(ops[0], len)) {
          continue;
        }
        uint64_t n = len.AsUint64();
        BytesView src_buf;
        CopySource source = CopySource::kCalldata;
        if (op == Opcode::kCalldatacopy) {
          src_buf = msg.data;
        } else if (op == Opcode::kCodecopy) {
          src_buf = code;
          source = CopySource::kCode;
        } else {
          src_buf = f.returndata;
          source = CopySource::kReturndata;
          // EIP-211: reading past the end of returndata is an exceptional halt.
          if (!ops[1].FitsUint64() || ops[1].AsUint64() + n > src_buf.size()) {
            f.Fail(EvmStatus::kOutOfGas);
            continue;
          }
        }
        uint64_t src = ops[1].AsUint64Saturated();
        if (n > 0) {
          uint64_t dst = ops[0].AsUint64();
          for (uint64_t i = 0; i < n; ++i) {
            f.memory[dst + i] = (src + i < src_buf.size()) ? src_buf[src + i] : 0;
          }
          if (tracer_ != nullptr) {
            tracer_->OnMemCopy(source, ops, dst, src, n);
          }
        }
        f.pc = next_pc;
        continue;
      }
      case Opcode::kExtcodecopy: {
        std::array<U256, 4> ops = {f.Pop(), f.Pop(), f.Pop(), f.Pop()};  // addr, dst, src, len.
        const U256& len = ops[3];
        if (!len.FitsUint64() ||
            !f.Charge(kCopyWordGas * static_cast<int64_t>(WordCount(len.AsUint64Saturated())))) {
          if (!f.halted) {
            f.Fail(EvmStatus::kOutOfGas);
          }
          continue;
        }
        if (!f.Expand(ops[1], len)) {
          continue;
        }
        uint64_t n = len.AsUint64();
        if (n > 0) {
          const Bytes* ext = host_->GetCode(ops[0].ToAddress());
          uint64_t dst = ops[1].AsUint64();
          uint64_t src = ops[2].AsUint64Saturated();
          for (uint64_t i = 0; i < n; ++i) {
            f.memory[dst + i] = (ext != nullptr && src + i < ext->size()) ? (*ext)[src + i] : 0;
          }
          if (tracer_ != nullptr) {
            tracer_->OnMemCopy(CopySource::kCode, ops, dst, src, n);
          }
        }
        f.pc = next_pc;
        continue;
      }
      case Opcode::kSha3: {
        std::array<U256, 2> ops = {f.Pop(), f.Pop()};  // off, len.
        const U256& len = ops[1];
        if (!len.FitsUint64() ||
            !f.Charge(kSha3WordGas * static_cast<int64_t>(WordCount(len.AsUint64Saturated())))) {
          if (!f.halted) {
            f.Fail(EvmStatus::kOutOfGas);
          }
          continue;
        }
        if (!f.Expand(ops[0], len)) {
          continue;
        }
        BytesView data =
            len.IsZero() ? BytesView{} : f.MemView(ops[0].AsUint64(), len.AsUint64());
        U256 result = Keccak256Word(data);
        stats_.sha3_words += WordCount(data.size());
        f.Push(result);
        if (tracer_ != nullptr) {
          tracer_->OnSha3(ops, data, result);
        }
        f.pc = next_pc;
        continue;
      }

      case Opcode::kSload: {
        U256 slot = f.Pop();
        U256 value = host_->GetStorage(msg.storage_address, slot);
        ++stats_.sloads;
        if (host_->ShouldAbortExecution()) {
          status = EvmStatus::kDependencyAbort;
          break;
        }
        f.Push(value);
        if (tracer_ != nullptr) {
          tracer_->OnSload(msg.storage_address, slot, value);
        }
        f.pc = next_pc;
        continue;
      }
      case Opcode::kSstore: {
        if (msg.is_static) {
          status = EvmStatus::kStaticModeViolation;
          f.gas = 0;
          break;
        }
        U256 slot = f.Pop();
        U256 value = f.Pop();
        U256 current = host_->GetStorage(msg.storage_address, slot);
        if (host_->ShouldAbortExecution()) {
          status = EvmStatus::kDependencyAbort;
          break;
        }
        int64_t dyn = (current.IsZero() && !value.IsZero()) ? kSstoreSetGas : kSstoreResetGas;
        if (!f.Charge(dyn)) {
          continue;
        }
        host_->SetStorage(msg.storage_address, slot, value);
        ++stats_.sstores;
        stats_.sstore_gas += static_cast<uint64_t>(dyn);
        if (tracer_ != nullptr) {
          tracer_->OnSstore(msg.storage_address, slot, value, dyn);
        }
        f.pc = next_pc;
        continue;
      }

      case Opcode::kJump: {
        U256 dest = f.Pop();
        if (tracer_ != nullptr) {
          tracer_->OnJump(dest);
        }
        const std::vector<bool>& map = Jumpdests(f);
        if (!dest.FitsUint64() || dest.AsUint64() >= map.size() || !map[dest.AsUint64()]) {
          status = EvmStatus::kBadJumpDestination;
          f.gas = 0;
          break;
        }
        f.pc = dest.AsUint64();
        continue;
      }
      case Opcode::kJumpi: {
        U256 dest = f.Pop();
        U256 cond = f.Pop();
        if (tracer_ != nullptr) {
          tracer_->OnJumpi(dest, cond);
        }
        if (cond.IsZero()) {
          f.pc = next_pc;
          continue;
        }
        const std::vector<bool>& map = Jumpdests(f);
        if (!dest.FitsUint64() || dest.AsUint64() >= map.size() || !map[dest.AsUint64()]) {
          status = EvmStatus::kBadJumpDestination;
          f.gas = 0;
          break;
        }
        f.pc = dest.AsUint64();
        continue;
      }

      case Opcode::kCall:
      case Opcode::kDelegatecall:
      case Opcode::kStaticcall: {
        EvmStatus call_status = DoCall(f, op) ? EvmStatus::kSuccess : f.halt;
        if (call_status != EvmStatus::kSuccess) {
          status = call_status;
          break;
        }
        f.pc = next_pc;
        continue;
      }

      default:
        status = EvmStatus::kInvalidInstruction;
        f.gas = 0;
        break;
    }
    break;  // Any path that did not `continue` halts the frame.
  }

  if (f.halted && status == EvmStatus::kSuccess) {
    status = f.halt;
  }
  if (IsExceptionalHalt(status)) {
    f.gas = 0;
    output.clear();
    output_off = U256{};
  }
  if (tracer_ != nullptr) {
    tracer_->OnFrameExit(status, output_off.AsUint64Saturated(), output);
  }
  return {status, f.gas, std::move(output)};
}

bool Interpreter::DoCall(Frame& f, Opcode op) {
  ++stats_.calls;
  const Message& msg = *f.msg;
  bool has_value = op == Opcode::kCall;
  std::array<U256, 7> ops;
  size_t n_ops = has_value ? 7 : 6;
  for (size_t i = 0; i < n_ops; ++i) {
    ops[i] = f.Pop();
  }
  const U256& req_gas = ops[0];
  Address to = ops[1].ToAddress();
  U256 value = has_value ? ops[2] : U256{};
  const U256& in_off = ops[has_value ? 3 : 2];
  const U256& in_len = ops[has_value ? 4 : 3];
  const U256& out_off = ops[has_value ? 5 : 4];
  const U256& out_len = ops[has_value ? 6 : 5];

  if (msg.is_static && !value.IsZero()) {
    f.Fail(EvmStatus::kStaticModeViolation);
    f.gas = 0;
    return false;
  }
  if (!value.IsZero() && !f.Charge(kCallValueGas)) {
    return false;
  }
  if (!f.Expand(in_off, in_len) || !f.Expand(out_off, out_len)) {
    return false;
  }

  // EIP-150: forward at most 63/64 of the remaining gas. Requested amounts
  // beyond int64 range (adversarial PUSHes) clamp to the cap.
  int64_t cap = f.gas - f.gas / 64;
  bool req_small = req_gas.FitsUint64() &&
                   req_gas.AsUint64() <= static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) &&
                   static_cast<int64_t>(req_gas.AsUint64()) < cap;
  int64_t fwd = req_small ? static_cast<int64_t>(req_gas.AsUint64()) : cap;
  if (!f.Charge(fwd)) {
    return false;
  }
  if (!value.IsZero()) {
    fwd += kCallStipend;
  }

  // Build the callee message.
  Message child;
  child.call_kind = op;
  child.code_address = to;
  child.caller = msg.storage_address;
  child.value = value;
  child.is_static = msg.is_static || op == Opcode::kStaticcall;
  child.depth = msg.depth + 1;
  child.gas = fwd;
  if (op == Opcode::kDelegatecall) {
    child.storage_address = msg.storage_address;
    child.caller = msg.caller;
    child.value = msg.value;
  } else {
    child.storage_address = to;
  }
  if (!in_len.IsZero()) {
    uint64_t o = in_off.AsUint64();
    uint64_t n = in_len.AsUint64();
    child.data.assign(f.memory.begin() + static_cast<long>(o),
                      f.memory.begin() + static_cast<long>(o + n));
  }

  if (tracer_ != nullptr) {
    tracer_->OnCall(op, std::span<const U256>(ops.data(), n_ops), child);
  }

  bool success = false;
  f.returndata.clear();
  if (msg.depth + 1 > kMaxCallDepth) {
    f.gas += fwd;  // Not consumed.
    if (tracer_ != nullptr) {
      tracer_->OnCallSkipped(EvmStatus::kCallDepthExceeded);
    }
  } else if (!value.IsZero() && host_->GetBalance(msg.storage_address) < value) {
    f.gas += fwd;
    if (tracer_ != nullptr) {
      tracer_->OnCallSkipped(EvmStatus::kInsufficientBalance);
    }
  } else {
    size_t snapshot = host_->Snapshot();
    if (!value.IsZero()) {
      U256 from_before = host_->GetBalance(msg.storage_address);
      host_->SetBalance(msg.storage_address, from_before - value);
      // Credit reads after the debit so a self-call with value nets to zero
      // (SubBalance/AddBalance order), matching the SSA log's dataflow.
      U256 to_before = host_->GetBalance(to);
      host_->SetBalance(to, to_before + value);
      if (tracer_ != nullptr) {
        tracer_->OnValueTransfer(msg.storage_address, from_before, to, to_before, value);
      }
    }
    const Bytes* code = host_->GetCode(child.code_address);
    EvmResult r;
    if (code == nullptr || code->empty()) {
      r = {EvmStatus::kSuccess, child.gas, {}};
    } else {
      r = RunFrame(child, *code);
    }
    if (r.status == EvmStatus::kDependencyAbort) {
      f.Fail(EvmStatus::kDependencyAbort);
      return false;
    }
    success = r.status == EvmStatus::kSuccess;
    if (!success) {
      host_->RevertToSnapshot(snapshot);
    }
    f.returndata = std::move(r.output);
    f.gas += r.gas_left;
  }

  // Copy the returndata prefix into the caller's output area.
  uint64_t written = 0;
  if (!out_len.IsZero()) {
    uint64_t dst = out_off.AsUint64();
    written = std::min<uint64_t>(out_len.AsUint64(), f.returndata.size());
    if (written > 0) {
      std::memcpy(f.memory.data() + dst, f.returndata.data(), written);
    }
  }
  f.Push(U256(success ? 1 : 0));
  if (tracer_ != nullptr) {
    tracer_->OnCallDone(out_off.AsUint64Saturated(), written, success);
  }
  return true;
}

}  // namespace pevm
