// Unit and scenario tests for the SSA operation log (§5.2) and the redo
// phase (§5.3). The central properties:
//   1. Log faithfulness: WriteSetFromLog == the StateView write set.
//   2. Compactness: the log is a small fraction of executed instructions.
//   3. Redo correctness: patching conflicts and partially re-executing gives
//      exactly the state a full serial re-execution would give (Lemma 2).
//   4. Guard soundness: when re-execution would diverge (control flow, gas,
//      addresses), the redo aborts instead of committing a wrong state.
#include <gtest/gtest.h>

#include "src/core/redo.h"
#include "src/core/ssa_builder.h"
#include "src/exec/apply.h"
#include "src/state/state_view.h"
#include "src/workload/assembler.h"
#include "src/workload/contracts.h"

namespace pevm {
namespace {

const Address kOwner = Address::FromId(0xAAA);       // "A" in the paper's example.
const Address kSpenderD = Address::FromId(0xD0D);
const Address kSpenderE = Address::FromId(0xE0E);
const Address kRecipB = Address::FromId(0xB0B);
const Address kRecipC = Address::FromId(0xCCC);
const Address kToken = Address::FromId(0x70CE);

class SsaScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    genesis_.SetCode(kToken, BuildErc20Code());
    genesis_.SetStorage(kToken, Erc20BalanceSlot(kOwner), U256(100));
    genesis_.SetStorage(kToken, Erc20AllowanceSlot(kOwner, kSpenderD), U256(1'000'000));
    genesis_.SetStorage(kToken, Erc20AllowanceSlot(kOwner, kSpenderE), U256(1'000'000));
    for (const Address& a : {kOwner, kSpenderD, kSpenderE, kRecipB, kRecipC}) {
      genesis_.SetBalance(a, U256::Exp(U256(10), U256(18)));
    }
  }

  static Transaction TransferFromTx(const Address& spender, const Address& owner,
                                    const Address& to, uint64_t amount) {
    Transaction tx;
    tx.from = spender;
    tx.to = kToken;
    tx.data = Erc20TransferFromCall(owner, to, U256(amount));
    tx.gas_limit = 200'000;
    tx.gas_price = U256(1);
    return tx;
  }

  struct Spec {
    Receipt receipt;
    ReadSet reads;
    WriteSet writes;
    TxLog log;
  };

  // Speculatively executes `tx` against `base` with SSA logging.
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

  // Computes the conflict map of `spec` against the current `state`.
  ConflictMap FindConflicts(const Spec& spec, const WorldState& state) {
    ConflictMap conflicts;
    for (const auto& [key, observed] : spec.reads) {
      U256 current = state.Get(key);
      if (current != observed) {
        conflicts.emplace(key, current);
      }
    }
    return conflicts;
  }

  WorldState genesis_;
  BlockContext block_;
};

TEST_F(SsaScenarioTest, WriteSetReconstructionMatchesView) {
  Transaction tx = TransferFromTx(kSpenderD, kOwner, kRecipB, 10);
  Spec spec = Speculate(genesis_, tx);
  ASSERT_TRUE(spec.receipt.valid);
  ASSERT_EQ(spec.receipt.status, EvmStatus::kSuccess);
  ASSERT_TRUE(spec.log.redoable);
  WriteSet rebuilt = WriteSetFromLog(spec.log);
  EXPECT_EQ(rebuilt.size(), spec.writes.size());
  for (const auto& [key, value] : spec.writes) {
    ASSERT_TRUE(rebuilt.contains(key)) << key.ToString();
    EXPECT_EQ(rebuilt.at(key), value) << key.ToString();
  }
}

TEST_F(SsaScenarioTest, LogIsSmallFractionOfInstructions) {
  Transaction tx = TransferFromTx(kSpenderD, kOwner, kRecipB, 10);
  Spec spec = Speculate(genesis_, tx);
  // The paper reports logs ~5% of executed instructions (their contracts are
  // solc-compiled and much larger); our hand-assembled token is an order of
  // magnitude leaner, so the bound is proportionally looser — the point is
  // that constant folding drops the bulk of the instruction stream.
  EXPECT_GT(spec.receipt.stats.instructions, 80u);
  EXPECT_LT(spec.log.size() * 3, spec.receipt.stats.instructions);
}

TEST_F(SsaScenarioTest, DirectReadsCoverCommittedKeys) {
  Transaction tx = TransferFromTx(kSpenderD, kOwner, kRecipB, 10);
  Spec spec = Speculate(genesis_, tx);
  // Every read-set key must either have a type-I source entry or be covered
  // by an SSTORE gas recheck — otherwise the redo phase could not repair a
  // conflict on it.
  for (const auto& [key, value] : spec.reads) {
    EXPECT_TRUE(spec.log.DirectRead(key) != kNullLsn ||
                spec.log.CommittedPriorSstore(key) != kNullLsn)
        << key.ToString();
  }
}

// The paper's §3.2 scenario: tx1 = transferFrom_D(A, B, v1) and
// tx2 = transferFrom_E(A, C, v2) conflict on balances[A] only; the redo phase
// repairs tx2 instead of re-executing it.
TEST_F(SsaScenarioTest, PaperScenarioRedoRepairsBalanceConflict) {
  Transaction tx1 = TransferFromTx(kSpenderD, kOwner, kRecipB, 10);
  Transaction tx2 = TransferFromTx(kSpenderE, kOwner, kRecipC, 20);

  // Oracle: serial execution.
  WorldState serial = genesis_;
  {
    StateView v1(serial);
    ASSERT_EQ(ApplyTransaction(v1, block_, tx1).status, EvmStatus::kSuccess);
    serial.Apply(v1.write_set());
    StateView v2(serial);
    ASSERT_EQ(ApplyTransaction(v2, block_, tx2).status, EvmStatus::kSuccess);
    serial.Apply(v2.write_set());
  }
  ASSERT_EQ(serial.GetStorage(kToken, Erc20BalanceSlot(kOwner)), U256(70));

  // Parallel: both speculate against genesis; tx1 commits; tx2 conflicts.
  WorldState state = genesis_;
  Spec s1 = Speculate(state, tx1);
  Spec s2 = Speculate(state, tx2);
  state.Apply(s1.writes);

  ConflictMap conflicts = FindConflicts(s2, state);
  ASSERT_FALSE(conflicts.empty());
  // The only conflicting key is balances[A] (the sender ether balances are
  // disjoint).
  ASSERT_TRUE(conflicts.contains(StateKey::Storage(kToken, Erc20BalanceSlot(kOwner))));

  RedoResult redo = RunRedo(s2.log, conflicts,
                            [&](const StateKey& k) { return state.Get(k); });
  ASSERT_TRUE(redo.success);
  // Only a handful of operations re-execute (paper: ~7 on average).
  EXPECT_LE(redo.reexecuted, 16u);
  EXPECT_GT(redo.reexecuted, 0u);

  state.Apply(redo.write_set);
  // Coinbase fees are deferred in both runs (none credited here), so states
  // must now be identical.
  EXPECT_EQ(state.Digest(), serial.Digest());
  EXPECT_EQ(HexEncode(state.StateRoot()), HexEncode(serial.StateRoot()));
  EXPECT_EQ(state.GetStorage(kToken, Erc20BalanceSlot(kOwner)), U256(70));
  EXPECT_EQ(state.GetStorage(kToken, Erc20BalanceSlot(kRecipC)), U256(20));
}

// Constraint-guard abort: after tx1 drains A, tx2's require(balance >= v)
// takes the other branch — the JUMPI condition guard must fail and the redo
// must abort (paper §3.2 "constraint guards").
TEST_F(SsaScenarioTest, GuardAbortsWhenBalanceBecomesInsufficient) {
  Transaction tx1 = TransferFromTx(kSpenderD, kOwner, kRecipB, 95);
  Transaction tx2 = TransferFromTx(kSpenderE, kOwner, kRecipC, 20);  // 20 > 100-95.

  WorldState state = genesis_;
  Spec s1 = Speculate(state, tx1);
  Spec s2 = Speculate(state, tx2);
  ASSERT_EQ(s2.receipt.status, EvmStatus::kSuccess);  // Speculatively fine.
  state.Apply(s1.writes);

  ConflictMap conflicts = FindConflicts(s2, state);
  ASSERT_FALSE(conflicts.empty());
  RedoResult redo = RunRedo(s2.log, conflicts,
                            [&](const StateKey& k) { return state.Get(k); });
  EXPECT_FALSE(redo.success);
}

TEST_F(SsaScenarioTest, RedoWithEmptyConflictsIsIdentity) {
  Transaction tx = TransferFromTx(kSpenderD, kOwner, kRecipB, 10);
  Spec spec = Speculate(genesis_, tx);
  WorldState state = genesis_;
  RedoResult redo = RunRedo(spec.log, {}, [&](const StateKey& k) { return state.Get(k); });
  ASSERT_TRUE(redo.success);
  EXPECT_EQ(redo.reexecuted, 0u);
  for (const auto& [key, value] : spec.writes) {
    EXPECT_EQ(redo.write_set.at(key), value);
  }
}

TEST_F(SsaScenarioTest, RevertedTransactionIsNotRedoable) {
  // Amount exceeds the owner's balance: the token reverts.
  Transaction tx = TransferFromTx(kSpenderD, kOwner, kRecipB, 500);
  Spec spec = Speculate(genesis_, tx);
  EXPECT_EQ(spec.receipt.status, EvmStatus::kRevert);
  EXPECT_FALSE(spec.log.redoable);
  RedoResult redo = RunRedo(spec.log, {{StateKey::Balance(kOwner), U256(1)}},
                            [&](const StateKey& k) { return genesis_.Get(k); });
  EXPECT_FALSE(redo.success);
}

TEST_F(SsaScenarioTest, NonceConflictForcesFullReexecution) {
  // Two native transfers from the same sender: tx2 speculates with a stale
  // nonce, is invalid, and the nonce ASSERT_EQ can never be repaired.
  Transaction tx1;
  tx1.from = kSpenderD;
  tx1.to = kRecipB;
  tx1.value = U256(5);
  tx1.gas_limit = 50'000;
  tx1.gas_price = U256(1);
  tx1.nonce = 0;
  Transaction tx2 = tx1;
  tx2.nonce = 1;

  WorldState state = genesis_;
  Spec s1 = Speculate(state, tx1);
  Spec s2 = Speculate(state, tx2);  // Sees nonce 0, expects 1: invalid.
  EXPECT_TRUE(s1.receipt.valid);
  EXPECT_FALSE(s2.receipt.valid);
  EXPECT_FALSE(s2.log.redoable);
  state.Apply(s1.writes);
  ConflictMap conflicts = FindConflicts(s2, state);
  EXPECT_TRUE(conflicts.contains(StateKey::Nonce(kSpenderD)));
  EXPECT_FALSE(RunRedo(s2.log, conflicts, [&](const StateKey& k) {
                 return state.Get(k);
               }).success);
}

// Native ether transfers: the envelope's pseudo-ops (debit/credit/nonce) are
// repaired at operation level just like SLOAD/SSTORE.
TEST_F(SsaScenarioTest, NativeTransferBalanceConflictRepaired) {
  // tx1: D -> B; tx2: B -> C. tx2's upfront read of B's balance goes stale.
  Transaction tx1;
  tx1.from = kSpenderD;
  tx1.to = kRecipB;
  tx1.value = U256(1000);
  tx1.gas_limit = 50'000;
  tx1.gas_price = U256(1);
  Transaction tx2;
  tx2.from = kRecipB;
  tx2.to = kRecipC;
  tx2.value = U256(7);
  tx2.gas_limit = 50'000;
  tx2.gas_price = U256(1);

  WorldState serial = genesis_;
  {
    StateView v1(serial);
    ApplyTransaction(v1, block_, tx1);
    serial.Apply(v1.write_set());
    StateView v2(serial);
    ApplyTransaction(v2, block_, tx2);
    serial.Apply(v2.write_set());
  }

  WorldState state = genesis_;
  Spec s1 = Speculate(state, tx1);
  Spec s2 = Speculate(state, tx2);
  state.Apply(s1.writes);
  ConflictMap conflicts = FindConflicts(s2, state);
  ASSERT_EQ(conflicts.size(), 1u);
  ASSERT_TRUE(conflicts.contains(StateKey::Balance(kRecipB)));
  RedoResult redo = RunRedo(s2.log, conflicts,
                            [&](const StateKey& k) { return state.Get(k); });
  ASSERT_TRUE(redo.success);
  state.Apply(redo.write_set);
  EXPECT_EQ(state.Digest(), serial.Digest());
}

// SSTORE dynamic-gas constraint: when a conflicting write flips a slot's
// zero-ness, the first SSTORE's recorded gas no longer matches and the redo
// must abort (gas-flow constraints, §5.2.4).
TEST_F(SsaScenarioTest, SstoreGasGuardAbortsOnZeronessFlip) {
  // A bare contract: SSTORE(slot 9, CALLDATALOAD(4)).
  Assembler a;
  a.Push(4).Op(Opcode::kCalldataload).Push(9).Op(Opcode::kSstore).Op(Opcode::kStop);
  Address plain = Address::FromId(0x9999);
  genesis_.SetCode(plain, a.Build());
  // Slot 9 is zero at speculation: the SSTORE charges the 20000 "set" cost.
  Transaction tx;
  tx.from = kSpenderD;
  tx.to = plain;
  tx.data = Bytes(4, 0);
  std::array<uint8_t, 32> amount = U256(77).ToBigEndian();
  tx.data.insert(tx.data.end(), amount.begin(), amount.end());
  tx.gas_limit = 100'000;
  tx.gas_price = U256(1);

  Spec spec = Speculate(genesis_, tx);
  ASSERT_EQ(spec.receipt.status, EvmStatus::kSuccess);
  ASSERT_TRUE(spec.log.redoable);

  // Another transaction committed 5 into slot 9: the store would now be a
  // 5000-gas reset, changing the fee -> redo must refuse.
  StateKey slot9 = StateKey::Storage(plain, U256(9));
  ConflictMap conflicts{{slot9, U256(5)}};
  WorldState state = genesis_;
  state.Set(slot9, U256(5));
  EXPECT_FALSE(RunRedo(spec.log, conflicts, [&](const StateKey& k) {
                 return state.Get(k);
               }).success);

  // A conflict that keeps the slot zero... cannot exist (values equal means
  // no conflict), but a nonzero->nonzero flip on a reset store is fine:
  // rebuild with slot 9 pre-set so the speculation charges 5000.
  WorldState base2 = genesis_;
  base2.SetStorage(plain, U256(9), U256(3));
  Spec spec2 = Speculate(base2, tx);
  ASSERT_TRUE(spec2.log.redoable);
  WorldState state2 = base2;
  state2.Set(slot9, U256(4));  // Still nonzero: gas unchanged.
  EXPECT_TRUE(RunRedo(spec2.log, {{slot9, U256(4)}}, [&](const StateKey& k) {
                return state2.Get(k);
              }).success);
}

// Data flows through memory and SHA3: a conflicting SLOAD result feeds an
// MSTORE, is hashed, and the hash picks the target slot. The slot address
// would change -> the address guard must abort the redo.
TEST_F(SsaScenarioTest, AddressGuardAbortsWhenSlotDerivedFromConflict) {
  // code: v = SLOAD(0); MSTORE(0, v); h = SHA3(0, 32); SSTORE(h, 1).
  Assembler a;
  a.Push(0).Op(Opcode::kSload);
  a.Push(0).Op(Opcode::kMstore);
  a.Push(0x20).Push(0).Op(Opcode::kSha3);
  a.Push(1).Op(Opcode::kSwap1).Op(Opcode::kSstore);
  a.Op(Opcode::kStop);
  Address hasher = Address::FromId(0x8888);
  genesis_.SetCode(hasher, a.Build());
  genesis_.SetStorage(hasher, U256(0), U256(11));

  Transaction tx;
  tx.from = kSpenderD;
  tx.to = hasher;
  tx.gas_limit = 200'000;
  tx.gas_price = U256(1);

  Spec spec = Speculate(genesis_, tx);
  ASSERT_EQ(spec.receipt.status, EvmStatus::kSuccess);
  ASSERT_TRUE(spec.log.redoable);

  StateKey slot0 = StateKey::Storage(hasher, U256(0));
  WorldState state = genesis_;
  state.Set(slot0, U256(12));
  // slot = keccak(12) != keccak(11): the SSTORE's guarded slot operand
  // changes -> abort.
  EXPECT_FALSE(RunRedo(spec.log, {{slot0, U256(12)}}, [&](const StateKey& k) {
                 return state.Get(k);
               }).success);
}

// Data flows through memory without changing any address: the redo must
// propagate the patched value through MSTORE -> MLOAD -> SSTORE.
TEST_F(SsaScenarioTest, MemoryChainRepairedByRedo) {
  // code: v = SLOAD(0); MSTORE(0x40, v); w = MLOAD(0x40); SSTORE(1, w+5).
  Assembler a;
  a.Push(0).Op(Opcode::kSload);
  a.Push(0x40).Op(Opcode::kMstore);
  a.Push(0x40).Op(Opcode::kMload);
  a.Push(5).Op(Opcode::kAdd);
  a.Push(1).Op(Opcode::kSstore);
  a.Op(Opcode::kStop);
  Address chain = Address::FromId(0x7777);
  genesis_.SetCode(chain, a.Build());
  genesis_.SetStorage(chain, U256(0), U256(100));

  Transaction tx;
  tx.from = kSpenderD;
  tx.to = chain;
  tx.gas_limit = 200'000;
  tx.gas_price = U256(1);

  Spec spec = Speculate(genesis_, tx);
  ASSERT_EQ(spec.receipt.status, EvmStatus::kSuccess);
  StateKey slot1 = StateKey::Storage(chain, U256(1));
  ASSERT_EQ(spec.writes.at(slot1), U256(105));

  StateKey slot0 = StateKey::Storage(chain, U256(0));
  WorldState state = genesis_;
  state.Set(slot0, U256(200));
  RedoResult redo = RunRedo(spec.log, {{slot0, U256(200)}},
                            [&](const StateKey& k) { return state.Get(k); });
  ASSERT_TRUE(redo.success);
  EXPECT_EQ(redo.write_set.at(slot1), U256(205));
}

// Type-II SLOAD: a read of a slot written earlier in the same transaction
// forwards the (repaired) in-transaction value, not the committed one.
TEST_F(SsaScenarioTest, TypeTwoSloadForwardsRepairedWrite) {
  // code: v = SLOAD(0); SSTORE(1, v); w = SLOAD(1); SSTORE(2, w*2).
  Assembler a;
  a.Push(0).Op(Opcode::kSload);
  a.Push(1).Op(Opcode::kSstore);
  a.Push(1).Op(Opcode::kSload);
  a.Push(2).Op(Opcode::kMul);
  a.Push(2).Op(Opcode::kSstore);
  a.Op(Opcode::kStop);
  Address c = Address::FromId(0x6666);
  genesis_.SetCode(c, a.Build());
  genesis_.SetStorage(c, U256(0), U256(21));

  Transaction tx;
  tx.from = kSpenderD;
  tx.to = c;
  tx.gas_limit = 200'000;
  tx.gas_price = U256(1);
  Spec spec = Speculate(genesis_, tx);
  ASSERT_EQ(spec.receipt.status, EvmStatus::kSuccess);
  ASSERT_EQ(spec.writes.at(StateKey::Storage(c, U256(2))), U256(42));

  StateKey slot0 = StateKey::Storage(c, U256(0));
  WorldState state = genesis_;
  state.Set(slot0, U256(50));
  RedoResult redo = RunRedo(spec.log, {{slot0, U256(50)}},
                            [&](const StateKey& k) { return state.Get(k); });
  ASSERT_TRUE(redo.success);
  EXPECT_EQ(redo.write_set.at(StateKey::Storage(c, U256(1))), U256(50));
  EXPECT_EQ(redo.write_set.at(StateKey::Storage(c, U256(2))), U256(100));
}

}  // namespace
}  // namespace pevm
