// Workload-generator tests: determinism, nonce sequencing, genesis
// invariants, transaction-mix plumbing, and the conflict-sweep block's
// structure.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "src/exec/apply.h"
#include "src/state/state_view.h"
#include "src/workload/assembler.h"
#include "src/workload/block_gen.h"
#include "src/workload/contracts.h"

namespace pevm {
namespace {

WorkloadConfig SmallConfig() {
  WorkloadConfig config;
  config.seed = 99;
  config.transactions_per_block = 60;
  config.users = 1200;
  config.tokens = 6;
  config.pools = 3;
  config.funds = 2;
  return config;
}

TEST(WorkloadTest, GenerationIsDeterministic) {
  WorkloadGenerator a(SmallConfig());
  WorkloadGenerator b(SmallConfig());
  Block block_a = a.MakeBlock();
  Block block_b = b.MakeBlock();
  ASSERT_EQ(block_a.transactions.size(), block_b.transactions.size());
  for (size_t i = 0; i < block_a.transactions.size(); ++i) {
    EXPECT_EQ(block_a.transactions[i].from, block_b.transactions[i].from);
    EXPECT_EQ(block_a.transactions[i].to, block_b.transactions[i].to);
    EXPECT_EQ(block_a.transactions[i].data, block_b.transactions[i].data);
    EXPECT_EQ(block_a.transactions[i].nonce, block_b.transactions[i].nonce);
  }
  EXPECT_EQ(a.MakeGenesis().Digest(), b.MakeGenesis().Digest());
}

TEST(WorkloadTest, GenesisStateRootIsPinned) {
  // Computed before the Keccak, RLP and trie-encoding rewrites; the serial
  // StateRoot oracle every test and bench compares against must not move.
  WorkloadConfig config;
  config.users = 300;
  config.seed = 1;
  const Hash256 root = WorkloadGenerator(config).MakeGenesis().StateRoot();
  EXPECT_EQ(HexEncode(BytesView(root.data(), root.size())),
            "4f1ce76a41eb576b4990907b2eb731274110f30182568e39ac59e4b810d4c4b1");
}

TEST(WorkloadTest, DifferentSeedsDiffer) {
  WorkloadConfig c1 = SmallConfig();
  WorkloadConfig c2 = SmallConfig();
  c2.seed = 100;
  Block b1 = WorkloadGenerator(c1).MakeBlock();
  Block b2 = WorkloadGenerator(c2).MakeBlock();
  bool any_diff = b1.transactions.size() != b2.transactions.size();
  for (size_t i = 0; !any_diff && i < b1.transactions.size(); ++i) {
    any_diff = !(b1.transactions[i].from == b2.transactions[i].from) ||
               b1.transactions[i].data != b2.transactions[i].data;
  }
  EXPECT_TRUE(any_diff);
}

TEST(WorkloadTest, NoncesSequencePerSenderAcrossBlocks) {
  WorkloadGenerator gen(SmallConfig());
  std::unordered_map<Address, uint64_t> expected;
  for (int b = 0; b < 4; ++b) {
    Block block = gen.MakeBlock();
    for (const Transaction& tx : block.transactions) {
      EXPECT_EQ(tx.nonce, expected[tx.from]) << tx.from.ToHex();
      ++expected[tx.from];
    }
  }
}

TEST(WorkloadTest, BlockNumbersAdvance) {
  WorkloadGenerator gen(SmallConfig());
  Block b1 = gen.MakeBlock();
  Block b2 = gen.MakeBlock();
  EXPECT_EQ(b2.context.number, b1.context.number + U256(1));
}

TEST(WorkloadTest, AllBlockTransactionsExecuteAgainstGenesisChain) {
  // Every generated transaction must be valid and non-reverting when the
  // blocks are replayed in order (except the intentional failing fraction).
  WorkloadConfig config = SmallConfig();
  config.failing_tx_frac = 0.0;
  WorkloadGenerator gen(config);
  WorldState state = gen.MakeGenesis();
  for (int b = 0; b < 2; ++b) {
    Block block = gen.MakeBlock();
    for (size_t i = 0; i < block.transactions.size(); ++i) {
      StateView view(state);
      Receipt r = ApplyTransaction(view, block.context, block.transactions[i]);
      ASSERT_TRUE(r.valid) << "block " << b << " tx " << i;
      EXPECT_EQ(r.status, EvmStatus::kSuccess)
          << "block " << b << " tx " << i << ": " << EvmStatusName(r.status);
      state.Apply(view.write_set());
    }
  }
}

TEST(WorkloadTest, FailingFractionProducesReverts) {
  WorkloadConfig config = SmallConfig();
  config.failing_tx_frac = 0.5;  // Half of the ERC-20 transfers overdraw.
  config.transactions_per_block = 200;
  WorkloadGenerator gen(config);
  WorldState state = gen.MakeGenesis();
  Block block = gen.MakeBlock();
  int reverts = 0;
  for (const Transaction& tx : block.transactions) {
    StateView view(state);
    Receipt r = ApplyTransaction(view, block.context, tx);
    if (r.valid && r.status == EvmStatus::kRevert) {
      ++reverts;
    }
    state.Apply(view.write_set());
  }
  EXPECT_GT(reverts, 10);
}

TEST(WorkloadTest, ConflictBlockStructure) {
  WorkloadConfig config = SmallConfig();
  WorkloadGenerator gen(config);
  Block block = gen.MakeErc20ConflictBlock(100, 0.4);
  ASSERT_EQ(block.transactions.size(), 100u);
  // Distinct senders throughout (no nonce interference).
  std::unordered_set<Address> senders;
  for (const Transaction& tx : block.transactions) {
    EXPECT_TRUE(senders.insert(tx.from).second);
    EXPECT_EQ(tx.to, gen.TokenAddress(0));
  }
  // The first 40 share owner user0; the rest use their own account.
  U256 owner0 = U256::FromAddress(gen.UserAddress(0));
  for (int i = 0; i < 100; ++i) {
    BytesView data = block.transactions[static_cast<size_t>(i)].data;
    U256 owner = U256::FromBigEndian(data.subspan(4, 32));
    if (i < 40) {
      EXPECT_EQ(owner, owner0) << i;
    } else {
      EXPECT_NE(owner, owner0) << i;
    }
  }
}

TEST(WorkloadTest, ConflictBlockExecutesCleanly) {
  WorkloadConfig config = SmallConfig();
  WorkloadGenerator gen(config);
  WorldState state = gen.MakeGenesis();
  Block block = gen.MakeErc20ConflictBlock(50, 1.0);
  for (size_t i = 0; i < block.transactions.size(); ++i) {
    StateView view(state);
    Receipt r = ApplyTransaction(view, block.context, block.transactions[i]);
    ASSERT_TRUE(r.valid) << i;
    ASSERT_EQ(r.status, EvmStatus::kSuccess) << i;
    state.Apply(view.write_set());
  }
}

TEST(WorkloadTest, GenesisFundsEveryUser) {
  WorkloadConfig config = SmallConfig();
  WorkloadGenerator gen(config);
  WorldState genesis = gen.MakeGenesis();
  for (int u = 0; u < config.users; u += 97) {
    EXPECT_FALSE(genesis.GetBalance(gen.UserAddress(u)).IsZero());
    EXPECT_FALSE(
        genesis.GetStorage(gen.TokenAddress(0), Erc20BalanceSlot(gen.UserAddress(u))).IsZero());
  }
  // Pools are wired to their tokens with reserves.
  for (int p = 0; p < config.pools; ++p) {
    EXPECT_NE(genesis.GetCode(gen.PoolAddress(p)), nullptr);
    EXPECT_FALSE(genesis.GetStorage(gen.PoolAddress(p), U256(kAmmReserve0Slot)).IsZero());
  }
  EXPECT_NE(genesis.GetCode(gen.FundAddress(0)), nullptr);
}

TEST(WorkloadTest, MixKnobsChangeComposition) {
  WorkloadConfig config = SmallConfig();
  config.transactions_per_block = 120;
  WorkloadGenerator gen(config);
  gen.SetMix(/*erc20=*/0.0, /*erc20_from=*/0.0, /*amm=*/0.0, /*crowdfund=*/0.0, /*failing=*/0.0);
  Block natives = gen.MakeBlock();
  for (const Transaction& tx : natives.transactions) {
    EXPECT_TRUE(tx.data.empty());  // Pure ether transfers.
  }
  gen.SetMix(1.0, 0.0, 0.0, 0.0, 0.0);
  Block transfers = gen.MakeBlock();
  uint32_t transfer_sel = Selector("transfer(address,uint256)");
  for (const Transaction& tx : transfers.transactions) {
    ASSERT_GE(tx.data.size(), 4u);
    uint32_t sel = (static_cast<uint32_t>(tx.data[0]) << 24) |
                   (static_cast<uint32_t>(tx.data[1]) << 16) |
                   (static_cast<uint32_t>(tx.data[2]) << 8) | tx.data[3];
    EXPECT_EQ(sel, transfer_sel);
  }
}

TEST(WorkloadTest, HotReceiversEmergeFromZipf) {
  WorkloadConfig config = SmallConfig();
  config.transactions_per_block = 400;
  WorkloadGenerator gen(config);
  gen.SetMix(0.0, 0.0, 0.0, 0.0, 0.0);  // Native transfers only.
  Block block = gen.MakeBlock();
  std::unordered_map<Address, int> receiver_counts;
  for (const Transaction& tx : block.transactions) {
    ++receiver_counts[tx.to];
  }
  int hottest = 0;
  for (const auto& [addr, count] : receiver_counts) {
    hottest = std::max(hottest, count);
  }
  // With s=1.2 over 1200 users, the hottest receiver takes a clear multiple
  // of the uniform share (400/1200 < 1).
  EXPECT_GE(hottest, 10);
}

}  // namespace
}  // namespace pevm
