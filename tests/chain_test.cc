// Chain-runner battery: the streaming pipeline (three stages, four with
// cross-block speculation engaged) must be invisible to results. Per-block
// state roots out of the incremental committer are bit-identical to a serial
// per-block from-scratch StateRoot() recomputation for every executor, OS
// thread count, queue depth, commit batch and speculation setting; virtual
// makespans match direct (non-chained) execution; and shutdown — graceful or
// aborted mid-stream, speculative block in flight or not — always leaves a
// consistent committed prefix.
//
// Suite names (ChainRunnerTest / ChainShutdownTest / IncrementalStateTrieTest)
// are load-bearing: CI and scripts/check_tsan.sh select tests by them.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/chain/chain_runner.h"
#include "src/workload/block_gen.h"

namespace pevm {
namespace {

constexpr ExecutorKind kAllExecutors[] = {
    ExecutorKind::kSerial,   ExecutorKind::kTwoPhaseLocking, ExecutorKind::kOcc,
    ExecutorKind::kBlockStm, ExecutorKind::kParallelEvm,
};

WorkloadConfig SmallConfig(uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.transactions_per_block = 48;
  config.users = 300;
  config.tokens = 6;
  config.pools = 3;
  config.funds = 2;
  return config;
}

struct Stream {
  WorldState genesis;
  std::vector<Block> blocks;
  std::vector<Hash256> oracle_roots;  // Serial replay, from-scratch roots.
};

// Shared seeded-chain fixture: building a Stream is the expensive part of
// every chain test (serial oracle replay plus a from-scratch state root per
// block), so streams are memoized by (seed, blocks) and shared. Streams are
// only ever read after construction, and gtest runs tests in one thread, so
// the bare map needs no locking.
class SeededChainTest : public testing::Test {
 protected:
  // The oracle: execute the stream one block at a time with the serial
  // executor and recompute the full state root from scratch after every block.
  static const Stream& GetStream(uint64_t seed, int blocks) {
    static auto* cache = new std::map<std::pair<uint64_t, int>, Stream>;
    auto [it, inserted] = cache->try_emplace({seed, blocks});
    if (inserted) {
      WorkloadGenerator gen(SmallConfig(seed));
      Stream& stream = it->second;
      stream.genesis = gen.MakeGenesis();
      WorldState state = stream.genesis;
      std::unique_ptr<Executor> oracle = MakeExecutor(ExecutorKind::kSerial, ExecOptions{});
      for (int b = 0; b < blocks; ++b) {
        stream.blocks.push_back(gen.MakeBlock());
        oracle->Execute(stream.blocks.back(), state);
        stream.oracle_roots.push_back(state.StateRoot());
      }
    }
    return it->second;
  }

  static void ExpectRootsMatch(const ChainReport& report, const Stream& stream) {
    ASSERT_EQ(report.roots.size(), stream.oracle_roots.size());
    for (size_t b = 0; b < stream.oracle_roots.size(); ++b) {
      ASSERT_EQ(HexEncode(report.roots[b]), HexEncode(stream.oracle_roots[b])) << "block " << b;
    }
    EXPECT_EQ(HexEncode(report.final_root), HexEncode(stream.oracle_roots.back()));
  }

  // Submit the whole stream from a producer thread (small queues block on
  // backpressure), pull the plug mid-stream, and check the committed prefix
  // is exactly an oracle prefix. Shared by the plain and the
  // speculative-block-in-flight abort tests.
  static void RunAbortMidStream(ChainOptions options, const Stream& stream) {
    ChainRunner runner(options, stream.genesis);
    std::atomic<uint64_t> submitted{0};
    std::thread producer([&] {
      for (const Block& block : stream.blocks) {
        if (!runner.Submit(block)) {
          break;  // Aborted under us: expected.
        }
        submitted.fetch_add(1);
      }
    });
    // Let a few blocks flow, then pull the plug mid-stream.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ChainReport report = runner.Abort();
    producer.join();

    EXPECT_TRUE(report.aborted);
    EXPECT_LE(report.blocks_committed, report.blocks_executed);
    EXPECT_LE(report.blocks_executed, submitted.load());
    // No tearing: exactly the committed blocks have roots, and they form the
    // same prefix the oracle computes.
    ASSERT_EQ(report.roots.size(), report.blocks_committed);
    for (size_t b = 0; b < report.roots.size(); ++b) {
      EXPECT_EQ(HexEncode(report.roots[b]), HexEncode(stream.oracle_roots[b])) << "block " << b;
    }
    // The stream is dead: submissions bounce, Abort is idempotent.
    EXPECT_FALSE(runner.Submit(stream.blocks[0]));
    EXPECT_EQ(runner.Abort().blocks_committed, report.blocks_committed);
  }
};

class ChainRunnerTest : public SeededChainTest {};
class ChainShutdownTest : public SeededChainTest {};

TEST_F(ChainRunnerTest, RootsBitIdenticalAcrossExecutorsThreadsBatchesAndQueueDepths) {
  const Stream& stream = GetStream(9100, 5);
  for (ExecutorKind kind : kAllExecutors) {
    for (int os_threads : {1, 4, 16}) {
      for (size_t batch : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(testing::Message() << ExecutorKindName(kind) << " os_threads=" << os_threads
                                        << " batch=" << batch);
        ChainOptions options;
        options.executor = kind;
        options.exec.os_threads = os_threads;
        // Rotate queue depth with thread count so a depth-1 (fully
        // backpressured) pipeline is covered too.
        options.queue_depth = os_threads == 4 ? 1 : 4;
        // The committer re-roots shard-parallel at the same width the
        // executor runs; batch 4 folds blocks into multi-block seals (with
        // the accounting store attached so the seal path is exercised).
        options.commit.os_threads = os_threads;
        options.commit.batch_blocks = batch;
        options.persist = batch == 1 ? PersistMode::kNone : PersistMode::kInMemory;
        ChainRunner runner(options, stream.genesis);
        for (const Block& block : stream.blocks) {
          ASSERT_TRUE(runner.Submit(block));
        }
        ChainReport report = runner.Finish();
        EXPECT_FALSE(report.aborted);
        EXPECT_EQ(report.blocks_submitted, stream.blocks.size());
        EXPECT_EQ(report.blocks_executed, stream.blocks.size());
        ASSERT_EQ(report.blocks_committed, stream.blocks.size());
        // 5 blocks seal as 5 singleton batches or 4+1 (drain flush).
        EXPECT_EQ(report.commit_batches, batch == 1 ? 5u : 2u);
        ExpectRootsMatch(report, stream);
      }
    }
  }
}

TEST_F(ChainRunnerTest, VirtualMakespansMatchDirectExecution) {
  const Stream& stream = GetStream(9200, 4);
  for (ExecutorKind kind : kAllExecutors) {
    SCOPED_TRACE(ExecutorKindName(kind));
    // Direct, non-pipelined execution is the virtual-time reference.
    std::unique_ptr<Executor> direct = MakeExecutor(kind, ExecOptions{});
    WorldState state = stream.genesis;
    std::vector<uint64_t> direct_makespans;
    for (const Block& block : stream.blocks) {
      direct_makespans.push_back(direct->Execute(block, state).makespan_ns);
    }
    for (int os_threads : {1, 16}) {
      SCOPED_TRACE(testing::Message() << "os_threads=" << os_threads);
      ChainOptions options;
      options.executor = kind;
      options.exec.os_threads = os_threads;
      ChainRunner runner(options, stream.genesis);
      for (const Block& block : stream.blocks) {
        ASSERT_TRUE(runner.Submit(block));
      }
      ChainReport report = runner.Finish();
      ASSERT_EQ(report.block_reports.size(), direct_makespans.size());
      for (size_t b = 0; b < direct_makespans.size(); ++b) {
        EXPECT_EQ(report.block_reports[b].makespan_ns, direct_makespans[b]) << "block " << b;
      }
    }
  }
}

TEST_F(ChainRunnerTest, StorageSimAndCrossBlockPrefetchKeepRootsIdentical) {
  const Stream& stream = GetStream(9300, 4);
  ChainOptions options;
  options.executor = ExecutorKind::kParallelEvm;
  options.exec.os_threads = 4;
  options.exec.prefetch_depth = 4;
  options.exec.storage.cold_read_ns = 2'000;
  options.exec.storage.warm_read_ns = 200;
  options.exec.storage.batch_base_ns = 4'000;
  options.exec.storage.batch_key_ns = 100;
  ChainRunner runner(options, stream.genesis);
  for (const Block& block : stream.blocks) {
    ASSERT_TRUE(runner.Submit(block));
  }
  ChainReport report = runner.Finish();
  ASSERT_EQ(report.blocks_committed, stream.blocks.size());
  ExpectRootsMatch(report, stream);
  // The warm stage actually warmed something.
  EXPECT_EQ(report.warm.blocks, stream.blocks.size());
  EXPECT_GT(report.warm.busy_ns, 0u);
  // Each record counts the distinct keys its block's warm-up issued: every
  // envelope key (sender balance and nonce, recipient balance), plus at most
  // one full hint bucket per (recipient, selector) the block calls.
  ASSERT_EQ(report.blocks.size(), stream.blocks.size());
  for (size_t b = 0; b < stream.blocks.size(); ++b) {
    std::unordered_set<StateKey, StateKeyHash> envelope;
    std::set<std::pair<std::array<uint8_t, Address::kSize>, uint32_t>> buckets;
    for (const PrefetchRequest& r : BuildPrefetchRequests(stream.blocks[b])) {
      envelope.insert(StateKey::Balance(r.from));
      envelope.insert(StateKey::Nonce(r.from));
      envelope.insert(StateKey::Balance(r.to));
      if (r.has_selector) {
        buckets.emplace(r.to.bytes(), r.selector);
      }
    }
    const uint64_t warm_keys = report.blocks[b].warm_keys;
    EXPECT_GE(warm_keys, envelope.size()) << "block " << b;
    EXPECT_LE(warm_keys, envelope.size() + options.exec.storage.max_hint_keys * buckets.size())
        << "block " << b;
  }
}

// Cross-block speculation under real thread interleaving (this suite runs
// under TSan via scripts/check_tsan.sh): the spec stage races the exec stage
// by design — overlay reads tear against concurrent commits — and the
// boundary must still make every result bit-identical to the spec-off run.
TEST_F(ChainRunnerTest, SpeculationKeepsRootsAndDeterministicReportsIdentical) {
  const Stream& stream = GetStream(9700, 6);
  for (ExecutorKind kind : {ExecutorKind::kParallelEvm, ExecutorKind::kOcc}) {
    SCOPED_TRACE(ExecutorKindName(kind));
    std::vector<ChainReport> reports;
    for (bool speculate : {false, true}) {
      ChainOptions options;
      options.executor = kind;
      options.exec.os_threads = 4;
      options.queue_depth = 3;
      options.speculate = speculate;
      // Storage latency makes the speculative read phase do real waiting, so
      // the boundary genuinely validates against a moving commit frontier.
      options.exec.storage.cold_read_ns = 2'000;
      options.exec.storage.warm_read_ns = 200;
      ChainRunner runner(options, stream.genesis);
      for (const Block& block : stream.blocks) {
        ASSERT_TRUE(runner.Submit(block));
      }
      reports.push_back(runner.Finish());
      ExpectRootsMatch(reports.back(), stream);
    }
    const ChainReport& off = reports[0];
    const ChainReport& on = reports[1];
    EXPECT_EQ(off.speculation.blocks_speculated, 0u);
    EXPECT_GT(on.speculation.blocks_speculated, 0u);
    EXPECT_GT(on.speculation.txs_launched, 0u);
    ASSERT_EQ(off.block_reports.size(), on.block_reports.size());
    for (size_t b = 0; b < off.block_reports.size(); ++b) {
      EXPECT_EQ(off.block_reports[b].makespan_ns, on.block_reports[b].makespan_ns)
          << "block " << b;
      EXPECT_EQ(off.block_reports[b].conflicts, on.block_reports[b].conflicts) << "block " << b;
      ASSERT_EQ(off.block_reports[b].receipts, on.block_reports[b].receipts) << "block " << b;
    }
  }
}

TEST_F(ChainRunnerTest, EmptyStreamReportsSeedRoot) {
  WorkloadGenerator gen(SmallConfig(9400));
  WorldState genesis = gen.MakeGenesis();
  ChainRunner runner(ChainOptions{}, genesis);
  ChainReport report = runner.Finish();
  EXPECT_EQ(report.blocks_committed, 0u);
  EXPECT_TRUE(report.roots.empty());
  EXPECT_EQ(HexEncode(report.final_root), HexEncode(genesis.StateRoot()));
  // Finish is idempotent and Submit is rejected afterwards.
  EXPECT_FALSE(runner.Submit(Block{}));
  EXPECT_EQ(runner.Finish().blocks_committed, 0u);
}

// Fixture for the incremental-trie tests: both run the same randomized
// diff-stream shape (interleaved balance/nonce/storage writes, slot clears —
// including on absent accounts — and fresh-account creation, journaled
// exactly as the chain runner journals them) over a seeded world; only the
// address prefix, rng seed and committer wiring differ per test.
class IncrementalStateTrieTest : public testing::Test {
 protected:
  static constexpr uint64_t kSeededAccounts = 16;

  static Address AddressFor(uint8_t prefix, uint64_t i) {
    std::array<uint8_t, Address::kSize> bytes{};
    bytes[0] = prefix;
    for (size_t b = 0; b < 8; ++b) {
      bytes[12 + b] = static_cast<uint8_t>(i >> (8 * b));
    }
    return Address(bytes);
  }

  // Random genesis: some funded accounts with storage (and optionally nonces).
  static WorldState SeedWorld(uint8_t prefix, bool with_nonces) {
    WorldState state;
    for (uint64_t i = 0; i < kSeededAccounts; ++i) {
      state.SetBalance(AddressFor(prefix, i), U256(1'000 + i));
      if (with_nonces && i % 3 == 0) {
        state.SetNonce(AddressFor(prefix, i), i);
      }
      for (uint64_t s = 0; s < i % 5; ++s) {
        state.SetStorage(AddressFor(prefix, i), U256(s), U256(100 * i + s));
      }
    }
    return state;
  }

  // One random "block" of 1..12 interleaved writes into the open diff.
  static void ApplyRandomWrites(std::mt19937_64& rng, uint8_t prefix, WorldState& state) {
    int writes = 1 + static_cast<int>(rng() % 12);
    for (int w = 0; w < writes; ++w) {
      Address address = AddressFor(prefix, rng() % 24);  // Indices 16..23 start absent.
      switch (rng() % 4) {
        case 0:
          state.SetBalance(address, U256(rng() % 5'000));
          break;
        case 1:
          state.SetNonce(address, rng() % 64);
          break;
        case 2:
          state.SetStorage(address, U256(rng() % 6), U256(1 + rng() % 1'000));
          break;
        case 3:
          // Slot clear: deletes when present, no-op (and must not
          // materialize the account) when absent.
          state.SetStorage(address, U256(rng() % 6), U256{});
          break;
      }
    }
  }
};

TEST_F(IncrementalStateTrieTest, RandomizedDiffStreamMatchesFromScratchRoots) {
  std::mt19937_64 rng(4242);
  WorldState state = SeedWorld(0xAB, /*with_nonces=*/true);
  IncrementalStateTrie trie(state);
  ASSERT_EQ(HexEncode(trie.Root()), HexEncode(state.StateRoot()));

  for (int round = 0; round < 50; ++round) {
    state.BeginDiff();
    ApplyRandomWrites(rng, 0xAB, state);
    StateDiff diff = state.TakeDiff();
    trie.ApplyDiff(diff);
    ASSERT_EQ(HexEncode(trie.Root()), HexEncode(state.StateRoot())) << "round " << round;
    ASSERT_EQ(trie.account_count(), state.account_count()) << "round " << round;
  }
}

// The sharded parallel committer vs the same committer run serially, vs the
// from-scratch oracle — with multi-block batched seals on the parallel side.
// Roots must agree every round; the per-block manifest roots both stores
// record must be the identical sequence even though one sealed 30 singleton
// batches and the other sealed batches of 3.
TEST_F(IncrementalStateTrieTest, ShardParallelBatchedCommitsMatchSerialPerBlockCommits) {
  std::mt19937_64 rng(5353);
  WorldState state = SeedWorld(0xCD, /*with_nonces=*/false);

  InMemoryNodeStore serial_store;
  InMemoryNodeStore batched_store;
  IncrementalStateTrie serial_trie(state, &serial_store);
  CommitOptions parallel_options;
  parallel_options.os_threads = 4;
  parallel_options.batch_blocks = 3;
  IncrementalStateTrie batched_trie(state, &batched_store,
                                    IncrementalStateTrie::SeedMode::kFresh, parallel_options);
  ASSERT_EQ(HexEncode(serial_trie.Root()), HexEncode(state.StateRoot()));
  ASSERT_EQ(HexEncode(batched_trie.Root()), HexEncode(state.StateRoot()));

  std::vector<Hash256> pending;
  uint64_t next_batch_first = 0;
  for (int round = 0; round < 30; ++round) {
    state.BeginDiff();
    ApplyRandomWrites(rng, 0xCD, state);
    StateDiff diff = state.TakeDiff();
    serial_trie.ApplyDiff(diff);
    batched_trie.ApplyDiff(diff);
    ASSERT_EQ(HexEncode(serial_trie.Root()), HexEncode(state.StateRoot())) << "round " << round;
    ASSERT_EQ(HexEncode(batched_trie.Root()), HexEncode(state.StateRoot())) << "round " << round;
    serial_trie.CommitBlock(static_cast<uint64_t>(round));
    pending.push_back(batched_trie.Root());
    if (pending.size() == parallel_options.batch_blocks) {
      batched_trie.CommitBatch(next_batch_first,
                               std::span<const Hash256>(pending.data(), pending.size()));
      next_batch_first += pending.size();
      pending.clear();
    }
  }
  ASSERT_TRUE(pending.empty());  // 30 rounds, batches of 3.
  ASSERT_EQ(serial_store.roots().size(), 30u);
  ASSERT_EQ(batched_store.roots().size(), 30u);
  for (size_t b = 0; b < 30; ++b) {
    EXPECT_EQ(HexEncode(serial_store.roots()[b]), HexEncode(batched_store.roots()[b]))
        << "block " << b;
  }
  EXPECT_EQ(batched_trie.account_count(), state.account_count());
  // Every node a batched seal archived must exist bit-identically in the
  // serial archive (batching may skip intermediate versions, never invent).
  EXPECT_LE(batched_store.node_count(), serial_store.node_count());
}

TEST_F(ChainShutdownTest, AbortMidStreamLeavesConsistentCommittedPrefix) {
  ChainOptions options;
  options.executor = ExecutorKind::kParallelEvm;
  options.exec.os_threads = 4;
  options.queue_depth = 2;  // Small queues: the producer blocks on backpressure.
  RunAbortMidStream(options, GetStream(9500, 12));
}

// Same plug-pull, but with the speculation stage engaged and slowed by
// storage latency so the abort almost certainly lands while a speculative
// block is mid-flight (spec thread blocked in overlay reads or on its
// queues). The committed prefix must be just as consistent, and shutdown
// must not hang on the extra stage.
TEST_F(ChainShutdownTest, AbortWhileSpeculativeBlockInFlight) {
  ChainOptions options;
  options.executor = ExecutorKind::kParallelEvm;
  options.exec.os_threads = 4;
  options.queue_depth = 2;
  options.speculate = true;
  options.exec.storage.cold_read_ns = 50'000;  // >= SimStore's sleep threshold.
  options.exec.storage.warm_read_ns = 200;
  RunAbortMidStream(options, GetStream(9500, 12));
}

// Same plug-pull with the warm stage doing real work: every batch sleeps, so
// the abort can land while the warm thread and the store's warm-up pool are
// inside a block. The pool's teardown must neither hang nor outlive the
// batches it was handed.
TEST_F(ChainShutdownTest, AbortWhileWarmStageIsMidBlock) {
  ChainOptions options;
  options.executor = ExecutorKind::kParallelEvm;
  options.exec.os_threads = 4;
  options.queue_depth = 2;
  options.exec.prefetch_depth = 1;
  options.exec.storage.batch_base_ns = 50'000;  // >= SimStore's sleep threshold.
  RunAbortMidStream(options, GetStream(9500, 12));
}

TEST_F(ChainShutdownTest, DestructorAbortsWithoutDeadlock) {
  const Stream& stream = GetStream(9600, 4);
  ChainOptions options;
  options.executor = ExecutorKind::kSerial;
  options.queue_depth = 1;
  {
    ChainRunner runner(options, stream.genesis);
    ASSERT_TRUE(runner.Submit(stream.blocks[0]));
    ASSERT_TRUE(runner.Submit(stream.blocks[1]));
    // Destructor must abort, drain and join on its own.
  }
}

// Speculation on a serial-executor chain (seed_mode kSkip) must degrade to a
// no-op rather than start a stage that can never produce seeds.
TEST_F(ChainShutdownTest, SpeculateFlagIsInertForNonSeedableExecutors) {
  const Stream& stream = GetStream(9600, 4);
  ChainOptions options;
  options.executor = ExecutorKind::kSerial;
  options.speculate = true;
  ChainRunner runner(options, stream.genesis);
  for (const Block& block : stream.blocks) {
    ASSERT_TRUE(runner.Submit(block));
  }
  ChainReport report = runner.Finish();
  ExpectRootsMatch(report, stream);
  EXPECT_EQ(report.speculation.blocks_speculated, 0u);
  EXPECT_EQ(report.spec.blocks, 0u);
}

}  // namespace
}  // namespace pevm
