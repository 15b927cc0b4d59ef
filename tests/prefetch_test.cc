// Property tests for the simulated storage front-end and its block warm-up.
// The load-bearing claim (DESIGN.md): warming is pure cache-residency marking
// — concurrent warm-ups of overlapping key sets can never change what any
// reader observes, and a prefetch-enabled executor run is bit-identical
// (state root, receipts, virtual makespan) to a cold run.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/baselines/block_stm.h"
#include "src/baselines/occ.h"
#include "src/baselines/serial.h"
#include "src/core/parallel_evm.h"
#include "src/exec/pipeline.h"
#include "src/state/sim_store.h"
#include "src/workload/block_gen.h"

namespace pevm {
namespace {

// A small committed state plus the key universe the tests hammer.
struct Fixture {
  WorldState state;
  std::vector<StateKey> keys;
};

Fixture MakeFixture(int accounts, int slots_per_account) {
  Fixture f;
  for (int a = 0; a < accounts; ++a) {
    Address addr = Address::FromId(1000 + a);
    f.state.SetBalance(addr, U256(1'000'000 + a));
    f.state.SetNonce(addr, a);
    f.keys.push_back(StateKey::Balance(addr));
    f.keys.push_back(StateKey::Nonce(addr));
    for (int s = 0; s < slots_per_account; ++s) {
      U256 slot = U256(s);
      f.state.SetStorage(addr, slot, U256(a * 100 + s + 7));
      f.keys.push_back(StateKey::Storage(addr, slot));
    }
  }
  return f;
}

// The core safety property: many threads warming overlapping key sets while
// many other threads read through SimStoreReader — every read must return
// exactly the committed WorldState value, and afterwards the store's contents
// (as observed through a reader) are indistinguishable from a cold store's.
TEST(PrefetchPropertyTest, ConcurrentOverlappingWarmupNeverChangesObservableContents) {
  Fixture f = MakeFixture(/*accounts=*/24, /*slots_per_account=*/6);
  const size_t n = f.keys.size();

  // Expected values from a completely cold store.
  std::vector<U256> expected;
  expected.reserve(n);
  for (const StateKey& key : f.keys) {
    expected.push_back(f.state.Get(key));
  }

  SimStore store;  // Zero latency: the race surface, without the waiting.
  constexpr int kWarmers = 4;
  constexpr int kReaders = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int w = 0; w < kWarmers; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        // Overlapping windows: warmer w repeatedly re-warms a sliding slice.
        size_t begin = (w * 11 + round * 7) % n;
        size_t len = std::min<size_t>(n - begin, 13 + w);
        store.WarmBatch(std::span<const StateKey>(f.keys.data() + begin, len));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      SimStoreReader reader(store, f.state);
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = r; i < n; i += kReaders) {
          if (reader.Read(f.keys[i]) != expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);

  // Residency bookkeeping stayed coherent: the readers' strides partition the
  // key space, so every Touch is accounted exactly once, and at most one
  // touch per distinct key was cold (warmers may have beaten even that one).
  EXPECT_EQ(store.cold_touches() + store.warm_touches(),
            static_cast<uint64_t>(kRounds) * n);
  EXPECT_LE(store.cold_touches(), n);

  // Post-condition: still indistinguishable from cold contents.
  SimStoreReader reader(store, f.state);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(reader.Read(f.keys[i]), expected[i]) << f.keys[i].ToString();
  }
}

TEST(PrefetchPropertyTest, TouchClassifiesFirstReadColdThenWarm) {
  Fixture f = MakeFixture(2, 2);
  SimStore store;
  const StateKey& key = f.keys.front();
  EXPECT_FALSE(store.IsResident(key));
  EXPECT_FALSE(store.Touch(key));  // Cold on first touch.
  EXPECT_TRUE(store.Touch(key));   // Warm afterwards.
  EXPECT_TRUE(store.IsResident(key));
  EXPECT_EQ(store.cold_touches(), 1u);
  EXPECT_EQ(store.warm_touches(), 1u);

  store.WarmBatch(std::span<const StateKey>(&f.keys[1], 1));
  EXPECT_TRUE(store.IsResident(f.keys[1]));
  EXPECT_TRUE(store.Touch(f.keys[1]));  // Warmed key reads warm.

  store.BeginBlock();  // Residency resets per block; hints survive.
  EXPECT_FALSE(store.IsResident(key));
  EXPECT_FALSE(store.Touch(key));
}

TEST(PrefetchPropertyTest, ConcurrentTouchesCountEachDistinctKeyColdExactlyOnce) {
  Fixture f = MakeFixture(16, 8);
  SimStore store;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (const StateKey& key : f.keys) {
        store.Touch(key);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(store.cold_touches(), f.keys.size());
  EXPECT_EQ(store.cold_touches() + store.warm_touches(), kThreads * f.keys.size());
}

TEST(PrefetchPropertyTest, PredictSetLearnsObservedStorageKeysUpToCap) {
  SimStoreConfig config;
  config.max_hint_keys = 4;
  SimStore store(config);
  PrefetchRequest request;
  request.from = Address::FromId(1);
  request.to = Address::FromId(2);
  request.selector = 0xa9059cbb;
  request.has_selector = true;

  // Before learning: envelope keys only.
  std::vector<StateKey> predicted = store.PredictSet(request);
  EXPECT_EQ(predicted.size(), 3u);  // sender balance + nonce, recipient balance.

  ReadSet reads;
  for (int s = 0; s < 10; ++s) {
    reads.emplace(StateKey::Storage(request.to, U256(s)), U256{});
  }
  reads.emplace(StateKey::Balance(request.from), U256{});  // Not a storage key: no hint.
  store.RecordObserved(request, reads);

  predicted = store.PredictSet(request);
  EXPECT_EQ(predicted.size(), 3u + config.max_hint_keys);  // Capped.

  // A different selector on the same contract has its own bucket.
  PrefetchRequest other = request;
  other.selector = 0x23b872dd;
  EXPECT_EQ(store.PredictSet(other).size(), 3u);
  // Predictions are a pure function of request + hint table: repeat calls agree.
  EXPECT_EQ(store.PredictSet(request), store.PredictSet(request));
}

// The hint table is globally bounded: (contract, selector) buckets beyond
// max_hint_entries are evicted least-recently-*observed* first, so a stream
// rotating through hot contracts sheds the cold hints. Recency is bumped only
// by RecordObserved (the deterministic block-order pass) — PredictSet, which
// races on prefetch drivers, must never save a bucket from eviction.
TEST(PrefetchPropertyTest, HintTableEvictsLeastRecentlyObservedBucket) {
  SimStoreConfig config;
  config.max_hint_entries = 4;
  SimStore store(config);
  constexpr uint32_t kSelector = 0xa9059cbb;
  auto request = [&](uint64_t contract) {
    PrefetchRequest r;
    r.from = Address::FromId(1);
    r.to = Address::FromId(100 + contract);
    r.selector = kSelector;
    r.has_selector = true;
    return r;
  };
  auto observe = [&](uint64_t contract) {
    ReadSet reads;
    reads.emplace(StateKey::Storage(Address::FromId(100 + contract), U256(contract)), U256{});
    store.RecordObserved(request(contract), reads);
  };

  for (uint64_t c = 0; c < 4; ++c) {
    observe(c);
  }
  EXPECT_EQ(store.hint_entries(), 4u);
  observe(0);  // Contract 0 is hot again; 1 is now the coldest.
  EXPECT_EQ(store.hint_entries(), 4u);

  observe(4);  // Over the cap: evicts 1, not the re-observed 0.
  EXPECT_EQ(store.hint_entries(), 4u);
  EXPECT_TRUE(store.HasHintBucket(Address::FromId(100), kSelector));
  EXPECT_FALSE(store.HasHintBucket(Address::FromId(101), kSelector));
  EXPECT_TRUE(store.HasHintBucket(Address::FromId(104), kSelector));

  // An evicted bucket predicts envelope-only again until relearned.
  EXPECT_EQ(store.PredictSet(request(1)).size(), 3u);

  // Contract 2 is now the coldest survivor. Hammering it through PredictSet
  // must not rescue it from the next eviction: prediction is read-only.
  for (int i = 0; i < 16; ++i) {
    store.PredictSet(request(2));
  }
  observe(1);  // Relearn 1 -> over the cap again -> evicts 2.
  EXPECT_FALSE(store.HasHintBucket(Address::FromId(102), kSelector));
  EXPECT_EQ(store.PredictSet(request(1)).size(), 4u);

  // Cap 0 = unbounded.
  SimStore unbounded(SimStoreConfig{.max_hint_entries = 0});
  // (re-declare helpers against the unbounded store)
  for (uint64_t c = 0; c < 64; ++c) {
    ReadSet reads;
    reads.emplace(StateKey::Storage(Address::FromId(100 + c), U256(c)), U256{});
    PrefetchRequest r;
    r.from = Address::FromId(1);
    r.to = Address::FromId(100 + c);
    r.selector = kSelector;
    r.has_selector = true;
    unbounded.RecordObserved(r, reads);
  }
  EXPECT_EQ(unbounded.hint_entries(), 64u);
}

// Eviction pressure must not break the determinism contract: with a cap so
// small that buckets churn constantly, the prefetch hit/miss/wasted counters
// are still a pure function of the block stream — identical at every OS
// thread count and across repeat runs.
TEST(PrefetchPropertyTest, HintCapKeepsCountersOsThreadInvariant) {
  WorkloadConfig config;
  config.seed = 737373;
  config.transactions_per_block = 80;
  config.users = 400;
  WorkloadGenerator gen(config);
  WorldState genesis = gen.MakeGenesis();
  std::vector<Block> blocks;
  for (int b = 0; b < 3; ++b) {
    blocks.push_back(gen.MakeBlock());
  }

  auto run = [&](int os_threads) {
    ExecOptions options;
    options.threads = 8;
    options.os_threads = os_threads;
    options.prefetch_depth = 6;
    options.storage.max_hint_entries = 2;  // Aggressive churn.
    ParallelEvmExecutor pevm(options);
    WorldState state = genesis;
    std::vector<std::array<uint64_t, 3>> counters;
    for (const Block& block : blocks) {
      BlockReport report = pevm.Execute(block, state);
      counters.push_back({report.prefetch_hits, report.prefetch_misses, report.prefetch_wasted});
    }
    return counters;
  };
  auto one = run(1);
  EXPECT_EQ(one, run(4));
  EXPECT_EQ(one, run(16));
}

// Forty transfers from distinct senders to five recipients, without a
// selector: 120 predicted keys, 85 of them distinct (each sender's balance
// and nonce, each recipient's balance).
std::vector<PrefetchRequest> FortyTransfers() {
  std::vector<PrefetchRequest> requests;
  for (int i = 0; i < 40; ++i) {
    PrefetchRequest r;
    r.from = Address::FromId(100 + i);
    r.to = Address::FromId(200 + i % 5);
    requests.push_back(r);
  }
  return requests;
}

std::unordered_set<StateKey, StateKeyHash> DistinctPredicted(
    const SimStore& store, const std::vector<PrefetchRequest>& requests) {
  std::unordered_set<StateKey, StateKeyHash> distinct;
  for (const PrefetchRequest& r : requests) {
    for (const StateKey& key : store.PredictSet(r)) {
      distinct.insert(key);
    }
  }
  return distinct;
}

TEST(PrefetchPropertyTest, EngineWithDepthCoveringBlockWarmsEveryPredictedKey) {
  SimStore store;
  std::vector<PrefetchRequest> requests = FortyTransfers();
  std::unordered_set<StateKey, StateKeyHash> distinct = DistinctPredicted(store, requests);
  ASSERT_EQ(distinct.size(), 85u);

  // The compatibility name warms the block as SimStore::WarmBlock does.
  PrefetchEngine engine(store, requests, /*depth=*/static_cast<int>(requests.size()));
  engine.Drain();
  // Each distinct key is issued once, however many transactions predict it.
  EXPECT_EQ(store.warmed_keys(), distinct.size());
  for (const StateKey& key : distinct) {
    EXPECT_TRUE(store.IsResident(key)) << key.ToString();
  }
}

// The one warm-up path: the caller plus one pool worker issue the distinct
// keys in batches of batch_size (85 keys in batches of 32).
TEST(PrefetchPropertyTest, WarmBlockIssuesEachDistinctKeyOnce) {
  SimStore store;
  std::vector<PrefetchRequest> requests = FortyTransfers();
  std::unordered_set<StateKey, StateKeyHash> distinct = DistinctPredicted(store, requests);

  EXPECT_EQ(store.WarmBlock(requests), distinct.size());
  for (const StateKey& key : distinct) {
    EXPECT_TRUE(store.IsResident(key)) << key.ToString();
  }
  EXPECT_EQ(store.warmed_keys(), distinct.size());
  EXPECT_EQ(store.warm_batches(), 3u);
}

// Executor-level property: turning the prefetch pipeline on cannot perturb
// the virtual-time oracle or the results — state root, receipts, makespan and
// the StateCache-driven counters are bit-identical to a cold run, while the
// prefetch counters actually engage.
TEST(PrefetchPropertyTest, PrefetchingIsInvisibleToResultsAndVirtualTime) {
  WorkloadConfig config;
  config.seed = 515151;
  config.transactions_per_block = 60;
  config.users = 400;
  WorkloadGenerator gen(config);
  WorldState genesis = gen.MakeGenesis();
  std::vector<Block> blocks;
  for (int b = 0; b < 2; ++b) {
    blocks.push_back(gen.MakeBlock());
  }

  struct Variant {
    const char* name;
    int prefetch_depth;
    uint64_t cold_read_ns;
  };
  // Depth without latency, latency without depth, and both together.
  const Variant variants[] = {{"depth8", 8, 0}, {"latency", 0, 400}, {"both", 8, 400}};

  auto run_all = [&](auto make_executor) {
    ExecOptions cold_options;
    cold_options.threads = 8;
    cold_options.os_threads = 4;
    WorldState cold_state = genesis;
    auto cold_exec = make_executor(cold_options);
    std::vector<BlockReport> cold_reports;
    for (const Block& block : blocks) {
      cold_reports.push_back(cold_exec->Execute(block, cold_state));
    }

    for (const Variant& v : variants) {
      SCOPED_TRACE(v.name);
      ExecOptions options = cold_options;
      options.prefetch_depth = v.prefetch_depth;
      options.storage.cold_read_ns = v.cold_read_ns;
      options.storage.warm_read_ns = v.cold_read_ns / 4;
      WorldState state = genesis;
      auto exec = make_executor(options);
      uint64_t engaged = 0;
      for (size_t b = 0; b < blocks.size(); ++b) {
        BlockReport report = exec->Execute(blocks[b], state);
        const BlockReport& cold = cold_reports[b];
        EXPECT_EQ(report.makespan_ns, cold.makespan_ns) << "block " << b;
        EXPECT_EQ(report.receipts, cold.receipts) << "block " << b;
        EXPECT_EQ(report.conflicts, cold.conflicts) << "block " << b;
        EXPECT_EQ(report.redo_success, cold.redo_success) << "block " << b;
        EXPECT_EQ(report.instructions, cold.instructions) << "block " << b;
        engaged += report.prefetch_hits + report.prefetch_misses;
      }
      EXPECT_EQ(state, cold_state) << "post-state diverged from the cold run";
      if (v.prefetch_depth > 0) {
        EXPECT_GT(engaged, 0u) << "prefetch accounting never engaged";
      }
    }
  };

  run_all([](const ExecOptions& o) { return std::make_unique<SerialExecutor>(o); });
  run_all([](const ExecOptions& o) { return std::make_unique<ParallelEvmExecutor>(o); });
  run_all([](const ExecOptions& o) { return std::make_unique<OccExecutor>(o); });
  run_all([](const ExecOptions& o) { return std::make_unique<BlockStmExecutor>(o); });
}

// The deterministic counter pass: hit/miss/wasted must be a pure function of
// the block and the executor's hint history — identical across repeated runs
// and across OS-thread counts (the determinism suite covers threads; this one
// pins repeatability and the hits ≤ predicted relationship).
TEST(PrefetchPropertyTest, PrefetchCountersAreReproducible) {
  WorkloadConfig config;
  config.seed = 626262;
  config.transactions_per_block = 100;
  config.users = 500;
  WorkloadGenerator gen(config);
  WorldState genesis = gen.MakeGenesis();
  std::vector<Block> blocks;
  for (int b = 0; b < 3; ++b) {
    blocks.push_back(gen.MakeBlock());
  }

  auto run = [&] {
    ExecOptions options;
    options.threads = 8;
    options.os_threads = 4;
    options.prefetch_depth = 6;
    ParallelEvmExecutor pevm(options);
    WorldState state = genesis;
    std::vector<std::array<uint64_t, 3>> counters;
    for (const Block& block : blocks) {
      BlockReport report = pevm.Execute(block, state);
      counters.push_back({report.prefetch_hits, report.prefetch_misses, report.prefetch_wasted});
    }
    return counters;
  };
  auto first = run();
  auto second = run();
  EXPECT_EQ(first, second);
  // Hints learned in block 0 must raise block 1+'s hit counts above the
  // envelope-only floor of the very first block.
  EXPECT_GT(first[1][0], 0u);
  EXPECT_GE(first[1][0] + first[2][0], first[0][0]);
}

// A standalone Execute warms the whole block before its first read. Every key
// a native transfer reads is an envelope key, so all of them are predicted;
// with batches that sleep, a warm-up that overlapped execution instead of
// finishing first would leave reads cold.
TEST(PrefetchPropertyTest, StandaloneExecuteWarmsWholeBlockBeforeReading) {
  // 24 senders paying 3 recipients: 51 distinct keys, all funded accounts.
  WorldState genesis;
  for (uint64_t u = 0; u < 27; ++u) {
    genesis.SetBalance(Address::FromId(0x1000 + u), U256::Exp(U256(10), U256(18)));
  }
  Block block;
  block.context.coinbase = Address::FromId(0xC0FFEE);
  for (uint64_t u = 0; u < 24; ++u) {
    Transaction tx;
    tx.from = Address::FromId(0x1000 + u);
    tx.to = Address::FromId(0x1000 + 24 + u % 3);
    tx.value = U256(100);
    tx.gas_limit = 50'000;
    tx.gas_price = U256(2);
    block.transactions.push_back(tx);
  }

  ExecOptions options;
  options.threads = 4;
  options.os_threads = 2;
  options.prefetch_depth = 1;
  options.storage.batch_base_ns = 50'000;  // Long enough that batches sleep.
  std::vector<std::unique_ptr<Executor>> executors;
  executors.push_back(std::make_unique<SerialExecutor>(options));
  executors.push_back(std::make_unique<OccExecutor>(options));
  executors.push_back(std::make_unique<ParallelEvmExecutor>(options));
  executors.push_back(std::make_unique<BlockStmExecutor>(options));
  for (const std::unique_ptr<Executor>& exec : executors) {
    SCOPED_TRACE(std::string(exec->name()));
    WorldState state = genesis;
    BlockReport report = exec->Execute(block, state);
    ASSERT_NE(exec->chain_store(), nullptr);
    EXPECT_EQ(exec->chain_store()->cold_touches(), 0u);
    EXPECT_EQ(report.prefetch_misses, 0u);
    EXPECT_GT(report.prefetch_hits, 0u);
  }
}

}  // namespace
}  // namespace pevm
