// Query-tier battery (DESIGN.md §4.7): root-pinned snapshots served while the
// chain pipeline runs must be (a) exact — every response bit-identical to
// evaluating the same request against a serial replay stopped at the
// response's pinned root — and (b) inert — hammering the tier at any serving
// thread count leaves every root and deterministic BlockReport field
// bit-identical to not running it.
//
// Suites:
//   SnapshotRegistryTest  — MVCC unit tests: as-of reads, retention window,
//                           deferred eviction under a live pin, fold
//                           compaction correctness.
//   QueryEngineTest       — the serving pool against a static oracle state:
//                           every kind, eth_call write-discard, unknown
//                           roots, stop/reject, backpressure.
//   QueryInertnessTest    — chain runs with the tier off vs hammered-on
//                           compare bit-identically; abort mid-query.
//   QueryOracleTest       — randomized battery across executors and OS
//                           thread counts: mid-pipeline responses and
//                           post-run pinned reads checked against per-block
//                           serial-replay states.
//
// Suite names are load-bearing: CI and scripts/check_tsan.sh select by them.
// Repro flags (hence the custom main, like differential_test):
//   ./tests/query_test --seed=<seed> --blocks=1
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/baselines/serial.h"
#include "src/chain/chain_runner.h"
#include "src/query/query_engine.h"
#include "src/query/snapshot.h"
#include "src/state/state_view.h"
#include "src/workload/block_gen.h"
#include "src/workload/contracts.h"

namespace pevm {

constexpr uint64_t kDefaultSeed = 97'000;
constexpr int kDefaultBlocks = 40;
uint64_t g_seed = kDefaultSeed;
int g_blocks = kDefaultBlocks;

namespace {

Hash256 FakeRoot(uint8_t tag) {
  Hash256 root{};
  root[0] = tag;
  root[31] = 0xAB;
  return root;
}

// --- SnapshotRegistryTest ---------------------------------------------------

const Address kAlice = Address::FromId(0xA11CE);
const Address kBob = Address::FromId(0xB0B);

// A tiny hand-built chain: block i sets Alice's balance to 100 + i and writes
// storage slot i of Bob's "contract". Roots are tags, not real trie roots —
// the registry treats them as opaque names.
StateDiff TinyDiff(uint64_t i) {
  StateDiff diff;
  diff.emplace_back(StateKey::Balance(kAlice), U256(100 + i));
  diff.emplace_back(StateKey::Storage(kBob, U256(i)), U256(1000 + i));
  // Journal order matters upstream; give the registry a same-key overwrite to
  // collapse (last writer wins within a block).
  diff.emplace_back(StateKey::Balance(kAlice), U256(200 + i));
  return diff;
}

U256 OracleAliceBalance(uint64_t at_block) {
  return at_block == 0 ? U256(7) : U256(200 + at_block);
}

WorldState TinyBase() {
  WorldState base;
  base.SetBalance(kAlice, U256(7));
  base.SetNonce(kAlice, 3);
  return base;
}

TEST(SnapshotRegistryTest, SeedSnapshotReadableAtConstruction) {
  WorldState base = TinyBase();
  SnapshotRegistry registry(base, FakeRoot(0), 0, 4);
  SnapshotHandle handle = registry.AcquireLatest();
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.block_index(), 0u);
  EXPECT_EQ(handle.root(), FakeRoot(0));
  EXPECT_EQ(handle.GetBalance(kAlice), U256(7));
  EXPECT_EQ(handle.GetNonce(kAlice), 3u);
  EXPECT_EQ(handle.GetBalance(kBob), U256(0));  // Absent account reads zero.
  EXPECT_EQ(registry.live_pins(), 1u);
  handle.release();
  EXPECT_EQ(registry.live_pins(), 0u);
}

TEST(SnapshotRegistryTest, ReadsAreAsOfThePinnedBlock) {
  SnapshotRegistry registry(TinyBase(), FakeRoot(0), 0, 8);
  std::vector<SnapshotHandle> pins;
  pins.push_back(registry.AcquireLatest());  // Pin block 0 before publishing.
  for (uint64_t i = 1; i <= 5; ++i) {
    registry.Publish(i, FakeRoot(static_cast<uint8_t>(i)), TinyDiff(i));
    pins.push_back(registry.AcquireLatest());
  }
  // Every pin still reads its own block's values — MVCC, not latest-wins.
  for (uint64_t i = 0; i <= 5; ++i) {
    EXPECT_EQ(pins[i].block_index(), i);
    EXPECT_EQ(pins[i].GetBalance(kAlice), OracleAliceBalance(i)) << "block " << i;
    for (uint64_t slot = 1; slot <= 5; ++slot) {
      U256 expect = slot <= i ? U256(1000 + slot) : U256(0);
      EXPECT_EQ(pins[i].GetStorage(kBob, U256(slot)), expect)
          << "block " << i << " slot " << slot;
    }
  }
  EXPECT_EQ(registry.latest_block(), 5u);
  EXPECT_EQ(registry.stats().published, 6u);
}

TEST(SnapshotRegistryTest, RetentionWindowBoundsAcquirableRoots) {
  SnapshotRegistry registry(TinyBase(), FakeRoot(0), 0, 2);
  for (uint64_t i = 1; i <= 5; ++i) {
    registry.Publish(i, FakeRoot(static_cast<uint8_t>(i)), TinyDiff(i));
    EXPECT_LE(registry.retained(), 2u);
  }
  // Only the newest two roots answer AcquireAt.
  EXPECT_FALSE(registry.AcquireAt(FakeRoot(0)).valid());
  EXPECT_FALSE(registry.AcquireAt(FakeRoot(3)).valid());
  EXPECT_TRUE(registry.AcquireAt(FakeRoot(4)).valid());
  EXPECT_TRUE(registry.AcquireAt(FakeRoot(5)).valid());
  EXPECT_FALSE(registry.AcquireAt(FakeRoot(77)).valid());  // Never existed.
  SnapshotStats stats = registry.stats();
  EXPECT_EQ(stats.retired, 4u);  // Blocks 0..3 left the window.
  EXPECT_EQ(stats.acquire_misses, 3u);
  // Nothing was pinned, so nothing deferred; old versions folded away.
  EXPECT_EQ(stats.evictions_deferred, 0u);
  EXPECT_GT(stats.versions_folded, 0u);
}

TEST(SnapshotRegistryTest, LivePinDefersEvictionAndStaysExact) {
  SnapshotRegistry registry(TinyBase(), FakeRoot(0), 0, 2);
  registry.Publish(1, FakeRoot(1), TinyDiff(1));
  SnapshotHandle pinned = registry.AcquireAt(FakeRoot(1));
  ASSERT_TRUE(pinned.valid());

  // Push block 1 far out of the retention window while it stays pinned.
  for (uint64_t i = 2; i <= 8; ++i) {
    registry.Publish(i, FakeRoot(static_cast<uint8_t>(i)), TinyDiff(i));
  }
  SnapshotStats mid = registry.stats();
  EXPECT_GE(mid.evictions_deferred, 1u);  // The retire found our live pin.
  // The long-running reader still sees exactly block 1's state: the pin held
  // the prune floor at 1, so nothing it can reach was folded.
  EXPECT_EQ(pinned.GetBalance(kAlice), OracleAliceBalance(1));
  EXPECT_EQ(pinned.GetStorage(kBob, U256(1)), U256(1001));
  EXPECT_EQ(pinned.GetStorage(kBob, U256(2)), U256(0));  // Future write invisible.
  EXPECT_FALSE(registry.AcquireAt(FakeRoot(1)).valid());  // Retired: no NEW pins.

  // Release: the floor advances, the deferred prune folds blocks ≤ 6, and the
  // newest snapshots still read exactly.
  pinned.release();
  EXPECT_EQ(registry.live_pins(), 0u);
  EXPECT_GT(registry.stats().versions_folded, mid.versions_folded);
  SnapshotHandle latest = registry.AcquireLatest();
  EXPECT_EQ(latest.GetBalance(kAlice), OracleAliceBalance(8));
  for (uint64_t slot = 1; slot <= 8; ++slot) {
    EXPECT_EQ(latest.GetStorage(kBob, U256(slot)), U256(1000 + slot)) << "slot " << slot;
  }
}

TEST(SnapshotRegistryTest, FoldedValuesServeChainMisses) {
  // Key written once in block 1, never again: after pruning, reads at newer
  // blocks must resolve through the folded map, not lose the value.
  SnapshotRegistry registry(TinyBase(), FakeRoot(0), 0, 2);
  StateDiff once;
  once.emplace_back(StateKey::Storage(kBob, U256(0xDEAD)), U256(42));
  registry.Publish(1, FakeRoot(1), once);
  for (uint64_t i = 2; i <= 6; ++i) {
    registry.Publish(i, FakeRoot(static_cast<uint8_t>(i)), StateDiff{});
  }
  SnapshotHandle latest = registry.AcquireLatest();
  EXPECT_EQ(latest.GetStorage(kBob, U256(0xDEAD)), U256(42));
  EXPECT_GE(registry.stats().versions_folded, 1u);
  EXPECT_EQ(registry.version_keys(), 0u);  // Chain fully compacted.
}

TEST(SnapshotRegistryTest, MoveTransfersThePin) {
  SnapshotRegistry registry(TinyBase(), FakeRoot(0), 0, 2);
  SnapshotHandle a = registry.AcquireLatest();
  EXPECT_EQ(registry.live_pins(), 1u);
  SnapshotHandle b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): moved-from is tested.
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(registry.live_pins(), 1u);  // One pin, not two.
  b.release();
  EXPECT_EQ(registry.live_pins(), 0u);
}

// --- QueryEngineTest --------------------------------------------------------

WorkloadConfig QueryTestConfig(uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.transactions_per_block = 48;
  config.users = 200;
  config.tokens = 5;
  config.pools = 3;
  config.funds = 2;
  return config;
}

// Field-by-field response equality with readable failure output. wall_ns is
// deliberately excluded — it is the one field allowed to differ.
void ExpectResponsesIdentical(const QueryResponse& got, const QueryResponse& want,
                              const std::string& label) {
  EXPECT_EQ(got.status, want.status) << label;
  EXPECT_EQ(got.block_index, want.block_index) << label;
  EXPECT_EQ(HexEncode(got.root), HexEncode(want.root)) << label;
  EXPECT_EQ(got.value, want.value) << label;
  EXPECT_EQ(got.bytes, want.bytes) << label;
  EXPECT_EQ(got.call_status, want.call_status) << label;
  EXPECT_EQ(got.gas_used, want.gas_used) << label;
  EXPECT_EQ(got.writes_discarded, want.writes_discarded) << label;
}

TEST(QueryEngineTest, EveryKindMatchesTheOracleReader) {
  WorkloadGenerator gen(QueryTestConfig(1));
  WorldState genesis = gen.MakeGenesis();
  Hash256 root = genesis.StateRoot();
  SnapshotRegistry registry(genesis, root, 0, 4);
  QueryEngineOptions options;
  options.threads = 4;
  QueryEngine engine(registry, options);

  QueryWorkloadConfig qc;
  std::vector<TimedQuery> load = gen.MakeQueryLoad(400, qc);
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(load.size());
  for (const TimedQuery& timed : load) {
    futures.push_back(engine.Submit(timed.request));
  }
  WorldStateReader oracle(genesis);
  for (size_t i = 0; i < load.size(); ++i) {
    QueryResponse got = futures[i].get();
    ASSERT_TRUE(got.ok()) << "query " << i;
    QueryResponse want = EvalQuery(load[i].request, oracle, 0, root);
    ExpectResponsesIdentical(got, want,
                             std::string("query ") + std::to_string(i) + " kind " +
                                 QueryKindName(load[i].request.kind));
  }
  QueryStats stats = engine.Stop();
  EXPECT_EQ(stats.served, load.size());
  EXPECT_EQ(stats.unknown_root, 0u);
  for (int k = 0; k < kQueryKinds; ++k) {
    EXPECT_GT(stats.by_kind[k], 0u) << QueryKindName(static_cast<QueryKind>(k))
                                    << " never sampled: vacuous mix coverage";
  }
}

TEST(QueryEngineTest, EthCallWritesAreDiscarded) {
  WorkloadGenerator gen(QueryTestConfig(2));
  WorldState genesis = gen.MakeGenesis();
  Hash256 root = genesis.StateRoot();
  SnapshotRegistry registry(genesis, root, 0, 4);
  QueryEngine engine(registry);

  // A transfer pushed through eth_call executes (both balance slots written
  // in the sandbox view) but mutates nothing: the balanceOf afterwards still
  // reads the genesis balance.
  Address token = gen.TokenAddress(0);
  Address from = gen.UserAddress(1);
  Address to = gen.UserAddress(2);
  U256 before = genesis.GetStorage(token, Erc20BalanceSlot(from));
  ASSERT_NE(before, U256(0));

  QueryRequest transfer;
  transfer.kind = QueryKind::kCall;
  transfer.account = token;
  transfer.caller = from;
  transfer.calldata = Erc20TransferCall(to, U256(5));
  QueryResponse response = engine.Submit(transfer).get();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.call_status, EvmStatus::kSuccess);
  EXPECT_GE(response.writes_discarded, 2u);  // Both balance slots, sandboxed.

  QueryRequest probe;
  probe.kind = QueryKind::kGetStorageAt;
  probe.account = token;
  probe.slot = Erc20BalanceSlot(from);
  QueryResponse after = engine.Submit(probe).get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value, before);  // The snapshot never moved.
  engine.Stop();
}

TEST(QueryEngineTest, UnknownRootAndStopAreSurfaced) {
  WorldState base = TinyBase();
  SnapshotRegistry registry(base, FakeRoot(0), 0, 2);
  QueryEngine engine(registry);
  QueryRequest request;
  request.kind = QueryKind::kGetBalance;
  request.account = kAlice;

  request.at_root = FakeRoot(99);  // Never published.
  QueryResponse miss = engine.Submit(request).get();
  EXPECT_EQ(miss.status, QueryStatus::kUnknownRoot);

  request.at_root.reset();
  QueryResponse hit = engine.Submit(request).get();
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value, U256(7));

  QueryStats stats = engine.Stop();
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.unknown_root, 1u);
  // Post-stop submissions resolve immediately as rejected.
  QueryResponse late = engine.Submit(request).get();
  EXPECT_EQ(late.status, QueryStatus::kRejected);
  EXPECT_EQ(engine.Stop().rejected, 1u);  // Stop is idempotent; stats final.
}

TEST(QueryEngineTest, BackpressureNeverDropsAccepted) {
  WorldState base = TinyBase();
  SnapshotRegistry registry(base, FakeRoot(0), 0, 2);
  QueryEngineOptions options;
  options.threads = 1;
  options.queue_capacity = 2;  // Saturates instantly; Submit must block, not drop.
  QueryEngine engine(registry, options);
  QueryRequest request;
  request.kind = QueryKind::kGetNonce;
  request.account = kAlice;
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 300; ++i) {
    futures.push_back(engine.Submit(request));
  }
  for (std::future<QueryResponse>& f : futures) {
    QueryResponse response = f.get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value, U256(3));
  }
  EXPECT_EQ(engine.Stop().served, 300u);
}

// --- Chain-backed suites ----------------------------------------------------

struct Stream {
  WorldState genesis;
  std::vector<Block> blocks;
  std::vector<Hash256> oracle_roots;
  // Serial-replay state after each block; index 0 = genesis. The query
  // oracle: a response pinned at oracle_roots[b] must read states[b + 1].
  std::vector<WorldState> states;
};

Stream MakeStream(const WorkloadConfig& config, int blocks) {
  WorkloadGenerator gen(config);
  Stream stream;
  stream.genesis = gen.MakeGenesis();
  stream.states.push_back(stream.genesis);
  WorldState state = stream.genesis;
  SerialExecutor oracle{ExecOptions{}};
  for (int b = 0; b < blocks; ++b) {
    stream.blocks.push_back(gen.MakeBlock());
    oracle.Execute(stream.blocks.back(), state);
    stream.oracle_roots.push_back(state.StateRoot());
    stream.states.push_back(state);
  }
  return stream;
}

// root (hex) -> (block_index, replay state). Covers the seed snapshot too, so
// any response served anywhere in the stream has an oracle.
std::map<std::string, std::pair<uint64_t, const WorldState*>> OracleIndex(const Stream& s) {
  std::map<std::string, std::pair<uint64_t, const WorldState*>> index;
  index[HexEncode(s.genesis.StateRoot())] = {0, &s.states[0]};
  for (size_t b = 0; b < s.oracle_roots.size(); ++b) {
    index[HexEncode(s.oracle_roots[b])] = {b + 1, &s.states[b + 1]};
  }
  return index;
}

// Validates one served response against the serial-replay oracle at its
// pinned root. Returns false (with failures recorded) on mismatch.
void ExpectResponseMatchesReplay(
    const QueryResponse& got, const QueryRequest& request,
    const std::map<std::string, std::pair<uint64_t, const WorldState*>>& oracle,
    const std::string& label) {
  auto it = oracle.find(HexEncode(got.root));
  ASSERT_NE(it, oracle.end()) << label << ": served at a root the oracle never produced";
  const auto& [block_index, state] = it->second;
  ASSERT_EQ(got.block_index, block_index) << label;
  WorldStateReader reader(*state);
  QueryResponse want = EvalQuery(request, reader, block_index, got.root);
  ExpectResponsesIdentical(got, want, label);
}

ChainOptions QueryChainOptions(ExecutorKind kind, int os_threads, bool query_tier,
                               size_t retain) {
  ChainOptions options;
  options.executor = kind;
  options.exec.threads = 8;
  options.exec.os_threads = os_threads;
  options.queue_depth = 3;
  options.query_tier = query_tier;
  options.query_retain = retain;
  return options;
}

// The deterministic BlockReport fields, bit for bit (same list the
// speculation battery pins down); wall-clock fields deliberately absent.
void ExpectDeterministicReportsIdentical(const std::vector<BlockReport>& off,
                                         const std::vector<BlockReport>& on,
                                         const std::string& label) {
  ASSERT_EQ(off.size(), on.size()) << label;
  for (size_t b = 0; b < off.size(); ++b) {
    SCOPED_TRACE(testing::Message() << label << " block " << b);
    EXPECT_EQ(off[b].makespan_ns, on[b].makespan_ns);
    EXPECT_EQ(off[b].conflicts, on[b].conflicts);
    EXPECT_EQ(off[b].redo_success, on[b].redo_success);
    EXPECT_EQ(off[b].redo_fail, on[b].redo_fail);
    EXPECT_EQ(off[b].full_reexecutions, on[b].full_reexecutions);
    EXPECT_EQ(off[b].lock_aborts, on[b].lock_aborts);
    EXPECT_EQ(off[b].redo_entries_reexecuted, on[b].redo_entries_reexecuted);
    EXPECT_EQ(off[b].redo_ns, on[b].redo_ns);
    EXPECT_EQ(off[b].oplog_entries, on[b].oplog_entries);
    EXPECT_EQ(off[b].instructions, on[b].instructions);
    EXPECT_EQ(off[b].prefetch_hits, on[b].prefetch_hits);
    EXPECT_EQ(off[b].prefetch_misses, on[b].prefetch_misses);
    EXPECT_EQ(off[b].prefetch_wasted, on[b].prefetch_wasted);
    EXPECT_EQ(off[b].conflict_keys, on[b].conflict_keys);
    ASSERT_EQ(off[b].receipts.size(), on[b].receipts.size());
    for (size_t i = 0; i < off[b].receipts.size(); ++i) {
      EXPECT_EQ(off[b].receipts[i], on[b].receipts[i]) << "tx " << i;
    }
  }
}

TEST(QueryInertnessTest, HammeredTierIsBitInvisible) {
  Stream stream = MakeStream(QueryTestConfig(11), 6);
  WorkloadGenerator gen(QueryTestConfig(11));
  auto oracle = OracleIndex(stream);
  std::vector<TimedQuery> load = gen.MakeQueryLoad(600, QueryWorkloadConfig{});

  for (ExecutorKind kind : {ExecutorKind::kSerial, ExecutorKind::kParallelEvm}) {
    std::string label(ExecutorKindName(kind));
    SCOPED_TRACE(label);

    // Baseline: tier off entirely.
    ChainReport off;
    {
      ChainRunner runner(QueryChainOptions(kind, 4, /*query_tier=*/false, 8), stream.genesis);
      EXPECT_EQ(runner.snapshots(), nullptr);
      for (const Block& block : stream.blocks) {
        ASSERT_TRUE(runner.Submit(block));
      }
      off = runner.Finish();
    }

    // Tier on, four serving threads hammering while blocks flow.
    ChainReport on;
    std::vector<QueryResponse> responses(load.size());
    std::vector<QueryRequest> requests(load.size());
    {
      ChainRunner runner(QueryChainOptions(kind, 4, /*query_tier=*/true, 8), stream.genesis);
      ASSERT_NE(runner.snapshots(), nullptr);
      QueryEngineOptions qopt;
      qopt.threads = 4;
      QueryEngine engine(*runner.snapshots(), qopt);
      std::vector<std::future<QueryResponse>> futures(load.size());
      std::thread hammer([&] {
        for (size_t i = 0; i < load.size(); ++i) {
          requests[i] = load[i].request;
          futures[i] = engine.Submit(load[i].request);
        }
      });
      for (const Block& block : stream.blocks) {
        ASSERT_TRUE(runner.Submit(block));
      }
      on = runner.Finish();
      hammer.join();
      for (size_t i = 0; i < futures.size(); ++i) {
        responses[i] = futures[i].get();
      }
      QueryStats stats = engine.Stop();
      EXPECT_EQ(stats.served, load.size());  // Latest-root queries never miss.
      EXPECT_GT(on.query_snapshots.published, stream.blocks.size());
    }

    // Inertness: roots, final root, and every deterministic report field.
    ASSERT_EQ(off.roots.size(), stream.oracle_roots.size());
    ASSERT_EQ(on.roots.size(), stream.oracle_roots.size());
    for (size_t b = 0; b < stream.oracle_roots.size(); ++b) {
      ASSERT_EQ(HexEncode(on.roots[b]), HexEncode(stream.oracle_roots[b])) << "block " << b;
      ASSERT_EQ(HexEncode(off.roots[b]), HexEncode(on.roots[b])) << "block " << b;
    }
    EXPECT_EQ(HexEncode(off.final_root), HexEncode(on.final_root));
    ExpectDeterministicReportsIdentical(off.block_reports, on.block_reports, label);

    // Exactness: every mid-pipeline response matches the serial replay at
    // whatever root it was served.
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok()) << "query " << i;
      ExpectResponseMatchesReplay(responses[i], requests[i], oracle,
                                  label + " query " + std::to_string(i));
    }
  }
}

TEST(QueryInertnessTest, AbortMidQueryResolvesEverythingConsistently) {
  Stream stream = MakeStream(QueryTestConfig(13), 8);
  WorkloadGenerator gen(QueryTestConfig(13));
  auto oracle = OracleIndex(stream);
  std::vector<TimedQuery> load = gen.MakeQueryLoad(400, QueryWorkloadConfig{});

  ChainRunner runner(QueryChainOptions(ExecutorKind::kParallelEvm, 4, true, 8),
                     stream.genesis);
  QueryEngineOptions qopt;
  qopt.threads = 4;
  QueryEngine engine(*runner.snapshots(), qopt);
  std::vector<std::future<QueryResponse>> futures;
  std::thread producer([&] {
    for (const Block& block : stream.blocks) {
      if (!runner.Submit(block)) {
        break;
      }
    }
  });
  for (const TimedQuery& timed : load) {
    futures.push_back(engine.Submit(timed.request));
  }
  ChainReport report = runner.Abort();  // Pull the plug with queries in flight.
  producer.join();
  engine.Stop();

  EXPECT_TRUE(report.aborted);
  // The committed prefix is an oracle prefix...
  ASSERT_LE(report.roots.size(), stream.oracle_roots.size());
  for (size_t b = 0; b < report.roots.size(); ++b) {
    ASSERT_EQ(HexEncode(report.roots[b]), HexEncode(stream.oracle_roots[b])) << "block " << b;
  }
  // ...and every future resolved; each served response is replay-exact at its
  // root (all served roots are prefix roots, which OracleIndex covers).
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryResponse response = futures[i].get();
    ASSERT_NE(response.status, QueryStatus::kUnknownRoot) << "query " << i;
    if (response.ok()) {
      ExpectResponseMatchesReplay(response, load[i].request, oracle,
                                  "aborted query " + std::to_string(i));
    }
  }
}

// --- QueryOracleTest: randomized battery ------------------------------------

struct QueryScenario {
  WorkloadConfig config;
  int blocks = 3;
  ExecutorKind kind = ExecutorKind::kParallelEvm;
  int os_threads = 4;
  int serve_threads = 2;
  int queries = 120;
  QueryWorkloadConfig query;
};

constexpr ExecutorKind kAllExecutors[] = {
    ExecutorKind::kSerial,   ExecutorKind::kTwoPhaseLocking, ExecutorKind::kOcc,
    ExecutorKind::kBlockStm, ExecutorKind::kParallelEvm,
};

// Shape depends only on the absolute seed: any failing scenario reproduces
// standalone via --seed=<seed> --blocks=1.
QueryScenario MakeQueryScenario(uint64_t seed) {
  QueryScenario scenario;
  WorkloadConfig& config = scenario.config;
  config.seed = seed;
  int s = static_cast<int>(seed % 1'000);
  config.transactions_per_block = 16 + (s % 3) * 16;  // 16 / 32 / 48
  config.users = 80 + (s % 4) * 60;                   // 80 .. 260
  config.tokens = 2 + s % 4;
  config.pools = 1 + s % 3;
  config.funds = 1 + s % 2;
  scenario.blocks = 2 + s % 3;  // 2 .. 4
  scenario.kind = kAllExecutors[s % std::size(kAllExecutors)];
  scenario.os_threads = std::vector<int>{1, 4, 16}[s % 3];
  scenario.serve_threads = 1 + s % 4;
  scenario.query.seed = seed * 31 + 7;
  scenario.query.contract_zipf_s = 0.8 + 0.2 * (s % 3);
  return scenario;
}

TEST(QueryOracleTest, ServedResponsesMatchSerialReplayAcrossRandomChains) {
  std::set<std::pair<ExecutorKind, int>> coverage;
  uint64_t total_served = 0;
  for (int n = 0; n < g_blocks; ++n) {
    uint64_t seed = g_seed + static_cast<uint64_t>(n);
    SCOPED_TRACE(testing::Message() << "scenario seed " << seed << " (repro: ./tests/"
                                    << "query_test --seed=" << seed << " --blocks=1)");
    QueryScenario scenario = MakeQueryScenario(seed);
    coverage.emplace(scenario.kind, scenario.os_threads);
    Stream stream = MakeStream(scenario.config, scenario.blocks);
    WorkloadGenerator gen(scenario.config);
    auto oracle = OracleIndex(stream);
    std::vector<TimedQuery> load = gen.MakeQueryLoad(scenario.queries, scenario.query);

    // retain covers the whole stream so every root stays acquirable for the
    // post-run pinned sweep.
    size_t retain = static_cast<size_t>(scenario.blocks) + 1;
    ChainRunner runner(QueryChainOptions(scenario.kind, scenario.os_threads, true, retain),
                      stream.genesis);
    QueryEngineOptions qopt;
    qopt.threads = scenario.serve_threads;
    QueryEngine engine(*runner.snapshots(), qopt);

    // Hammer mid-pipeline at the latest root.
    std::vector<std::future<QueryResponse>> futures;
    futures.reserve(load.size());
    std::thread hammer([&] {
      for (const TimedQuery& timed : load) {
        futures.push_back(engine.Submit(timed.request));
      }
    });
    for (const Block& block : stream.blocks) {
      ASSERT_TRUE(runner.Submit(block));
    }
    ChainReport report = runner.Finish();
    hammer.join();

    ASSERT_EQ(report.roots.size(), stream.oracle_roots.size());
    for (size_t b = 0; b < stream.oracle_roots.size(); ++b) {
      ASSERT_EQ(HexEncode(report.roots[b]), HexEncode(stream.oracle_roots[b]))
          << "block " << b;
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      QueryResponse response = futures[i].get();
      ASSERT_TRUE(response.ok()) << "mid-run query " << i;
      ExpectResponseMatchesReplay(response, load[i].request, oracle,
                                  "mid-run query " + std::to_string(i));
      ++total_served;
    }

    // Post-run pinned sweep: every root in the stream answers AcquireAt and
    // reads exactly like the serial replay stopped there.
    for (size_t b = 0; b < stream.oracle_roots.size(); ++b) {
      QueryRequest pinned = load[b % load.size()].request;
      pinned.at_root = stream.oracle_roots[b];
      QueryResponse response = engine.Submit(pinned).get();
      ASSERT_TRUE(response.ok()) << "pinned query at block " << b + 1;
      EXPECT_EQ(response.block_index, b + 1);
      ExpectResponseMatchesReplay(response, pinned, oracle,
                                  "pinned query at block " + std::to_string(b + 1));
    }
    engine.Stop();
  }

  // Vacuity guards, full default battery only.
  if (g_seed == kDefaultSeed && g_blocks == kDefaultBlocks) {
    EXPECT_GT(total_served, 1'000u);
    EXPECT_GE(coverage.size(), 8u);  // Executor x thread-count spread.
  }
}

}  // namespace
}  // namespace pevm

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      pevm::g_seed = std::stoull(arg.substr(7));
    } else if (arg.rfind("--blocks=", 0) == 0) {
      pevm::g_blocks = std::stoi(arg.substr(9));
    } else {
      std::fprintf(stderr, "unknown flag: %s (supported: --seed=N --blocks=M)\n", arg.c_str());
      return 2;
    }
  }
  return RUN_ALL_TESTS();
}
