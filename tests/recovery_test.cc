// Durability battery for the KV-backed chain runner (src/chain + src/kv).
//
// The property under test (the issue's acceptance bar): after an unclean stop
// at ANY byte — including a torn final record — reopening the store recovers
// a (block count, state root) pair bit-identical to a from-scratch serial
// replay of exactly that committed prefix, for every executor and OS thread
// count; and a runner reopened on the directory resumes from that durable
// head and produces the same roots the uninterrupted stream would have.
//
// Failure is simulated two ways: dropping the runner without draining
// (Abort — an unclean stop at a block boundary) and truncating the tail
// segment file at a random byte (a torn write). fsync cannot make a
// difference under either (the process survives), which is exactly why the
// tests can run it off for speed without weakening the recovery property.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/chain/chain_runner.h"
#include "src/chain/node_store.h"
#include "src/kv/kv_store.h"
#include "src/telemetry/trace.h"
#include "src/workload/block_gen.h"

namespace pevm {
namespace {

namespace fs = std::filesystem;

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

Stream MakeStream(uint64_t seed, int blocks) {
  WorkloadGenerator gen(SmallConfig(seed));
  Stream stream;
  stream.genesis = gen.MakeGenesis();
  WorldState state = stream.genesis;
  std::unique_ptr<Executor> oracle = MakeExecutor(ExecutorKind::kSerial, ExecOptions{});
  for (int b = 0; b < blocks; ++b) {
    stream.blocks.push_back(gen.MakeBlock());
    oracle->Execute(stream.blocks.back(), state);
    stream.oracle_roots.push_back(state.StateRoot());
  }
  return stream;
}

// The root a prefix of `committed` blocks must recover to.
Hash256 PrefixRoot(const Stream& stream, uint64_t committed) {
  return committed == 0 ? stream.genesis.StateRoot()
                        : stream.oracle_roots[static_cast<size_t>(committed) - 1];
}

class RecoveryDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("rec_" + std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Fsync off: these tests kill the process never, only the store, so sync
  // cannot affect recovery and would only slow the battery down. The one
  // fsync-on case lives in ChainPersistenceTest.FsyncAccounting.
  ChainOptions KvChainOptions(const std::string& dir) {
    ChainOptions options;
    options.persist = PersistMode::kKv;
    options.kv_dir = dir;
    options.kv.fsync = false;
    options.kv.background_compaction = false;  // Keep segment files inert for surgery.
    options.kv.segment_bytes = 64u << 10;      // Force rotation so tails span segments.
    return options;
  }

  fs::path dir_;
};

using ChainPersistenceTest = RecoveryDirTest;
using ChainResumeTest = RecoveryDirTest;
using CrashRecoveryPropertyTest = RecoveryDirTest;

// --- Tentpole wiring: durable roots across every executor and thread count.

TEST_F(ChainPersistenceTest, KvRootsBitIdenticalAcrossExecutorsAndThreads) {
  Stream stream = MakeStream(7100, 3);
  for (ExecutorKind kind : kAllExecutors) {
    for (int os_threads : {1, 4, 16}) {
      SCOPED_TRACE(testing::Message()
                   << ExecutorKindName(kind) << " os_threads=" << os_threads);
      fs::path dir = dir_ / (std::string(ExecutorKindName(kind)) + "_" +
                             std::to_string(os_threads));
      ChainOptions options = KvChainOptions(dir.string());
      options.executor = kind;
      options.exec.os_threads = os_threads;
      ChainRunner runner(options, stream.genesis);
      for (const Block& block : stream.blocks) {
        ASSERT_TRUE(runner.Submit(block));
      }
      ChainReport report = runner.Finish();
      ASSERT_EQ(report.blocks_committed, stream.blocks.size());
      for (size_t b = 0; b < stream.oracle_roots.size(); ++b) {
        ASSERT_EQ(HexEncode(report.roots[b]), HexEncode(stream.oracle_roots[b]))
            << "block " << b;
      }
      // Every block carried durable freight.
      ASSERT_EQ(report.blocks.size(), stream.blocks.size());
      for (const ops::BlockRecord& r : report.blocks) {
        EXPECT_GT(r.bytes_appended, 0u);
        EXPECT_GT(r.nodes_written, 0u);
      }
      EXPECT_GT(report.kv_bytes_appended, 0u);
    }
  }
}

// The in-memory NodeStore is the byte-accounting oracle: it mirrors the KV
// framing arithmetic without I/O, so per-block bytes_appended must agree
// exactly between the two persist modes.
TEST_F(ChainPersistenceTest, InMemoryStoreMirrorsKvByteAccounting) {
  Stream stream = MakeStream(7200, 4);
  auto run = [&](PersistMode mode) {
    ChainOptions options = KvChainOptions((dir_ / "kv").string());
    options.persist = mode;
    ChainRunner runner(options, stream.genesis);
    for (const Block& block : stream.blocks) {
      EXPECT_TRUE(runner.Submit(block));
    }
    return runner.Finish();
  };
  ChainReport mem = run(PersistMode::kInMemory);
  ChainReport kv = run(PersistMode::kKv);
  ASSERT_EQ(mem.blocks.size(), kv.blocks.size());
  for (size_t b = 0; b < mem.blocks.size(); ++b) {
    EXPECT_EQ(mem.blocks[b].bytes_appended, kv.blocks[b].bytes_appended) << "block " << b;
    EXPECT_EQ(mem.blocks[b].nodes_written, kv.blocks[b].nodes_written) << "block " << b;
    EXPECT_EQ(kv.blocks[b].fsyncs, 0u);  // fsync off in this battery.
  }
  EXPECT_EQ(mem.kv_bytes_appended, kv.kv_bytes_appended);
  EXPECT_EQ(mem.kv_fsyncs, 0u);
}

TEST_F(ChainPersistenceTest, FsyncAccounting) {
  Stream stream = MakeStream(7300, 3);
  ChainOptions options = KvChainOptions(dir_.string());
  options.kv.fsync = true;
  ChainRunner runner(options, stream.genesis);
  for (const Block& block : stream.blocks) {
    ASSERT_TRUE(runner.Submit(block));
  }
  ChainReport report = runner.Finish();
  ASSERT_EQ(report.blocks_committed, stream.blocks.size());
  // Single committer thread: every block batch pays exactly one fsync, plus
  // one for the genesis seal.
  for (const ops::BlockRecord& r : report.blocks) {
    EXPECT_EQ(r.fsyncs, 1u);
    EXPECT_GE(r.commit_persist_ns, r.sync_ns);
  }
  EXPECT_EQ(report.kv_fsyncs, stream.blocks.size() + 1);
}

// --- Multi-block batched commits: fsyncs amortize, accounting stays honest.

TEST_F(ChainPersistenceTest, BatchedCommitsAmortizeFsyncsAndKeepAccountingHonest) {
  Stream stream = MakeStream(7700, 7);
  ChainOptions options = KvChainOptions(dir_.string());
  options.kv.fsync = true;
  options.commit.batch_blocks = 3;
  options.commit.os_threads = 4;
  ChainRunner runner(options, stream.genesis);
  for (const Block& block : stream.blocks) {
    ASSERT_TRUE(runner.Submit(block));
  }
  ChainReport report = runner.Finish();
  ASSERT_EQ(report.blocks_committed, stream.blocks.size());
  for (size_t b = 0; b < stream.oracle_roots.size(); ++b) {
    ASSERT_EQ(HexEncode(report.roots[b]), HexEncode(stream.oracle_roots[b])) << "block " << b;
  }
  EXPECT_EQ(report.commit_batches, 3u);  // 3 + 3 + 1 (drain flush).
  // Seal freight (fsync, log bytes, archived nodes) lands on each batch's
  // last block; earlier members carry none — but every block still records
  // its own honest enqueue→durable latency.
  for (size_t b = 0; b < report.blocks.size(); ++b) {
    const ops::BlockRecord& r = report.blocks[b];
    const bool batch_final = b == 2 || b == 5 || b == 6;
    EXPECT_EQ(r.fsyncs, batch_final ? 1u : 0u) << "block " << b;
    EXPECT_EQ(r.bytes_appended > 0, batch_final) << "block " << b;
    EXPECT_EQ(r.nodes_written > 0, batch_final) << "block " << b;
    EXPECT_GT(r.queue_to_durable_ns, 0u) << "block " << b;
  }
  EXPECT_EQ(report.kv_fsyncs, 3u + 1u);  // One per batch plus the genesis seal.
}

TEST_F(ChainPersistenceTest, InMemoryStoreMirrorsKvByteAccountingUnderBatching) {
  Stream stream = MakeStream(7800, 5);
  auto run = [&](PersistMode mode) {
    ChainOptions options = KvChainOptions((dir_ / "kv").string());
    options.persist = mode;
    options.commit.batch_blocks = 2;
    ChainRunner runner(options, stream.genesis);
    for (const Block& block : stream.blocks) {
      EXPECT_TRUE(runner.Submit(block));
    }
    return runner.Finish();
  };
  ChainReport mem = run(PersistMode::kInMemory);
  ChainReport kv = run(PersistMode::kKv);
  ASSERT_EQ(mem.blocks.size(), kv.blocks.size());
  for (size_t b = 0; b < mem.blocks.size(); ++b) {
    EXPECT_EQ(mem.blocks[b].bytes_appended, kv.blocks[b].bytes_appended) << "block " << b;
    EXPECT_EQ(mem.blocks[b].nodes_written, kv.blocks[b].nodes_written) << "block " << b;
  }
  EXPECT_EQ(mem.kv_bytes_appended, kv.kv_bytes_appended);
  EXPECT_EQ(mem.commit_batches, kv.commit_batches);
}

// --- Resume: reopening a cleanly finished directory continues the stream.

TEST_F(ChainResumeTest, ReopenResumesFromDurableHeadAndContinues) {
  Stream stream = MakeStream(7400, 6);
  ChainOptions options = KvChainOptions(dir_.string());
  {
    ChainRunner runner(options, stream.genesis);
    for (size_t b = 0; b < 3; ++b) {
      ASSERT_TRUE(runner.Submit(stream.blocks[b]));
    }
    ChainReport report = runner.Finish();
    ASSERT_EQ(report.blocks_committed, 3u);
    EXPECT_EQ(report.blocks_resumed, 0u);
  }
  {
    // The genesis argument is ignored on resume; pass an empty state to prove
    // the committed WorldState really comes from the store.
    ChainRunner runner(options, WorldState{});
    EXPECT_EQ(runner.recovered_blocks(), 3u);
    for (size_t b = 3; b < stream.blocks.size(); ++b) {
      ASSERT_TRUE(runner.Submit(stream.blocks[b]));
    }
    ChainReport report = runner.Finish();
    EXPECT_EQ(report.blocks_resumed, 3u);
    ASSERT_EQ(report.blocks_committed, 3u);  // This run's blocks only.
    for (size_t b = 3; b < stream.oracle_roots.size(); ++b) {
      EXPECT_EQ(HexEncode(report.roots[b - 3]), HexEncode(stream.oracle_roots[b]))
          << "block " << b;
    }
  }
  {
    // Third open: the whole stream is durable now.
    ChainRunner runner(options, WorldState{});
    EXPECT_EQ(runner.recovered_blocks(), stream.blocks.size());
    EXPECT_EQ(HexEncode(runner.state().StateRoot()), HexEncode(stream.oracle_roots.back()));
    runner.Finish();
  }
}

TEST_F(ChainResumeTest, AbortLeavesConsistentDurablePrefix) {
  Stream stream = MakeStream(7500, 6);
  ChainOptions options = KvChainOptions(dir_.string());
  uint64_t committed = 0;
  {
    ChainRunner runner(options, stream.genesis);
    for (const Block& block : stream.blocks) {
      if (!runner.Submit(block)) {
        break;
      }
    }
    ChainReport report = runner.Abort();  // Unclean stop at a block boundary.
    committed = report.blocks_committed;
    EXPECT_LE(committed, stream.blocks.size());
  }
  std::string error;
  std::unique_ptr<KvStore> store = KvStore::Open(dir_.string(), KvOptions{.fsync = false}, &error);
  ASSERT_NE(store, nullptr) << error;
  std::optional<RecoveredChain> recovered = RecoverChain(*store);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->blocks_committed, committed);
  EXPECT_EQ(HexEncode(recovered->root), HexEncode(PrefixRoot(stream, committed)));
  // The flat mirror and the manifest agree (this is the cross-check a
  // resuming ChainRunner performs before accepting the store).
  EXPECT_EQ(HexEncode(recovered->state.StateRoot()), HexEncode(recovered->root));
}

// One number per block: the trace, the flight ring and the snapshot registry
// all count chain-lifetime blocks from 1, so a resumed runner's first block is
// recovered_blocks() + 1 everywhere.
TEST_F(ChainResumeTest, TraceRingAndRegistryNumberBlocksAlike) {
#if defined(PEVM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "instrumentation sites compiled out (-DPEVM_TELEMETRY=OFF)";
#endif
  Stream stream = MakeStream(7900, 5);
  ChainOptions options = KvChainOptions(dir_.string());
  {
    ChainRunner runner(options, stream.genesis);
    for (size_t b = 0; b < 3; ++b) {
      ASSERT_TRUE(runner.Submit(stream.blocks[b]));
    }
    ASSERT_EQ(runner.Finish().blocks_committed, 3u);
  }
  options.query_tier = true;
  telemetry::SetEnabled(true);
  telemetry::Reset();
  ChainRunner runner(options, stream.genesis);
  ASSERT_EQ(runner.recovered_blocks(), 3u);
  for (size_t b = 3; b < 5; ++b) {
    ASSERT_TRUE(runner.Submit(stream.blocks[b]));
  }
  ASSERT_EQ(runner.Finish().blocks_committed, 2u);
  const std::string json = telemetry::ChromeTraceJson();
  telemetry::SetEnabled(false);

  std::vector<uint64_t> ring;
  for (const auto& record : runner.flight_recorder().Snapshot()) {
    ring.push_back(record.block_index);
  }
  EXPECT_EQ(ring, (std::vector<uint64_t>{4, 5}));
  EXPECT_EQ(runner.snapshots()->latest_block(), 5u);

  // Every chain.warm / chain.exec / chain.commit span names block 4 or 5, and
  // each of the two blocks appears once per stage.
  for (const std::string span : {"chain.warm", "chain.exec", "chain.commit"}) {
    SCOPED_TRACE(span);
    const std::string name = "\"name\": \"" + span + "\"";
    std::vector<uint64_t> seen;
    std::istringstream lines(json);
    for (std::string line; std::getline(lines, line);) {
      if (line.find(name) == std::string::npos) {
        continue;
      }
      const size_t arg = line.find("\"block\": ");
      ASSERT_NE(arg, std::string::npos) << line;
      seen.push_back(std::stoull(line.substr(arg + 9)));
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<uint64_t>{4, 5}));
  }
}

// --- The property test: truncate the tail segment at a random byte.

TEST_F(CrashRecoveryPropertyTest, RandomTailTruncationRecoversExactCommittedPrefix) {
  const int kBlocks = 5;
  for (uint64_t seed : {41u, 42u, 43u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Stream stream = MakeStream(seed, kBlocks);
    fs::path pristine = dir_ / ("pristine_" + std::to_string(seed));
    ChainOptions options = KvChainOptions(pristine.string());
    {
      ChainRunner runner(options, stream.genesis);
      for (const Block& block : stream.blocks) {
        ASSERT_TRUE(runner.Submit(block));
      }
      ChainReport report = runner.Finish();
      ASSERT_EQ(report.blocks_committed, static_cast<uint64_t>(kBlocks));
    }

    std::mt19937_64 rng(seed * 1000003);
    for (int trial = 0; trial < 8; ++trial) {
      SCOPED_TRACE(testing::Message() << "trial=" << trial);
      fs::path work = dir_ / ("work_" + std::to_string(seed));
      fs::remove_all(work);
      fs::copy(pristine, work, fs::copy_options::recursive);

      // Tail segment = highest-numbered file (names are zero-padded ids).
      std::vector<fs::path> segments;
      for (const auto& entry : fs::directory_iterator(work)) {
        if (entry.path().extension() == ".seg") {
          segments.push_back(entry.path());
        }
      }
      ASSERT_FALSE(segments.empty());
      std::sort(segments.begin(), segments.end());
      const fs::path& tail = segments.back();
      const uint64_t size = fs::file_size(tail);
      const uint64_t cut = rng() % size;  // Anywhere, header bytes included.
      fs::resize_file(tail, cut);

      std::string error;
      std::unique_ptr<KvStore> store = KvStore::Open(
          work.string(), KvOptions{.fsync = false, .background_compaction = false}, &error);
      ASSERT_NE(store, nullptr) << error;
      std::optional<RecoveredChain> recovered = RecoverChain(*store);
      uint64_t committed = 0;
      if (!recovered.has_value()) {
        // Only legal when the cut tore the genesis batch itself, which can
        // only happen while it is still in the first (single) segment.
        EXPECT_EQ(segments.size(), 1u);
      } else {
        committed = recovered->blocks_committed;
        EXPECT_LE(committed, static_cast<uint64_t>(kBlocks));
        EXPECT_EQ(HexEncode(recovered->root), HexEncode(PrefixRoot(stream, committed)))
            << "committed=" << committed;
        EXPECT_EQ(HexEncode(recovered->state.StateRoot()), HexEncode(recovered->root));
        ASSERT_EQ(recovered->roots.size(), committed);
        for (uint64_t b = 0; b < committed; ++b) {
          EXPECT_EQ(HexEncode(recovered->roots[b]), HexEncode(stream.oracle_roots[b]));
        }
      }
      store.reset();

      // Strongest form, once per seed: resume a runner on the wounded store
      // and replay the rest of the stream; every root must land exactly where
      // the uninterrupted run's did.
      if (trial == 0) {
        ChainOptions resume = KvChainOptions(work.string());
        ChainRunner runner(resume, stream.genesis);
        ASSERT_EQ(runner.recovered_blocks(), committed);
        for (size_t b = committed; b < stream.blocks.size(); ++b) {
          ASSERT_TRUE(runner.Submit(stream.blocks[b]));
        }
        ChainReport report = runner.Finish();
        ASSERT_EQ(report.blocks_committed, stream.blocks.size() - committed);
        for (size_t b = committed; b < stream.oracle_roots.size(); ++b) {
          EXPECT_EQ(HexEncode(report.roots[b - committed]),
                    HexEncode(stream.oracle_roots[b]))
              << "block " << b;
        }
      }
      fs::remove_all(work);
    }
  }
}

// The durability-lag contract under multi-block batching: the store only
// ever seals at batch boundaries (and the drain flush), so a torn tail can
// roll recovery back ONLY to one of those points — never into the middle of
// a batch — and a runner resumed on the wounded store replays forward to
// roots bit-identical to the uninterrupted serial oracle.
TEST_F(CrashRecoveryPropertyTest, TruncationUnderBatchingRecoversOnBatchBoundaries) {
  const int kBlocks = 7;
  const size_t kBatch = 3;  // Seals after blocks 3, 6 and the drain flush at 7.
  Stream stream = MakeStream(45, kBlocks);
  fs::path pristine = dir_ / "pristine";
  ChainOptions options = KvChainOptions(pristine.string());
  options.commit.batch_blocks = kBatch;
  options.commit.os_threads = 4;
  {
    ChainRunner runner(options, stream.genesis);
    for (const Block& block : stream.blocks) {
      ASSERT_TRUE(runner.Submit(block));
    }
    ChainReport report = runner.Finish();
    ASSERT_EQ(report.blocks_committed, static_cast<uint64_t>(kBlocks));
    ASSERT_EQ(report.commit_batches, 3u);
  }

  std::mt19937_64 rng(997);
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial=" << trial);
    fs::path work = dir_ / "work";
    fs::remove_all(work);
    fs::copy(pristine, work, fs::copy_options::recursive);

    std::vector<fs::path> segments;
    for (const auto& entry : fs::directory_iterator(work)) {
      if (entry.path().extension() == ".seg") {
        segments.push_back(entry.path());
      }
    }
    ASSERT_FALSE(segments.empty());
    std::sort(segments.begin(), segments.end());
    const fs::path& tail = segments.back();
    const uint64_t size = fs::file_size(tail);
    fs::resize_file(tail, rng() % size);

    std::string error;
    std::unique_ptr<KvStore> store = KvStore::Open(
        work.string(), KvOptions{.fsync = false, .background_compaction = false}, &error);
    ASSERT_NE(store, nullptr) << error;
    std::optional<RecoveredChain> recovered = RecoverChain(*store);
    uint64_t committed = 0;
    if (!recovered.has_value()) {
      EXPECT_EQ(segments.size(), 1u);  // Only a torn genesis batch may do this.
    } else {
      committed = recovered->blocks_committed;
      // The contract's teeth: recovery can land on a batch boundary and
      // nowhere else.
      EXPECT_TRUE(committed == 0 || committed == kBatch || committed == 2 * kBatch ||
                  committed == static_cast<uint64_t>(kBlocks))
          << "committed=" << committed;
      EXPECT_EQ(HexEncode(recovered->root), HexEncode(PrefixRoot(stream, committed)));
      EXPECT_EQ(HexEncode(recovered->state.StateRoot()), HexEncode(recovered->root));
      ASSERT_EQ(recovered->roots.size(), committed);
      for (uint64_t b = 0; b < committed; ++b) {
        EXPECT_EQ(HexEncode(recovered->roots[b]), HexEncode(stream.oracle_roots[b]));
      }
    }
    store.reset();

    // Wounded-store resume, batching still on: the continuation's roots must
    // land exactly where the uninterrupted run's did.
    if (trial < 2) {
      ChainOptions resume = KvChainOptions(work.string());
      resume.commit.batch_blocks = kBatch;
      resume.commit.os_threads = 4;
      ChainRunner runner(resume, stream.genesis);
      ASSERT_EQ(runner.recovered_blocks(), committed);
      for (size_t b = committed; b < stream.blocks.size(); ++b) {
        ASSERT_TRUE(runner.Submit(stream.blocks[b]));
      }
      ChainReport report = runner.Finish();
      ASSERT_EQ(report.blocks_committed, stream.blocks.size() - committed);
      for (size_t b = committed; b < stream.oracle_roots.size(); ++b) {
        EXPECT_EQ(HexEncode(report.roots[b - committed]), HexEncode(stream.oracle_roots[b]))
            << "block " << b;
      }
    }
    fs::remove_all(work);
  }
}

}  // namespace
}  // namespace pevm
