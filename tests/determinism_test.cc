// The tentpole guarantee of the real-thread read phase: the OS-thread count
// is invisible in results. The same block must produce identical state roots,
// receipts, and BlockReport conflict/redo counters (and the identical virtual
// makespan) whether the thread pool runs 1, 4, or 16 OS threads — only the
// wall-clock fields may differ. Also exercises the ThreadPool directly.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/baselines/block_stm.h"
#include "src/baselines/occ.h"
#include "src/baselines/serial.h"
#include "src/core/parallel_evm.h"
#include "src/core/scheduled.h"
#include "src/exec/thread_pool.h"
#include "src/workload/block_gen.h"

namespace pevm {
namespace {

struct RunResult {
  std::string root;
  uint64_t digest = 0;
  std::vector<BlockReport> reports;
};

// Everything in BlockReport except the wall-clock fields must match.
void ExpectSameReport(const BlockReport& a, const BlockReport& b, int os_threads, int block) {
  SCOPED_TRACE(testing::Message() << "os_threads=" << os_threads << " block=" << block);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.conflicts, b.conflicts);
  EXPECT_EQ(a.redo_success, b.redo_success);
  EXPECT_EQ(a.redo_fail, b.redo_fail);
  EXPECT_EQ(a.full_reexecutions, b.full_reexecutions);
  EXPECT_EQ(a.lock_aborts, b.lock_aborts);
  EXPECT_EQ(a.redo_entries_reexecuted, b.redo_entries_reexecuted);
  EXPECT_EQ(a.redo_ns, b.redo_ns);
  EXPECT_EQ(a.oplog_entries, b.oplog_entries);
  EXPECT_EQ(a.instructions, b.instructions);
  // The prefetch hit/miss/wasted counters are computed by the deterministic
  // block-order accounting pass, so they are part of the contract too.
  EXPECT_EQ(a.prefetch_hits, b.prefetch_hits);
  EXPECT_EQ(a.prefetch_misses, b.prefetch_misses);
  EXPECT_EQ(a.prefetch_wasted, b.prefetch_wasted);
  // Conflict attribution is recorded on the block-order commit path and
  // sorted deterministically, so the whole histogram — keys, order, and
  // redo-vs-fallback split — is part of the contract.
  EXPECT_EQ(a.conflict_keys, b.conflict_keys);
  EXPECT_EQ(a.receipts, b.receipts);
}

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadConfig config;
    config.seed = 4242;
    config.transactions_per_block = 150;
    config.users = 900;
    config.tokens = 5;
    config.pools = 3;
    gen_.emplace(config);
    genesis_ = gen_->MakeGenesis();
    for (int b = 0; b < 2; ++b) {
      blocks_.push_back(gen_->MakeBlock());
    }
  }

  template <typename Run>
  RunResult Execute(Run run, int os_threads) {
    ExecOptions options;
    options.threads = 8;
    options.os_threads = os_threads;
    WorldState state = genesis_;
    RunResult result;
    for (const Block& block : blocks_) {
      result.reports.push_back(run(block, state, options));
    }
    result.root = HexEncode(state.StateRoot());
    result.digest = state.Digest();
    return result;
  }

  template <typename Run>
  void ExpectThreadCountInvisible(Run run) {
    RunResult base = Execute(run, /*os_threads=*/1);
    // The contention workload must actually exercise the conflict/redo paths,
    // or the determinism claim is vacuous. (A scheduled validator reports
    // redo_success but no conflicts for an honest schedule.)
    int conflicts = 0;
    for (const BlockReport& r : base.reports) {
      conflicts += r.conflicts + r.redo_success;
    }
    EXPECT_GT(conflicts, 0);
    for (int os_threads : {4, 16}) {
      RunResult other = Execute(run, os_threads);
      EXPECT_EQ(base.root, other.root) << os_threads << " OS threads";
      EXPECT_EQ(base.digest, other.digest) << os_threads << " OS threads";
      ASSERT_EQ(base.reports.size(), other.reports.size());
      for (size_t b = 0; b < base.reports.size(); ++b) {
        ExpectSameReport(base.reports[b], other.reports[b], os_threads, static_cast<int>(b));
      }
    }
  }

  std::optional<WorkloadGenerator> gen_;
  WorldState genesis_;
  std::vector<Block> blocks_;
};

TEST_F(DeterminismTest, ParallelEvmIsOsThreadCountInvariant) {
  ExpectThreadCountInvisible([](const Block& block, WorldState& state,
                                const ExecOptions& options) {
    return ParallelEvmExecutor(options).Execute(block, state);
  });
}

TEST_F(DeterminismTest, OccIsOsThreadCountInvariant) {
  ExpectThreadCountInvisible([](const Block& block, WorldState& state,
                                const ExecOptions& options) {
    return OccExecutor(options).Execute(block, state);
  });
}

TEST_F(DeterminismTest, BlockStmIsOsThreadCountInvariant) {
  ExpectThreadCountInvisible([](const Block& block, WorldState& state,
                                const ExecOptions& options) {
    return BlockStmExecutor(options).Execute(block, state);
  });
}

// The same invariance with the async prefetch pipeline live: a racy
// background engine plus simulated storage latency must leave every
// deterministic field — including the prefetch hit/miss/wasted counters that
// ExpectSameReport now compares — untouched by the OS-thread count.
TEST_F(DeterminismTest, ParallelEvmWithPrefetchIsOsThreadCountInvariant) {
  ExpectThreadCountInvisible([](const Block& block, WorldState& state,
                                const ExecOptions& options) {
    ExecOptions o = options;
    o.prefetch_depth = 8;
    o.storage.cold_read_ns = 1'000;
    o.storage.warm_read_ns = 100;
    return ParallelEvmExecutor(o).Execute(block, state);
  });
}

TEST_F(DeterminismTest, BlockStmWithPrefetchIsOsThreadCountInvariant) {
  ExpectThreadCountInvisible([](const Block& block, WorldState& state,
                                const ExecOptions& options) {
    ExecOptions o = options;
    o.prefetch_depth = 8;
    return BlockStmExecutor(o).Execute(block, state);
  });
}

TEST_F(DeterminismTest, OccWithPrefetchIsOsThreadCountInvariant) {
  ExpectThreadCountInvisible([](const Block& block, WorldState& state,
                                const ExecOptions& options) {
    ExecOptions o = options;
    o.prefetch_depth = 8;
    return OccExecutor(o).Execute(block, state);
  });
}

// Prefetch depth itself must be invisible in results: any depth produces the
// same root and the same deterministic report fields as depth 0.
TEST_F(DeterminismTest, PrefetchDepthIsInvisibleInResults) {
  auto run_depth = [&](int depth) {
    return Execute(
        [depth](const Block& block, WorldState& state, const ExecOptions& options) {
          ExecOptions o = options;
          o.prefetch_depth = depth;
          return ParallelEvmExecutor(o).Execute(block, state);
        },
        /*os_threads=*/4);
  };
  RunResult cold = run_depth(0);
  for (int depth : {1, 8, 64}) {
    RunResult warm = run_depth(depth);
    EXPECT_EQ(cold.root, warm.root) << "depth " << depth;
    EXPECT_EQ(cold.digest, warm.digest) << "depth " << depth;
    ASSERT_EQ(cold.reports.size(), warm.reports.size());
    for (size_t b = 0; b < cold.reports.size(); ++b) {
      EXPECT_EQ(cold.reports[b].makespan_ns, warm.reports[b].makespan_ns);
      EXPECT_EQ(cold.reports[b].receipts, warm.reports[b].receipts);
      // Counters account the predicted-set quality, not how much of it the
      // engine got to in time, so they engage at every depth.
      EXPECT_GT(warm.reports[b].prefetch_hits + warm.reports[b].prefetch_misses, 0u);
    }
  }
}

// Pins the per-operation SSA log: the deterministic counters of ParallelEVM
// over a fixed seeded stream, at 1 and 4 OS threads. Every entry count, redo
// counter and the virtual makespan depend on the log's granularity (one entry
// per non-constant operation, paper §5.2), so any change to what the builder
// logs or the redo re-executes moves them. A change meant to alter the log's
// granularity updates these values; any other change must leave them alone.
TEST(PerOpLogPinTest, ParallelEvmStreamCountersArePinned) {
  WorkloadConfig config;
  config.users = 300;
  config.seed = 1;
  WorkloadGenerator gen(config);
  WorldState genesis = gen.MakeGenesis();
  std::vector<Block> blocks;
  for (int b = 0; b < 6; ++b) {
    blocks.push_back(gen.MakeBlock());
  }
  for (int b = 0; b < 2; ++b) {
    blocks.push_back(gen.MakeHotContractBlock(200));
  }
  for (int os_threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "os_threads=" << os_threads);
    ExecOptions options;
    options.os_threads = os_threads;
    ParallelEvmExecutor executor(options);
    WorldState state = genesis;
    std::vector<BlockReport> reports;
    for (const Block& block : blocks) {
      reports.push_back(executor.Execute(block, state));
    }
    BlockReport total = AggregateBlockReports(reports);
    EXPECT_EQ(total.oplog_entries, 46'597u);
    EXPECT_EQ(total.redo_entries_reexecuted, 16'137u);
    EXPECT_EQ(total.conflicts, 1'164);
    EXPECT_EQ(total.redo_success, 1'038);
    EXPECT_EQ(total.redo_fail, 1);
    EXPECT_EQ(total.full_reexecutions, 126);
    EXPECT_EQ(total.instructions, 261'300u);
    EXPECT_EQ(total.makespan_ns, 6'580'123u);
    EXPECT_EQ(total.redo_ns, 2'992'600u);
    EXPECT_EQ(total.conflict_keys.size(), 230u);
    EXPECT_EQ(HexEncode(state.StateRoot()),
              "5c55f9cc403b666311bc5664510c77ff693bf8f5a4f7fbeac55602456fbd33b3");
  }
}

TEST_F(DeterminismTest, ProposerIsOsThreadCountInvariant) {
  ExpectThreadCountInvisible([](const Block& block, WorldState& state,
                                const ExecOptions& options) {
    return ProposeBlock(block, state, options).report;
  });
}

TEST_F(DeterminismTest, ScheduledValidatorIsOsThreadCountInvariant) {
  // The validator follows a fixed schedule produced once by the proposer.
  std::vector<BlockSchedule> schedules;
  {
    ExecOptions options;
    options.threads = 8;
    WorldState state = genesis_;
    for (const Block& block : blocks_) {
      schedules.push_back(ProposeBlock(block, state, options).schedule);
    }
  }
  size_t next = 0;
  ExpectThreadCountInvisible([&](const Block& block, WorldState& state,
                                 const ExecOptions& options) {
    const BlockSchedule& schedule = schedules[next++ % schedules.size()];
    return ExecuteWithSchedule(block, schedule, state, options);
  });
}

TEST_F(DeterminismTest, ParallelReadPhaseMatchesSerialExecution) {
  ExecOptions options;
  options.threads = 8;
  options.os_threads = 16;
  WorldState s_serial = genesis_;
  WorldState s_pevm = genesis_;
  SerialExecutor serial(options);
  ParallelEvmExecutor pevm(options);
  for (const Block& block : blocks_) {
    serial.Execute(block, s_serial);
    pevm.Execute(block, s_pevm);
  }
  EXPECT_EQ(HexEncode(s_serial.StateRoot()), HexEncode(s_pevm.StateRoot()));
}

// The Figure-11 block drains one shared owner at `conflict_ratio`: every
// conflict ParallelEVM records must be attributed to that owner's one hot key.
TEST(ConflictAttributionTest, SingleHotOwnerCarriesEveryConflict) {
  WorkloadConfig config;
  config.seed = 930'000;
  config.transactions_per_block = 100;
  config.users = 500;
  config.tokens = 6;
  config.pools = 3;
  ExecOptions options;
  options.threads = 8;
  options.os_threads = 4;
  for (auto [ratio, conflicts] : {std::pair{0.1, 9}, {0.5, 49}, {0.9, 89}}) {
    SCOPED_TRACE(testing::Message() << "conflict_ratio=" << ratio);
    WorkloadGenerator gen(config);
    WorldState state = gen.MakeGenesis();
    ParallelEvmExecutor pevm(options);
    BlockReport report = pevm.Execute(gen.MakeErc20ConflictBlock(100, ratio), state);
    EXPECT_EQ(report.conflicts, conflicts);
    ASSERT_EQ(report.conflict_keys.size(), 1u);
    EXPECT_EQ(report.conflict_keys[0].conflicts, static_cast<uint64_t>(report.conflicts));
  }
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (int width : {1, 2, 7, 16}) {
    ThreadPool pool(width);
    EXPECT_EQ(pool.threads(), width);
    constexpr size_t kN = 10'000;
    std::vector<std::atomic<int>> visits(kN);
    pool.ParallelFor(kN, [&](size_t i) { visits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << " width " << width;
    }
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  for (int job = 0; job < 50; ++job) {
    pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 50u * (99u * 100u / 2u));
}

TEST(ThreadPoolTest, ZeroIterationsIsANoOp) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, ResolveWidthPassesThroughAndCaps) {
  EXPECT_EQ(ThreadPool::ResolveWidth(3), 3);
  int resolved = ThreadPool::ResolveWidth(0);
  EXPECT_GE(resolved, 1);
  EXPECT_LE(resolved, 16);
}

}  // namespace
}  // namespace pevm
