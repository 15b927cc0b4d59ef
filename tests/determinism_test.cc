// The tentpole guarantee of the real-thread read phase: the OS-thread count
// is invisible in results. The same block must produce identical state roots,
// receipts, and BlockReport conflict/redo counters (and the identical virtual
// makespan) whether the thread pool runs 1, 4, or 16 OS threads — only the
// wall-clock fields may differ. Also exercises the ThreadPool directly.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/baselines/block_stm.h"
#include "src/baselines/occ.h"
#include "src/baselines/serial.h"
#include "src/core/oplog_printer.h"
#include "src/core/parallel_evm.h"
#include "src/core/redo.h"
#include "src/core/scheduled.h"
#include "src/exec/pipeline.h"
#include "src/exec/thread_pool.h"
#include "src/support/keccak.h"
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

// Full-field serialization of one SSA log, for PerOpLogPinTest below. It
// covers what FormatOpLog truncates or omits (full values, input bytes,
// prior_def, result_width, the key tables, the return provenance), so a
// change to the log's layout that alters any field changes the digest. Key
// tables are written as (key, lsn) rows sorted by key, so the digest does not
// depend on how the tables are stored.
void AppendInt(Bytes& out, int64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(static_cast<uint64_t>(v) >> (8 * i)));
  }
}

void AppendWord(Bytes& out, const U256& v) {
  std::array<uint8_t, 32> be = v.ToBigEndian();
  out.insert(out.end(), be.begin(), be.end());
}

Bytes KeyBytes(const StateKey& key) {
  Bytes out(key.address.view().begin(), key.address.view().end());
  out.push_back(static_cast<uint8_t>(key.kind));
  AppendWord(out, key.slot);
  return out;
}

void AppendDeps(Bytes& out, std::span<const MemDep> deps) {
  AppendInt(out, static_cast<int64_t>(deps.size()));
  for (const MemDep& dep : deps) {
    AppendInt(out, dep.start);
    AppendInt(out, dep.len);
    AppendInt(out, dep.lsn);
    AppendInt(out, dep.offset);
  }
}

void AppendRows(Bytes& out, std::vector<std::pair<Bytes, Lsn>> rows) {
  std::sort(rows.begin(), rows.end());
  AppendInt(out, static_cast<int64_t>(rows.size()));
  for (const auto& [key, lsn] : rows) {
    out.insert(out.end(), key.begin(), key.end());
    AppendInt(out, lsn);
  }
}

void AppendLog(Bytes& out, const TxLog& log) {
  AppendInt(out, static_cast<int64_t>(log.size()));
  for (const OpLogEntry& e : log.entries) {
    AppendInt(out, e.lsn);
    out.push_back(static_cast<uint8_t>(e.op));
    AppendInt(out, static_cast<int64_t>(log.Operands(e).size()));
    for (const Operand& operand : log.Operands(e)) {
      AppendWord(out, operand.value);
      AppendInt(out, operand.def);
    }
    AppendInt(out, e.def_storage);
    AppendDeps(out, log.DefMemory(e));
    AppendInt(out, static_cast<int64_t>(log.InputBytes(e).size()));
    out.insert(out.end(), log.InputBytes(e).begin(), log.InputBytes(e).end());
    AppendWord(out, e.result);
    out.push_back(e.result_width);
    out.push_back(e.has_key() ? 1 : 0);
    if (e.has_key()) {
      Bytes key = KeyBytes(log.Key(e));
      out.insert(out.end(), key.begin(), key.end());
    }
    AppendInt(out, e.dyn_gas);
    AppendInt(out, e.prior_def);
  }
  std::vector<std::pair<Bytes, Lsn>> reads;
  for (const KeyRecord& record : log.keys) {
    if (record.direct_read != kNullLsn) {
      reads.emplace_back(KeyBytes(record.key), record.direct_read);
    }
  }
  AppendRows(out, std::move(reads));
  std::vector<std::pair<Bytes, Lsn>> writes;
  for (const KeyRecord& record : log.keys) {
    if (record.latest_write != kNullLsn) {
      writes.emplace_back(KeyBytes(record.key), record.latest_write);
    }
  }
  AppendRows(out, std::move(writes));
  std::vector<std::pair<Bytes, Lsn>> sstores;
  for (const KeyRecord& record : log.keys) {
    if (record.committed_prior_sstore != kNullLsn) {
      sstores.emplace_back(KeyBytes(record.key), record.committed_prior_sstore);
    }
  }
  AppendRows(out, std::move(sstores));
  out.push_back(log.redoable ? 1 : 0);
  out.push_back(log.has_return ? 1 : 0);
  AppendInt(out, static_cast<int64_t>(log.ReturnBytes().size()));
  out.insert(out.end(), log.ReturnBytes().begin(), log.ReturnBytes().end());
  AppendDeps(out, log.ReturnDeps());
}

void AppendRedo(Bytes& out, const RedoResult& redo) {
  out.push_back(redo.success ? 1 : 0);
  AppendInt(out, static_cast<int64_t>(redo.dfs_visited));
  AppendInt(out, static_cast<int64_t>(redo.reexecuted));
  std::vector<std::pair<Bytes, U256>> writes;
  for (const auto& [key, value] : redo.write_set) {
    writes.emplace_back(KeyBytes(key), value);
  }
  std::sort(writes.begin(), writes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  AppendInt(out, static_cast<int64_t>(writes.size()));
  for (const auto& [key, value] : writes) {
    out.insert(out.end(), key.begin(), key.end());
    AppendWord(out, value);
  }
}

// The log-layout gate: every log of the pinned stream, speculated against its
// block's start state, printed (digest a) and fully serialized (digest b).
// Digest b also covers redo twice per log, each on its own copy: against the
// state its transaction commits on in serial order (the executor's commit
// path, where most repairs succeed), and against the block's end state (where
// the sender's own nonce bump makes every log conflict and redo fail part
// way). Both digests were recorded before the log moved to its flat layout;
// any change to what the builder records or to what redo computes moves them.
TEST(PerOpLogPinTest, LogsOfSeededStreamArePinned) {
  WorkloadConfig config;
  config.users = 300;
  config.seed = 1;
  WorkloadGenerator gen(config);
  WorldState state = gen.MakeGenesis();
  std::vector<Block> blocks;
  for (int b = 0; b < 6; ++b) {
    blocks.push_back(gen.MakeBlock());
  }
  for (int b = 0; b < 2; ++b) {
    blocks.push_back(gen.MakeHotContractBlock(200));
  }
  std::string printed;
  Bytes serialized;
  size_t logs = 0;
  size_t redone = 0;
  size_t repaired = 0;
  SerialExecutor serial(ExecOptions{});
  auto redo = [&](TxLog& log, const ReadSet& reads, const WorldState& against) {
    ConflictMap conflicts = FindConflicts(reads, against);
    if (conflicts.empty()) {
      return;
    }
    RedoResult result =
        RunRedo(log, conflicts, [&against](const StateKey& key) { return against.Get(key); });
    ++redone;
    repaired += result.success ? 1 : 0;
    AppendRedo(serialized, result);
    AppendLog(serialized, log);
  };
  for (const Block& block : blocks) {
    std::vector<Speculation> specs;
    for (const Transaction& tx : block.transactions) {
      specs.push_back(SpeculateTransaction(state, block.context, tx, /*with_log=*/true));
    }
    WorldState running = state;
    serial.Execute(block, state);
    for (size_t i = 0; i < specs.size(); ++i) {
      Speculation& spec = specs[i];
      ++logs;
      printed += FormatOpLog(spec.log);
      AppendLog(serialized, spec.log);
      TxLog at_end = spec.log;
      redo(spec.log, spec.reads, running);
      redo(at_end, spec.reads, state);
      Speculation truth =
          SpeculateTransaction(running, block.context, block.transactions[i], false);
      if (truth.receipt.valid) {
        running.Apply(truth.writes);
      }
    }
  }
  EXPECT_EQ(logs, 1'600u);
  EXPECT_EQ(redone, 2'764u);  // 1,164 at commit (as pinned above) + 1,600 at block end.
  EXPECT_EQ(repaired, 1'038u);
  EXPECT_EQ(HexEncode(Keccak256(BytesView(reinterpret_cast<const uint8_t*>(printed.data()),
                                          printed.size()))),
            "0546e83eaf5451ebb2c1c3e3504857f2d4a446a764381fb12666997faf0b5a02");
  EXPECT_EQ(HexEncode(Keccak256(serialized)),
            "e40b493c1e64ae0cc73f3a43bbf347dc8a26f7d0d8aad0b90ccb4f41f536a671");
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

// Any thread may call ParallelFor: concurrent callers queue on the pool's job
// mutex, so each caller's job still visits each of its indices exactly once.
TEST(ThreadPoolTest, ConcurrentCallersEachVisitEveryIndexOnce) {
  ThreadPool pool(3);
  constexpr int kJobs = 50;
  constexpr size_t kN = 64;
  std::atomic<int> bad_jobs{0};
  auto caller = [&] {
    for (int job = 0; job < kJobs; ++job) {
      std::vector<std::atomic<int>> visits(kN);
      pool.ParallelFor(kN, [&](size_t i) { visits[i].fetch_add(1); });
      for (size_t i = 0; i < kN; ++i) {
        if (visits[i].load() != 1) {
          bad_jobs.fetch_add(1);
          break;
        }
      }
    }
  };
  std::thread first(caller);
  std::thread second(caller);
  first.join();
  second.join();
  EXPECT_EQ(bad_jobs.load(), 0);
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
