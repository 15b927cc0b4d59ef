// Reproduces the §6.4 overhead analysis:
//   * SSA operation-log generation overhead  (paper: ~4.5% per transaction —
//     here measured for real, in wall-clock time, on this machine),
//   * log size as a fraction of executed instructions (paper: 5.0%),
//   * entries re-executed per conflict (paper: ~7, 0.3% of instructions),
//   * redo-phase share of block processing time (paper: 4.9%),
//   * redo success rate (paper: 87% of conflicting transactions),
//   * memory overhead of the logs (paper: +4.41% process memory).
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/ssa_builder.h"
#include "src/exec/apply.h"

namespace {

using Clock = std::chrono::steady_clock;

size_t TxLogBytes(const pevm::TxLog& log) {
  size_t bytes = sizeof(log) + log.entries.capacity() * sizeof(pevm::OpLogEntry);
  for (const pevm::OpLogEntry& e : log.entries) {
    bytes += e.operands.capacity() * sizeof(pevm::U256) + e.def_stack.capacity() * sizeof(pevm::Lsn) +
             e.def_memory.capacity() * sizeof(pevm::MemDep) + e.input_bytes.capacity();
  }
  for (const auto& uses : log.dug) {
    bytes += uses.capacity() * sizeof(pevm::Lsn);
  }
  bytes += (log.direct_reads.size() + log.latest_writes.size()) *
           (sizeof(pevm::StateKey) + sizeof(pevm::Lsn) + 16);
  return bytes;
}

}  // namespace

int main() {
  using namespace pevm;
  WorkloadConfig config;
  config.seed = 140000;
  config.transactions_per_block = 200;
  WorkloadGenerator gen(config);
  WorldState genesis = gen.MakeGenesis();
  std::vector<Block> blocks = MakeBlocks(gen, 8);

  std::printf("Section 6.4: ParallelEVM overhead analysis\n\n");

  // --- (1) Real wall-clock overhead of SSA log generation. ---
  {
    auto run = [&](bool with_ssa) {
      WorldState state = genesis;  // Copied before the clock starts: not execution.
      Clock::time_point start = Clock::now();
      uint64_t log_bytes = 0;
      uint64_t entries = 0;
      uint64_t instructions = 0;
      for (const Block& block : blocks) {
        for (const Transaction& tx : block.transactions) {
          StateView view(state);
          if (with_ssa) {
            SsaBuilder builder;
            Receipt r = ApplyTransaction(view, block.context, tx, &builder);
            TxLog log = builder.TakeLog();
            entries += log.size();
            log_bytes += TxLogBytes(log);
            instructions += r.stats.instructions;
          } else {
            Receipt r = ApplyTransaction(view, block.context, tx);
            instructions += r.stats.instructions;
          }
          state.Apply(view.write_set());
        }
      }
      double seconds = std::chrono::duration<double>(Clock::now() - start).count();
      struct Out {
        double seconds;
        uint64_t entries;
        uint64_t bytes;
        uint64_t instructions;
      };
      return Out{seconds, entries, log_bytes, instructions};
    };
    // Warm up, then measure.
    run(false);
    auto plain = run(false);
    auto ssa = run(true);
    std::printf("SSA log generation overhead (measured wall clock, %zu blocks):\n",
                blocks.size());
    std::printf("  plain execution: %.1f ms, with SSA log: %.1f ms -> overhead %.1f%% "
                "(paper: 4.5%%)\n",
                plain.seconds * 1e3, ssa.seconds * 1e3,
                100.0 * (ssa.seconds - plain.seconds) / plain.seconds);
    std::printf("Log compactness: %llu entries for %llu executed instructions -> %.1f%% "
                "(paper: 5.0%%)\n",
                static_cast<unsigned long long>(ssa.entries),
                static_cast<unsigned long long>(ssa.instructions),
                100.0 * static_cast<double>(ssa.entries) / static_cast<double>(ssa.instructions));
    std::printf("Log memory: %.1f KiB per block, %.2f KiB per transaction (paper: +4.41%% "
                "process RSS)\n\n",
                static_cast<double>(ssa.bytes) / 1024.0 / static_cast<double>(blocks.size()),
                static_cast<double>(ssa.bytes) / 1024.0 /
                    static_cast<double>(blocks.size() * config.transactions_per_block));
  }

  // --- (2) Redo-phase statistics from the full executor. ---
  {
    ExecOptions options;
    options.threads = 16;
    ParallelEvmExecutor pevm(options);
    WorldState state = genesis;
    int conflicts = 0;
    int redo_ok = 0;
    int redo_fail = 0;
    uint64_t reexecuted = 0;
    uint64_t redo_ns = 0;
    uint64_t makespan = 0;
    uint64_t instructions = 0;
    for (const Block& block : blocks) {
      BlockReport r = pevm.Execute(block, state);
      conflicts += r.conflicts;
      redo_ok += r.redo_success;
      redo_fail += r.redo_fail;
      reexecuted += r.redo_entries_reexecuted;
      redo_ns += r.redo_ns;
      makespan += r.makespan_ns;
      instructions += r.instructions;
    }
    std::printf("Redo phase over %zu blocks (%d conflicts):\n", blocks.size(), conflicts);
    std::printf("  entries re-executed per conflict: %.1f (paper: ~7)\n",
                redo_ok > 0 ? static_cast<double>(reexecuted) / redo_ok : 0.0);
    std::printf("  re-executed entries / executed instructions: %.2f%% (paper: 0.3%%)\n",
                100.0 * static_cast<double>(reexecuted) / static_cast<double>(instructions));
    std::printf("  redo share of block processing time: %.1f%% (paper: 4.9%%)\n",
                100.0 * static_cast<double>(redo_ns) / static_cast<double>(makespan));
    std::printf("  redo success rate: %.1f%% of conflicting transactions (paper: 87%%)\n",
                conflicts > 0 ? 100.0 * redo_ok / conflicts : 100.0);
  }
  return 0;
}
