// Shared helpers for the table/figure reproduction benches. These benches
// report *virtual-time* speedups from the deterministic cost model
// (DESIGN.md §3.2): every algorithm really executes the blocks (states are
// cross-checked against serial), and the simulated makespan on N virtual
// worker threads produces the speedup. Results are deterministic.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/block_stm.h"
#include "src/baselines/occ.h"
#include "src/baselines/serial.h"
#include "src/baselines/two_phase_locking.h"
#include "src/core/parallel_evm.h"
#include "src/exec/apply.h"
#include "src/exec/executor.h"
#include "src/workload/block_gen.h"

namespace pevm {

struct AlgoResult {
  std::string name;
  double speedup = 0;
  BlockReport report;
};

// Executes `blocks` with every algorithm (serial first), asserts state
// equivalence, and returns per-algorithm aggregate speedups
// (total serial virtual time / total algorithm virtual time).
inline std::vector<AlgoResult> CompareAlgorithms(const WorldState& genesis,
                                                 const std::vector<Block>& blocks,
                                                 const ExecOptions& options,
                                                 bool include_preexec = false) {
  std::vector<std::unique_ptr<Executor>> algos;
  algos.push_back(std::make_unique<SerialExecutor>(options));
  algos.push_back(std::make_unique<TwoPhaseLockingExecutor>(options));
  algos.push_back(std::make_unique<OccExecutor>(options));
  algos.push_back(std::make_unique<BlockStmExecutor>(options));
  algos.push_back(std::make_unique<ParallelEvmExecutor>(options));
  if (include_preexec) {
    algos.push_back(std::make_unique<ParallelEvmExecutor>(options, /*pre_execution=*/true));
  }

  std::vector<AlgoResult> results;
  uint64_t serial_total = 0;
  uint64_t serial_digest = 0;
  for (auto& algo : algos) {
    WorldState state = genesis;
    uint64_t total = 0;
    BlockReport last;
    for (const Block& block : blocks) {
      last = algo->Execute(block, state);
      total += last.makespan_ns;
    }
    if (algo->name() == "serial") {
      serial_total = total;
      serial_digest = state.Digest();
    } else if (state.Digest() != serial_digest) {
      std::fprintf(stderr, "FATAL: %s diverged from serial execution\n",
                   std::string(algo->name()).c_str());
      std::exit(1);
    }
    AlgoResult r;
    r.name = std::string(algo->name());
    r.speedup = total == 0 ? 0.0 : static_cast<double>(serial_total) / static_cast<double>(total);
    r.report = last;
    results.push_back(std::move(r));
  }
  return results;
}

inline std::vector<Block> MakeBlocks(WorkloadGenerator& gen, int count) {
  std::vector<Block> blocks;
  blocks.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    blocks.push_back(gen.MakeBlock());
  }
  return blocks;
}

}  // namespace pevm

#endif  // BENCH_BENCH_UTIL_H_
