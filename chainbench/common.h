// Shared types of the chain-import benchmark: one workload's parameters, the
// generated inputs, what the untraced pipeline run and the traced layer run
// measure, and the serial-replay oracle that checks both.
#ifndef CHAINBENCH_COMMON_H_
#define CHAINBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/chain/chain_runner.h"
#include "src/query/query_engine.h"
#include "src/workload/block_gen.h"

namespace chainbench {

// One workload, as workloads.json defines it: run.py passes the shared
// parameters and the workload's own as --key=value flags, and every field
// below without a "0 = off" meaning must be given. Stream fields left unset
// keep the WorkloadGenerator defaults, so a workload names only what defines it.
struct Params {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;    // Scratch directory inside the checkout (KV stores).
  std::string trace_path;  // Where the traced run writes its spans at exit.

  pevm::WorkloadConfig stream;

  // Regime (0 / false = off).
  uint64_t cold_read_ns = 0;
  uint64_t batch_base_ns = 0;
  uint64_t batch_key_ns = 0;
  int prefetch_depth = 0;
  bool speculate = false;
  bool query_tier = false;
  double query_rate = 0;  // Requests/s of the paced closed-loop RPC client.

  // Thread widths.
  int exec_threads = 0;
  int commit_threads = 0;
  int spec_threads = 0;
  int serve_threads = 0;

  // Sizes, in blocks at reference_seconds; phases scale with --seconds. The
  // catch-up and head blocks are split over `rounds` alternating segments so
  // that both phases sample the whole run; the warm-up blocks open the first
  // catch-up segment and are not counted.
  double reference_seconds = 0;
  int catchup_blocks = 0;
  int warmup_blocks = 0;
  int head_blocks = 0;
  int rounds = 0;
  int setup_reps = 0;
  int recover_reps = 0;
};

// Traced run: layers outside the workload's pipeline are probed on its first
// kProbeBlocks blocks, SpeculateTransaction on every kProbeStride-th block,
// and the query layer serves kProbeQueries requests.
inline constexpr size_t kProbeBlocks = 16;
inline constexpr size_t kProbeStride = 8;
inline constexpr size_t kProbeQueries = 2000;

// A run of consecutive blocks imported in one phase.
struct Segment {
  size_t begin = 0;
  size_t end = 0;
  bool head = false;  // Head phase (one block in flight), else catch-up.
};

struct Inputs {
  pevm::WorldState genesis;
  std::vector<pevm::Block> blocks;
  std::vector<Segment> segments;  // Stream order, covering every block.
  std::vector<pevm::QueryRequest> queries;
};

// One RPC reply, kept for the replay check.
struct Reply {
  const pevm::QueryRequest* request = nullptr;
  pevm::QueryResponse response;
  uint64_t latency_ns = 0;  // Submit -> reply, as the client saw it.
};

// A reopened store: what it claimed to recover.
struct Recovery {
  uint64_t blocks = 0;
  pevm::Hash256 root{};
};

// The untraced ChainRunner run.
struct PipelineResult {
  std::vector<double> setup_s;
  // Catch-up windows, summed over segments: tx_per_s = txs / seconds.
  uint64_t tx_window_txs = 0;
  double tx_window_s = 0;
  size_t tx_window_blocks = 0;
  std::vector<double> head_ms;
  double rss_mb = 0;
  size_t trace_rings = 0;
  pevm::ChainReport report;
  std::vector<Reply> replies;
  uint64_t blocks_attempted = 0;
  uint64_t blocks_failed = 0;
  uint64_t queries_attempted = 0;
  uint64_t queries_failed = 0;
};

// The traced layer run.
struct TracedResult {
  std::vector<pevm::Hash256> roots;  // Per block, from its own trie.
  std::vector<Reply> replies;
  std::vector<std::pair<size_t, Recovery>> recoveries;  // (expected blocks, found).
  std::map<std::string, double> metrics;
  std::vector<std::string> ledger;  // Printed lines.
  uint64_t queries_failed = 0;
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Linear interpolation between order statistics (q in [0, 1]).
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

pevm::ChainOptions MakeChainOptions(const Params& params);

// Builds the runner `setup_reps` times, then imports the blocks with the last.
PipelineResult RunPipeline(const Params& params, const Inputs& inputs, int setup_reps);

// `head_block_ms_p50` is the untraced head-phase median, for chain.handoff_ms.
TracedResult RunTraced(const Params& params, const Inputs& inputs, double head_block_ms_p50);

// Replays the first `blocks` blocks serially from genesis and returns the
// root after each; checks every reply against EvalQuery on the replayed
// state at the reply's pinned block, and the last root against a
// from-scratch WorldState::StateRoot. Returns false with `error` set on any
// mismatch.
bool ReplayOracle(const Inputs& inputs, size_t blocks, const std::vector<const Reply*>& replies,
                  std::vector<pevm::Hash256>* roots, std::string* error);

}  // namespace chainbench

#endif  // CHAINBENCH_COMMON_H_
