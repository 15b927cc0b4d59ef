// Chain-import benchmark: runs one workload from a seed through ChainRunner
// and prints its metrics, checked against a serial replay.
//
//   chainbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//              --work_dir=<dir> [--<param>=<value> ...]
//
// run.py supplies the parameters of each workload from workloads.json.
// --trace=0 prints the end-to-end metrics of an untraced run. --trace=1 runs
// the pipeline once more untraced (for the chain.* report fields), then the
// traced layer run, and prints the per-layer metrics and the ledger. The last
// line of stdout is one JSON object; the exit code is non-zero on any
// correctness mismatch.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "chainbench/common.h"

namespace chainbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

using namespace pevm;

bool ParseFlags(int argc, char** argv, Params& p) {
  using Setter = std::function<void(const std::string&)>;
  auto real = [](double& field) { return Setter([&field](const std::string& v) { field = std::stod(v); }); };
  auto integer = [](int& field) { return Setter([&field](const std::string& v) { field = std::stoi(v); }); };
  auto u64 = [](uint64_t& field) {
    return Setter([&field](const std::string& v) { field = std::stoull(v); });
  };
  auto flag = [](bool& field) {
    return Setter([&field](const std::string& v) { field = v == "1" || v == "true"; });
  };
  auto text = [](std::string& field) { return Setter([&field](const std::string& v) { field = v; }); };
  const std::map<std::string, Setter> setters = {
      {"workload", text(p.workload)},
      {"seed", u64(p.seed)},
      {"seconds", real(p.seconds)},
      {"trace", flag(p.trace)},
      {"work_dir", text(p.work_dir)},
      {"trace_path", text(p.trace_path)},
      {"users", integer(p.stream.users)},
      {"cold_read_ns", u64(p.cold_read_ns)},
      {"batch_base_ns", u64(p.batch_base_ns)},
      {"batch_key_ns", u64(p.batch_key_ns)},
      {"prefetch_depth", integer(p.prefetch_depth)},
      {"speculate", flag(p.speculate)},
      {"query_tier", flag(p.query_tier)},
      {"query_rate", real(p.query_rate)},
      {"exec_threads", integer(p.exec_threads)},
      {"commit_threads", integer(p.commit_threads)},
      {"spec_threads", integer(p.spec_threads)},
      {"serve_threads", integer(p.serve_threads)},
      {"reference_seconds", real(p.reference_seconds)},
      {"catchup_blocks", integer(p.catchup_blocks)},
      {"warmup_blocks", integer(p.warmup_blocks)},
      {"head_blocks", integer(p.head_blocks)},
      {"rounds", integer(p.rounds)},
      {"setup_reps", integer(p.setup_reps)},
      {"recover_reps", integer(p.recover_reps)},
  };
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
      std::fprintf(stderr, "chainbench: expected --key=value, got %s\n", argv[i]);
      return false;
    }
    auto it = setters.find(std::string(arg.substr(2, eq - 2)));
    if (it == setters.end()) {
      std::fprintf(stderr, "chainbench: unknown parameter %s\n", argv[i]);
      return false;
    }
    try {
      it->second(std::string(arg.substr(eq + 1)));
    } catch (const std::exception&) {
      std::fprintf(stderr, "chainbench: bad value in %s\n", argv[i]);
      return false;
    }
  }
  const bool widths_ok = std::min({p.exec_threads, p.commit_threads, p.spec_threads,
                                    p.serve_threads}) >= 1;
  const bool sizes_ok = p.reference_seconds > 0 && p.catchup_blocks >= 1 && p.head_blocks >= 1 &&
                        p.warmup_blocks >= 0 && p.rounds >= 1 && p.setup_reps >= 1 &&
                        p.recover_reps >= 1;
  if (p.workload.empty() || p.work_dir.empty() || p.seconds <= 0 || !widths_ok || !sizes_ok ||
      (p.query_tier && p.query_rate <= 0)) {
    std::fprintf(stderr, "chainbench: missing or out-of-range parameters\n");
    return false;
  }
  return true;
}

// Block counts are given at reference_seconds; a run of --seconds scales them.
int Scaled(const Params& p, int blocks) {
  return std::max(1, static_cast<int>(std::lround(blocks * p.seconds / p.reference_seconds)));
}

Inputs MakeInputs(const Params& p) {
  Inputs inputs;
  WorkloadConfig stream = p.stream;
  stream.seed = p.seed;
  WorkloadGenerator generator(stream);
  inputs.genesis = generator.MakeGenesis();
  const size_t catchup = static_cast<size_t>(Scaled(p, p.catchup_blocks));
  const size_t head = static_cast<size_t>(Scaled(p, p.head_blocks));
  const size_t rounds = std::min({static_cast<size_t>(p.rounds), catchup, head});
  // The traced invocation imports the first half of the rounds only: its
  // pipeline run feeds per-layer metrics, which carry no bound.
  const size_t used = p.trace ? std::max<size_t>(1, rounds / 2) : rounds;
  size_t next = 0;
  for (size_t r = 0; r < used; ++r) {
    for (bool is_head : {false, true}) {
      const size_t total = is_head ? head : catchup;
      size_t count = total / rounds + (r < total % rounds ? 1 : 0);
      if (r == 0 && !is_head) {
        count += static_cast<size_t>(p.warmup_blocks);
      }
      inputs.segments.push_back(Segment{next, next + count, is_head});
      next += count;
    }
  }
  inputs.blocks.reserve(next);
  for (size_t b = 0; b < next; ++b) {
    inputs.blocks.push_back(generator.MakeBlock());
  }
  QueryWorkloadConfig queries;
  queries.seed = p.seed * 0x9e3779b97f4a7c15ULL + 1;
  const int count =
      std::max(static_cast<int>(kProbeQueries), static_cast<int>(p.query_rate * p.seconds * 2));
  for (TimedQuery& timed : generator.MakeQueryLoad(count, queries)) {
    inputs.queries.push_back(std::move(timed.request));
  }
  return inputs;
}

// Every per-layer metric the traced run reports, in print order, with its unit.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"support.keccak64_ns", "ns"},
    {"support.u256_div_ns", "ns"},
    {"state.genesis_copy_ms", "ms"},
    {"state.warm_ms", "ms"},
    {"state.prefetch_hit_frac", "frac"},
    {"exec.block_ms", "ms"},
    {"exec.read_ms", "ms"},
    {"exec.sweep_ms", "ms"},
    {"exec.conflict_frac", "frac"},
    {"exec.redo_success_frac", "frac"},
    {"exec.fallbacks_per_block", "1/block"},
    {"exec.redo_entries_per_conflict", "entries/conflict"},
    {"evm.interpret_us_per_tx", "us/tx"},
    {"core.ssa_log_us_per_tx", "us/tx"},
    {"core.oplog_entries_per_tx", "entries/tx"},
    {"evm.instructions_per_tx", "instr/tx"},
    {"codecache.hit_frac", "frac"},
    {"commit.seed_ms", "ms"},
    {"commit.apply_ms", "ms"},
    {"commit.root_us", "us"},
    {"commit.diff_entries_per_block", "entries/block"},
    {"commit.persist_ms", "ms"},
    {"commit.nodes_per_block", "nodes/block"},
    {"kv.sync_ms", "ms"},
    {"kv.bytes_per_block", "B/block"},
    {"kv.open_ms", "ms"},
    {"kv.recover_ms", "ms"},
    {"chain.warm_busy_frac", "frac"},
    {"chain.spec_busy_frac", "frac"},
    {"chain.exec_busy_frac", "frac"},
    {"chain.commit_busy_frac", "frac"},
    {"chain.spec_reuse_frac", "frac"},
    {"chain.spec_dropped_frac", "frac"},
    {"chain.handoff_ms", "ms"},
    {"query.publish_us", "us"},
    {"query.serve_us_p50", "us"},
    {"query.call_us_p50", "us"},
    {"query.handoff_us_p50", "us"},
    {"telemetry.trace_rings", "count"},
    {"ledger.unattributed_frac", "frac"},
    {"recover_s", "s"},
    {"bytes_per_tx", "B/tx"},
    {"query_us_p50", "us"},
    {"query_us_p99", "us"},
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int Run(const Params& p) {
  std::filesystem::create_directories(p.work_dir);
  const uint64_t inputs_start = NowNs();
  const Inputs inputs = MakeInputs(p);
  const double inputs_s = static_cast<double>(NowNs() - inputs_start) / 1e9;
  std::printf("workload %s seed %llu: %zu blocks of %d txs in %zu segments, %zu queries\n",
              p.workload.c_str(), static_cast<unsigned long long>(p.seed), inputs.blocks.size(),
              p.stream.transactions_per_block, inputs.segments.size(), inputs.queries.size());

  // setup_s is an end-to-end metric, repeated only in the run that reports it.
  const PipelineResult run = RunPipeline(p, inputs, p.trace ? 1 : p.setup_reps);
  const double head_p50 = Quantile(run.head_ms, 0.5);
  std::optional<TracedResult> traced;
  if (p.trace) {
    traced = RunTraced(p, inputs, head_p50);
  }

  // Correctness, outside every timed phase.
  std::vector<const Reply*> replies;
  for (const Reply& reply : run.replies) {
    replies.push_back(&reply);
  }
  size_t replay_blocks = run.report.blocks_committed;
  if (traced) {
    for (const Reply& reply : traced->replies) {
      replies.push_back(&reply);
    }
    replay_blocks = std::max(replay_blocks, traced->roots.size());
  }
  std::vector<Hash256> oracle;
  std::string error;
  const uint64_t oracle_start = NowNs();
  bool correct = ReplayOracle(inputs, replay_blocks, replies, &oracle, &error);
  std::printf("inputs %.2f s, serial replay check %.2f s over %zu blocks and %zu replies\n",
              inputs_s, static_cast<double>(NowNs() - oracle_start) / 1e9, replay_blocks,
              replies.size());
  auto check = [&](bool ok, const std::string& what) {
    if (correct && !ok) {
      correct = false;
      error = what;
    }
  };
  for (size_t b = 0; correct && b < run.report.roots.size(); ++b) {
    check(run.report.roots[b] == oracle[b], "pipeline root differs at block " + std::to_string(b));
  }
  if (traced) {
    for (size_t b = 0; correct && b < traced->roots.size(); ++b) {
      check(traced->roots[b] == oracle[b], "traced root differs at block " + std::to_string(b));
    }
    // The replay stops at its first mismatch, so `oracle` may be short.
    for (const auto& [blocks, found] : traced->recoveries) {
      check(correct && found.blocks == blocks && blocks > 0 && blocks <= oracle.size() &&
                found.root == oracle[blocks - 1],
            "traced reopen recovered a different chain");
    }
  }
  if (!correct) {
    std::fprintf(stderr, "chainbench: MISMATCH: %s\n", error.c_str());
  }

  const ChainReport& report = run.report;
  std::vector<double> rpc_us;
  for (const Reply& reply : run.replies) {
    rpc_us.push_back(static_cast<double>(reply.latency_ns) / 1e3);
  }

  std::printf("block_ms over %zu head blocks; tx_per_s over %zu catch-up blocks in %.2f s\n",
              run.head_ms.size(), run.tx_window_blocks, run.tx_window_s);
  std::vector<Metric> metrics;
  if (!p.trace) {
    metrics = {
        {"tx_per_s", static_cast<double>(run.tx_window_txs) / run.tx_window_s, "tx/s"},
        {"block_ms_p50", head_p50, "ms"},
        {"block_ms_p90", Quantile(run.head_ms, 0.9), "ms"},
        {"setup_s", Median(run.setup_s), "s"},
        {"rss_mb", run.rss_mb, "MB"},
    };
    if (p.query_tier) {
      std::printf("query_us_p50 %.3f us, query_us_p99 %.3f us over %zu replies\n",
                  Quantile(rpc_us, 0.5), Quantile(rpc_us, 0.99), rpc_us.size());
    }
  } else {
    std::map<std::string, double>& m = traced->metrics;
    const SpecStats& spec = report.speculation;
    const double launched = static_cast<double>(spec.txs_launched);
    m["chain.warm_busy_frac"] = report.warm.busy_fraction();
    m["chain.spec_busy_frac"] = report.spec.busy_fraction();
    m["chain.exec_busy_frac"] = report.exec.busy_fraction();
    m["chain.commit_busy_frac"] = report.commit.busy_fraction();
    m["chain.spec_reuse_frac"] =
        launched == 0 ? 0 : static_cast<double>(spec.seeds_clean + spec.seeds_redo_repaired) / launched;
    m["chain.spec_dropped_frac"] = launched == 0 ? 0 : static_cast<double>(spec.seeds_dropped) / launched;
    m["telemetry.trace_rings"] = static_cast<double>(run.trace_rings);
    if (p.query_tier) {
      m["query_us_p50"] = Quantile(rpc_us, 0.5);
      m["query_us_p99"] = Quantile(rpc_us, 0.99);
    }
    for (const std::string& line : traced->ledger) {
      std::printf("%s\n", line.c_str());
    }
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = m.find(name);
      if (it == m.end()) {
        std::fprintf(stderr, "chainbench: traced run did not measure %s\n", name);
        return 1;
      }
      metrics.push_back({name, it->second, unit});
    }
  }
  std::filesystem::remove_all(p.work_dir);
  const uint64_t attempted =
      run.blocks_attempted + run.queries_attempted + (traced ? traced->replies.size() : 0);
  const uint64_t failed =
      run.blocks_failed + run.queries_failed + (traced ? traced->queries_failed : 0);
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace chainbench

int main(int argc, char** argv) {
  chainbench::Params params;
  if (!chainbench::ParseFlags(argc, argv, params)) {
    return 2;
  }
  return chainbench::Run(params);
}
