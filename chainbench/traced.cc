// The traced run: every layer is called from outside, one block at a time,
// from this thread, with one span per call into a layer's public function.
// Block spans (id = block index) parent the pipeline's layers and form the
// ledger. Layers the workload's pipeline does not run are probed on its first
// blocks under root spans of their own, outside the ledger, so that every
// layer metric is measured on every workload's inputs.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>

#include "chainbench/common.h"
#include "chainbench/spans.h"
#include "src/chain/commit.h"
#include "src/chain/node_store.h"
#include "src/codecache/code_cache.h"
#include "src/exec/pipeline.h"
#include "src/kv/kv_store.h"
#include "src/support/keccak.h"

namespace chainbench {
namespace {

namespace fs = std::filesystem;
using namespace pevm;

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "chainbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::_Exit(1);
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Median ns per call over several batches of a loop; each result feeds the
// next input so the calls cannot be hoisted.
double TimeKeccak64(std::mt19937_64& rng) {
  Bytes input(64);
  for (uint8_t& byte : input) {
    byte = static_cast<uint8_t>(rng());
  }
  constexpr int kBatch = 20'000;
  std::vector<double> per_call;
  for (int batch = 0; batch < 7; ++batch) {
    const uint64_t start = NowNs();
    for (int i = 0; i < kBatch; ++i) {
      Hash256 hash = Keccak256(BytesView(input.data(), input.size()));
      std::copy(hash.begin(), hash.end(), input.begin() + (i & 1) * 32);
    }
    per_call.push_back(static_cast<double>(NowNs() - start) / kBatch);
  }
  return Median(per_call);
}

// U256::Div with 192-bit dividends over 64..128-bit divisors, the shape of
// constant-product swap arithmetic.
double TimeU256Div(std::mt19937_64& rng) {
  std::vector<std::pair<U256, U256>> operands(1024);
  for (auto& [a, b] : operands) {
    a = U256(0, rng() >> 1, rng(), rng());
    b = U256(0, 0, rng() >> (rng() % 64), rng() | 1);
  }
  constexpr int kBatch = 20'000;
  std::vector<double> per_call;
  U256 sink;
  for (int batch = 0; batch < 7; ++batch) {
    const uint64_t start = NowNs();
    for (int i = 0; i < kBatch; ++i) {
      const auto& [a, b] = operands[static_cast<size_t>(i) & 1023];
      sink = sink ^ U256::Div(a, b);
    }
    per_call.push_back(static_cast<double>(NowNs() - start) / kBatch);
  }
  if (sink.IsZero()) {
    std::fprintf(stderr, " ");  // Keeps the loop's result observable.
  }
  return Median(per_call);
}

std::unique_ptr<KvStore> OpenStore(const std::string& dir) {
  std::string error;
  std::unique_ptr<KvStore> store = KvStore::Open(dir, KvOptions{}, &error);
  if (!store) {
    Fatal("cannot open kv store " + dir + ": " + error);
  }
  return store;
}

// The chain runner's warm stage for one block, called from outside.
void Warm(SpanRecorder& spans, SimStore& store, const Block& block, size_t b) {
  if (block.transactions.empty()) {
    return;
  }
  ScopedSpan span(spans, "state.warm", b);
  PrefetchEngine engine(store, BuildPrefetchRequests(block),
                        static_cast<int>(block.transactions.size()));
  engine.Drain();
}

// Opens a store a trie committed to, recovers the chain from it and re-seeds
// a trie from the recovered state, as ChainRunner does on restart.
Recovery ReopenAndRecover(SpanRecorder& spans, const std::string& dir,
                          const CommitOptions& commit) {
  std::unique_ptr<KvStore> store;
  {
    ScopedSpan span(spans, "kv.open", 0);
    store = OpenStore(dir);
  }
  std::optional<RecoveredChain> chain;
  {
    ScopedSpan span(spans, "kv.recover", 0);
    chain = RecoverChain(*store);
  }
  if (!chain) {
    Fatal("reopened store holds no chain: " + dir);
  }
  KvNodeStore nodes(*store);
  ScopedSpan span(spans, "commit.reseed", 0);
  IncrementalStateTrie trie(chain->state, &nodes, IncrementalStateTrie::SeedMode::kAlreadyDurable,
                            commit);
  if (trie.Root() != chain->root) {
    Fatal("re-seeded root differs from the recovered manifest root: " + dir);
  }
  return Recovery{chain->blocks_committed, chain->root};
}

struct PersistTotals {
  std::vector<double> sync_ms;
  uint64_t nodes = 0;
  uint64_t bytes = 0;
  uint64_t blocks = 0;
  uint64_t txs = 0;
};

void Persist(SpanRecorder& spans, IncrementalStateTrie& trie, size_t b, const Hash256& root,
             size_t txs, PersistTotals& totals) {
  ScopedSpan span(spans, "commit.persist", b);
  NodeStoreCommitStats stats = trie.CommitBatch(b, std::span<const Hash256>(&root, 1));
  totals.sync_ms.push_back(static_cast<double>(stats.sync_ns) / 1e6);
  totals.nodes += stats.nodes_written;
  totals.bytes += stats.bytes_appended;
  ++totals.blocks;
  totals.txs += txs;
}

}  // namespace

TracedResult RunTraced(const Params& params, const Inputs& inputs, double head_block_ms_p50) {
  TracedResult result;
  SpanRecorder spans;
  auto& m = result.metrics;
  std::mt19937_64 rng(params.seed);
  m["support.keccak64_ns"] = TimeKeccak64(rng);
  m["support.u256_div_ns"] = TimeU256Div(rng);

  WorldState state;
  {
    ScopedSpan span(spans, "state.genesis_copy", 0);
    state = inputs.genesis;
  }
  const ChainOptions options = MakeChainOptions(params);
  ExecOptions exec = options.exec;
  exec.external_warmup = true;  // As ChainRunner runs its executor.
  std::unique_ptr<Executor> executor = MakeExecutor(ExecutorKind::kParallelEvm, exec);
  SimStore* chain_store = executor->chain_store();
  const bool warm_in_pipeline = chain_store != nullptr && exec.prefetch_depth > 0;
  CodeProvider* provider = StaticCodeProvider(exec.code_cache);

  std::optional<IncrementalStateTrie> trie;
  {
    ScopedSpan span(spans, "commit.seed", 0);
    trie.emplace(state, nullptr, IncrementalStateTrie::SeedMode::kFresh, options.commit);
  }
  const Hash256 seed_root = trie->Root();
  std::optional<SnapshotRegistry> registry;
  if (params.query_tier) {
    registry.emplace(state, seed_root, 0, options.query_retain);
  }

  const size_t n = inputs.blocks.size();
  const size_t probe_n = std::min(kProbeBlocks, n);
  const CodeCache::Stats cache_before = SharedCodeCache(exec.code_cache.fuse).GetStats();
  SimStore probe_store;  // Zero-latency warm target when warming is not in the pipeline.
  std::vector<StateDiff> probe_diffs;
  BlockReport totals;
  std::vector<double> read_ms, sweep_ms;
  PersistTotals persisted;
  uint64_t txs = 0, diff_entries = 0;
  for (size_t b = 0; b < n; ++b) {
    const Block& block = inputs.blocks[b];
    if (b % kProbeStride == 0) {
      // SpeculateTransaction against the block-start state, without and
      // with the SSA log.
      ScopedSpan probe(spans, "probe.speculate", b);
      for (size_t i = 0; i < block.transactions.size(); ++i) {
        ScopedSpan span(spans, "evm.interpret", i);
        SpeculateTransaction(state, block.context, block.transactions[i], false, nullptr,
                             provider);
      }
      for (size_t i = 0; i < block.transactions.size(); ++i) {
        ScopedSpan span(spans, "core.ssa_speculate", i);
        SpeculateTransaction(state, block.context, block.transactions[i], true, nullptr,
                             provider);
      }
    }
    if (!warm_in_pipeline && b < probe_n) {
      ScopedSpan probe(spans, "probe.warm", b);
      Warm(spans, probe_store, block, b);
    }
    BlockReport report;
    StateDiff diff;
    Hash256 root;
    {
      ScopedSpan span(spans, "block", b);
      if (warm_in_pipeline) {
        Warm(spans, *chain_store, block, b);
      }
      state.BeginDiff();
      {
        ScopedSpan layer(spans, "exec.execute", b);
        report = executor->Execute(block, state);
      }
      diff = state.TakeDiff();
      {
        ScopedSpan layer(spans, "commit.apply", b);
        trie->ApplyDiff(diff);
      }
      {
        ScopedSpan layer(spans, "commit.root", b);
        root = trie->Root();
      }
      if (registry) {
        ScopedSpan layer(spans, "query.publish", b);
        registry->Publish(b + 1, root, diff);
      }
    }
    result.roots.push_back(root);
    txs += block.transactions.size();
    diff_entries += diff.size();
    read_ms.push_back(static_cast<double>(report.read_wall_ns) / 1e6);
    sweep_ms.push_back(static_cast<double>(report.commit_wall_ns) / 1e6);
    report.receipts.clear();
    totals = AggregateBlockReports({totals, report});
    if (b < probe_n) {
      probe_diffs.push_back(std::move(diff));
    }
  }
  const CodeCache::Stats cache_after = SharedCodeCache(exec.code_cache.fuse).GetStats();

  // Durability: a probe store holding genesis and the first blocks, then a
  // node restarting on it.
  const std::string probe_dir = params.work_dir + "/probe-kv";
  {
    std::unique_ptr<KvStore> probe_kv;
    {
      ScopedSpan span(spans, "kv.create", 0);
      probe_kv = OpenStore(probe_dir);
    }
    KvNodeStore probe_nodes(*probe_kv);
    IncrementalStateTrie probe_trie(inputs.genesis, &probe_nodes,
                                    IncrementalStateTrie::SeedMode::kFresh, options.commit);
    for (size_t b = 0; b < probe_n; ++b) {
      probe_trie.ApplyDiff(probe_diffs[b]);
      const Hash256 root = probe_trie.Root();
      if (root != result.roots[b]) {
        Fatal("probe trie root differs from the traced trie at block " + std::to_string(b));
      }
      Persist(spans, probe_trie, b, root, inputs.blocks[b].transactions.size(), persisted);
    }
  }
  result.recoveries.emplace_back(probe_n, ReopenAndRecover(spans, probe_dir, options.commit));
  ChainOptions reopen = options;
  reopen.persist = PersistMode::kKv;
  reopen.kv_dir = probe_dir;
  reopen.query_tier = false;
  reopen.speculate = false;
  std::vector<double> recover_s;
  for (int rep = 0; rep < params.recover_reps; ++rep) {
    malloc_trim(0);
    const uint64_t start = NowNs();
    ChainRunner runner(reopen, inputs.genesis);
    recover_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    result.recoveries.emplace_back(
        probe_n, Recovery{runner.recovered_blocks(), runner.Finish().final_root});
  }
  fs::remove_all(probe_dir);

  // The query layer: the workload's registry, or a probe registry holding
  // genesis and the first blocks; then one closed-loop client.
  if (!registry) {
    registry.emplace(inputs.genesis, seed_root, 0, options.query_retain);
    for (size_t b = 0; b < probe_n; ++b) {
      ScopedSpan span(spans, "query.publish", b);
      registry->Publish(b + 1, result.roots[b], probe_diffs[b]);
    }
  }
  std::vector<double> serve_us, handoff_us, rpc_us;
  {
    QueryEngineOptions engine_options;
    engine_options.threads = params.serve_threads;
    QueryEngine engine(*registry, engine_options);
    for (size_t q = 0; q < kProbeQueries; ++q) {
      const QueryRequest& request = inputs.queries[q % inputs.queries.size()];
      const uint64_t sent = NowNs();
      QueryResponse response = engine.Submit(request).get();
      const uint64_t latency = NowNs() - sent;
      serve_us.push_back(static_cast<double>(response.wall_ns) / 1e3);
      rpc_us.push_back(static_cast<double>(latency) / 1e3);
      handoff_us.push_back(static_cast<double>(latency - response.wall_ns) / 1e3);
      if (!response.ok()) {
        ++result.queries_failed;
      }
      result.replies.push_back(Reply{&request, std::move(response), latency});
    }
    engine.Stop();
  }
  {
    SnapshotHandle handle = registry->AcquireLatest();
    SnapshotReader reader(handle);
    for (size_t q = 0; q < kProbeQueries; ++q) {
      const QueryRequest& request = inputs.queries[q % inputs.queries.size()];
      if (request.kind == QueryKind::kCall) {
        ScopedSpan span(spans, "query.eval_call", q);
        EvalQuery(request, reader, handle.block_index(), handle.root(), provider);
      }
    }
  }

  // Layer metrics.
  auto median_of = [&](const char* name, double scale) {
    return Median(spans.Durations(name)) / scale;
  };
  m["state.genesis_copy_ms"] = median_of("state.genesis_copy", 1e6);
  m["state.warm_ms"] = median_of("state.warm", 1e6);
  m["state.prefetch_hit_frac"] =
      Ratio(static_cast<double>(totals.prefetch_hits),
            static_cast<double>(totals.prefetch_hits + totals.prefetch_misses));
  const double conflicts = totals.conflicts;
  m["exec.block_ms"] = median_of("exec.execute", 1e6);
  m["exec.read_ms"] = Median(read_ms);
  m["exec.sweep_ms"] = Median(sweep_ms);
  m["exec.conflict_frac"] = Ratio(conflicts, static_cast<double>(txs));
  m["exec.redo_success_frac"] = Ratio(totals.redo_success, conflicts);
  m["exec.fallbacks_per_block"] = Ratio(totals.full_reexecutions, static_cast<double>(n));
  m["exec.redo_entries_per_conflict"] =
      Ratio(static_cast<double>(totals.redo_entries_reexecuted), conflicts);
  const double interpret_us = Mean(spans.Durations("evm.interpret")) / 1e3;
  m["evm.interpret_us_per_tx"] = interpret_us;
  m["core.ssa_log_us_per_tx"] = Mean(spans.Durations("core.ssa_speculate")) / 1e3 - interpret_us;
  m["core.oplog_entries_per_tx"] =
      Ratio(static_cast<double>(totals.oplog_entries), static_cast<double>(txs));
  m["evm.instructions_per_tx"] =
      Ratio(static_cast<double>(totals.instructions), static_cast<double>(txs));
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  m["codecache.hit_frac"] =
      Ratio(hits, hits + static_cast<double>(cache_after.misses - cache_before.misses));
  m["commit.seed_ms"] = median_of("commit.seed", 1e6);
  m["commit.apply_ms"] = median_of("commit.apply", 1e6);
  m["commit.root_us"] = median_of("commit.root", 1e3);
  m["commit.diff_entries_per_block"] =
      Ratio(static_cast<double>(diff_entries), static_cast<double>(n));
  m["commit.persist_ms"] = median_of("commit.persist", 1e6);
  m["commit.nodes_per_block"] =
      Ratio(static_cast<double>(persisted.nodes), static_cast<double>(persisted.blocks));
  m["kv.sync_ms"] = Median(persisted.sync_ms);
  m["kv.bytes_per_block"] =
      Ratio(static_cast<double>(persisted.bytes), static_cast<double>(persisted.blocks));
  m["kv.open_ms"] = median_of("kv.open", 1e6);
  m["kv.recover_ms"] = median_of("kv.recover", 1e6);
  m["query.publish_us"] = median_of("query.publish", 1e3);
  m["query.serve_us_p50"] = Median(serve_us);
  m["query.call_us_p50"] = median_of("query.eval_call", 1e3);
  m["query.handoff_us_p50"] = Median(handoff_us);
  m["recover_s"] = Median(recover_s);
  m["bytes_per_tx"] = Ratio(static_cast<double>(persisted.bytes), static_cast<double>(persisted.txs));
  if (!params.query_tier) {
    m["query_us_p50"] = Quantile(rpc_us, 0.5);
    m["query_us_p99"] = Quantile(rpc_us, 0.99);
  }

  // The ledger: self time of each layer under the block spans.
  std::map<std::string, uint64_t> self_ns;
  uint64_t block_ns = 0, unattributed_ns = 0;
  std::vector<double> head_block_ms;
  std::vector<char> is_head(n, 0);
  for (const Segment& segment : inputs.segments) {
    std::fill(is_head.begin() + segment.begin, is_head.begin() + segment.end, segment.head);
  }
  const auto& all = spans.spans();
  for (const SpanRecord& span : all) {
    if (span.parent < 0) {
      if (std::string(span.name) == "block") {
        block_ns += span.duration_ns();
        unattributed_ns += span.self_ns();
        if (is_head[span.id]) {
          head_block_ms.push_back(static_cast<double>(span.duration_ns()) / 1e6);
        }
      }
      continue;
    }
    if (std::string(all[static_cast<size_t>(span.parent)].name) == "block") {
      self_ns[span.name] += span.self_ns();
    }
  }
  m["ledger.unattributed_frac"] = Ratio(static_cast<double>(unattributed_ns), static_cast<double>(block_ns));
  m["chain.handoff_ms"] = head_block_ms_p50 - Median(head_block_ms);
  char line[160];
  std::snprintf(line, sizeof(line), "ledger: %zu traced blocks, %llu txs, %.3f ms per block",
                n, static_cast<unsigned long long>(txs),
                static_cast<double>(block_ns) / 1e6 / static_cast<double>(n));
  result.ledger.push_back(line);
  auto add_line = [&](const std::string& layer, uint64_t ns) {
    std::snprintf(line, sizeof(line), "  %-22s %10.3f us/tx %6.1f %%", layer.c_str(),
                  static_cast<double>(ns) / 1e3 / static_cast<double>(txs),
                  100.0 * Ratio(static_cast<double>(ns), static_cast<double>(block_ns)));
    result.ledger.push_back(line);
  };
  for (const auto& [layer, ns] : self_ns) {
    add_line(layer, ns);
  }
  add_line("unattributed", unattributed_ns);
  std::snprintf(line, sizeof(line),
                "  %-22s %10.3f ms/block (untraced head p50 %.3f - traced head block p50 %.3f)",
                "chain.handoff", m["chain.handoff_ms"], head_block_ms_p50, Median(head_block_ms));
  result.ledger.push_back(line);

  if (!params.trace_path.empty() && !spans.WriteChromeJson(params.trace_path)) {
    std::fprintf(stderr, "chainbench: cannot write %s\n", params.trace_path.c_str());
  }
  return result;
}

}  // namespace chainbench
