// The untraced run: ChainRunner set-up, the catch-up phase, the head phase
// and the paced RPC client. End-to-end metrics come only from here.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <thread>

#include "chainbench/common.h"
#include "src/telemetry/trace.h"

namespace chainbench {
namespace {

using namespace pevm;

double SecondsSince(uint64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

// Reads a "Vm...:  N kB" line of /proc/self/status, in bytes.
uint64_t ProcStatusBytes(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stoull(line.substr(prefix.size())) * 1024;
    }
  }
  return 0;
}

// Restarts the peak-RSS counter (VmHWM) at the current RSS, which it returns.
uint64_t ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return ProcStatusBytes("VmRSS");
}

uint64_t TxCount(const std::vector<Block>& blocks, size_t begin, size_t end) {
  uint64_t n = 0;
  for (size_t b = begin; b < end; ++b) {
    n += blocks[b].transactions.size();
  }
  return n;
}

}  // namespace

ChainOptions MakeChainOptions(const Params& params) {
  ChainOptions options;
  options.executor = ExecutorKind::kParallelEvm;
  options.exec.os_threads = params.exec_threads;
  options.exec.prefetch_depth = params.prefetch_depth;
  options.exec.storage.cold_read_ns = params.cold_read_ns;
  options.exec.storage.batch_base_ns = params.batch_base_ns;
  options.exec.storage.batch_key_ns = params.batch_key_ns;
  options.commit.os_threads = params.commit_threads;
  options.speculate = params.speculate;
  options.spec_threads = params.spec_threads;
  options.query_tier = params.query_tier;
  return options;
}

PipelineResult RunPipeline(const Params& params, const Inputs& inputs, int setup_reps) {
  PipelineResult result;
  // Set-up: every construction starts from a trimmed heap, as a fresh node
  // would, and all of them run before the phases: a construction after the
  // run would start from the run's heap and threads, not a fresh node's. The
  // last one is the runner the phases use, and peak RSS is counted from just
  // before it.
  auto build = [&] {
    malloc_trim(0);
    const uint64_t start = NowNs();
    auto built = std::make_unique<ChainRunner>(MakeChainOptions(params), inputs.genesis);
    result.setup_s.push_back(SecondsSince(start));
    return built;
  };
  const uint64_t setup_start = NowNs();
  for (int rep = 0; rep + 1 < setup_reps; ++rep) {
    build().reset();
  }
  const uint64_t rss_base = ResetPeakRss();
  std::unique_ptr<ChainRunner> runner = build();

  // The RPC client: one paced closed loop. Each request is sent at its due
  // time or when the previous reply arrives, whichever is later.
  std::unique_ptr<QueryEngine> engine;
  std::thread client;
  std::atomic<bool> stop_client{false};
  if (params.query_tier) {
    QueryEngineOptions options;
    options.threads = params.serve_threads;
    engine = std::make_unique<QueryEngine>(*runner->snapshots(), options);
    client = std::thread([&] {
      const uint64_t period_ns = static_cast<uint64_t>(1e9 / params.query_rate);
      uint64_t due = NowNs();
      for (size_t i = 0; !stop_client.load(std::memory_order_relaxed); ++i) {
        const uint64_t now = NowNs();
        if (due > now) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        const QueryRequest& request = inputs.queries[i % inputs.queries.size()];
        const uint64_t sent = NowNs();
        QueryResponse response = engine->Submit(request).get();
        const uint64_t replied = NowNs();
        result.replies.push_back(Reply{&request, std::move(response), replied - sent});
        due = std::max(due + period_ns, replied);
      }
    });
  }

  // The phases, segment by segment. Catch-up: submit as fast as backpressure
  // allows; a segment's window runs from the commit of its prefix (the
  // warm-up blocks in the first segment, the pipeline fill in later ones) to
  // its last commit. Head: one block in flight, from Submit until the commit
  // counter moves. Waits poll with a short sleep so the waiting thread leaves
  // the cores to the pipeline.
  // Stops importing after three times the nominal phase time, so that a
  // stalled pipeline or a very slow host still ends the run in time.
  const double guard_s = 3 * params.seconds;
  const uint64_t phases_start = NowNs();
  double catchup_s = 0;
  double head_s = 0;
  size_t submitted = 0;
  auto wait_committed = [&](size_t count, const std::function<void()>& poll) {
    while (runner->Progress().blocks_committed < count) {
      poll();
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    poll();
  };
  for (const Segment& segment : inputs.segments) {
    const uint64_t segment_start = NowNs();
    if (!segment.head) {
      const size_t prefix = segment.begin == 0 ? static_cast<size_t>(params.warmup_blocks) : 2;
      const size_t window_from = std::min(segment.begin + prefix, segment.end - 1);
      uint64_t window_start_ns = 0;
      size_t window_first = 0;
      bool window_open = false;
      auto observe = [&] {
        const uint64_t committed = runner->Progress().blocks_committed;
        if (!window_open && committed >= window_from) {
          window_open = true;
          window_start_ns = NowNs();
          window_first = committed;
        }
      };
      for (size_t b = segment.begin; b < segment.end; ++b) {
        ++result.blocks_attempted;
        if (!runner->Submit(inputs.blocks[b])) {
          ++result.blocks_failed;
          break;
        }
        ++submitted;
        observe();
      }
      wait_committed(submitted, observe);
      if (window_open && window_first < submitted) {
        result.tx_window_blocks += submitted - window_first;
        result.tx_window_txs += TxCount(inputs.blocks, window_first, submitted);
        result.tx_window_s += SecondsSince(window_start_ns);
      }
      catchup_s += SecondsSince(segment_start);
    } else {
      for (size_t b = segment.begin; b < segment.end; ++b) {
        Block block = inputs.blocks[b];
        ++result.blocks_attempted;
        const uint64_t start = NowNs();
        if (!runner->Submit(std::move(block))) {
          ++result.blocks_failed;
          break;
        }
        wait_committed(++submitted, [] {});
        result.head_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
      }
      head_s += SecondsSince(segment_start);
    }
    if (submitted != segment.end || SecondsSince(phases_start) > guard_s) {
      break;
    }
  }

  if (engine) {
    stop_client.store(true);
    client.join();
    engine->Stop();
    engine.reset();
    result.queries_attempted = result.replies.size();
    for (const Reply& reply : result.replies) {
      if (!reply.response.ok()) {
        ++result.queries_failed;
      }
    }
  }
  result.report = runner->Finish();
  result.blocks_failed += submitted - result.report.blocks_committed;
  result.rss_mb = static_cast<double>(ProcStatusBytes("VmHWM") - rss_base) / (1 << 20);
  result.trace_rings = telemetry::RegisteredThreads();
  runner.reset();

  std::printf("phases: set-up %.2f s (%d builds), catch-up %.2f s, head %.2f s\n",
              static_cast<double>(phases_start - setup_start) / 1e9, setup_reps, catchup_s,
              head_s);
  std::printf("set-up builds (s):");
  for (double s : result.setup_s) {
    std::printf(" %.3f", s);
  }
  std::printf("\n");
  return result;
}

}  // namespace chainbench
