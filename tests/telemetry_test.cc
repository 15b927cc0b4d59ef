// The telemetry layer's two contracts (DESIGN.md §4.3):
//
//  1. Mechanics — ring buffers wrap instead of blocking, concurrent writers
//     from real pool threads never tear the export, the Chrome trace and the
//     metrics snapshot are valid JSON, and the histogram bucket math is exact
//     at the power-of-two boundaries.
//
//  2. Inertness — flipping the recorder on must be invisible in results:
//     state roots, digests, and every deterministic BlockReport field are
//     bit-identical with telemetry on or off, for every executor at every
//     OS-thread count. The recorder observes the wall clock only; this suite
//     is the executable form of that argument.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/block_stm.h"
#include "src/baselines/occ.h"
#include "src/baselines/serial.h"
#include "src/baselines/two_phase_locking.h"
#include "src/chain/chain_runner.h"
#include "src/core/parallel_evm.h"
#include "src/exec/thread_pool.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/workload/block_gen.h"

namespace pevm {
namespace {

// --- Minimal JSON validator (no external deps): accepts exactly one value. --

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    size_t n = std::string_view(lit).size();
    if (s_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }
  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) {
      return false;
    }
    ++pos_;  // Closing quote.
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    if (depth_ > 64) {
      return false;
    }
    SkipWs();
    if (pos_ >= s_.size()) {
      return false;
    }
    char c = s_[pos_];
    if (c == '{' || c == '[') {
      char close = c == '{' ? '}' : ']';
      ++pos_;
      ++depth_;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == close) {
        ++pos_;
        --depth_;
        return true;
      }
      for (;;) {
        if (close == '}') {
          SkipWs();
          if (!String()) {
            return false;
          }
          SkipWs();
          if (pos_ >= s_.size() || s_[pos_++] != ':') {
            return false;
          }
        }
        if (!Value()) {
          return false;
        }
        SkipWs();
        if (pos_ >= s_.size()) {
          return false;
        }
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == close) {
          ++pos_;
          --depth_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      return String();
    }
    if (c == 't') {
      return Literal("true");
    }
    if (c == 'f') {
      return Literal("false");
    }
    if (c == 'n') {
      return Literal("null");
    }
    return Number();
  }

  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;
};

bool IsValidJson(const std::string& s) { return JsonValidator(s).Valid(); }

TEST(JsonValidatorSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(IsValidJson(R"({"a": [1, 2.5, -3e4], "b": {"c": "x\"y"}, "d": true})"));
  EXPECT_TRUE(IsValidJson("[]"));
  EXPECT_FALSE(IsValidJson(R"({"a": )"));
  EXPECT_FALSE(IsValidJson(R"({"a": 1} extra)"));
  EXPECT_FALSE(IsValidJson(R"({"buc{"lo": 1}]})"));  // The truncation shape.
}

// --- Trace recorder mechanics. --------------------------------------------

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::SetEnabled(true);
    telemetry::Reset();
  }
  void TearDown() override {
    telemetry::SetEnabled(false);
    telemetry::Reset();
    telemetry::SetRingCapacity(1 << 15);  // Restore the default for later tests.
  }
};

TEST_F(TelemetryTest, RingWrapsAndCountsDroppedEvents) {
  size_t applied = telemetry::SetRingCapacity(10);  // Rounds up to 16.
  EXPECT_EQ(applied, 16u);
  // A fresh thread registers a fresh (small) ring; the emitting thread is the
  // buffer's only writer, per the design.
  std::thread t([] {
    for (int i = 0; i < 100; ++i) {
      telemetry::EmitInstant("wrap.event", "i", static_cast<uint64_t>(i));
    }
  });
  t.join();
  EXPECT_EQ(telemetry::DroppedEvents(), 100u - 16u);
  std::string json = telemetry::ChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  // Only the newest `capacity` events survive; the oldest surviving one is #84.
  EXPECT_EQ(json.find("\"i\": 83"), std::string::npos);
  EXPECT_NE(json.find("\"i\": 84"), std::string::npos);
  EXPECT_NE(json.find("\"i\": 99"), std::string::npos);
}

TEST_F(TelemetryTest, ConcurrentPoolWritersProduceValidJson) {
  {
    ThreadPool pool(8);
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(256, [](size_t i) {
        telemetry::Span span("pool.work");
        telemetry::EmitInstant("pool.tick", "i", i);
      });
    }
  }
  // 7 workers + the caller all emitted; every buffer must export cleanly.
  EXPECT_GE(telemetry::RegisteredThreads(), 8u);
  std::string json = telemetry::ChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json));
  EXPECT_NE(json.find("\"pool.work\""), std::string::npos);
#if !defined(PEVM_TELEMETRY_DISABLED)
  // Worker threads name themselves through the (compilable-out) macro.
  EXPECT_NE(json.find("\"pool-worker\""), std::string::npos);
#endif
}

TEST_F(TelemetryTest, ExportWhileWritingStaysValidJson) {
  // The exporter reads rings concurrently with a live writer: a torn slot may
  // garble one entry's *values* but must never break the JSON structure.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      telemetry::EmitSpan("race.span", telemetry::NowNs(), telemetry::NowNs(), "i", i++);
    }
  });
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(IsValidJson(telemetry::ChromeTraceJson()));
  }
  stop.store(true);
  writer.join();
}

TEST_F(TelemetryTest, DisabledRecorderBuffersNothing) {
  telemetry::SetEnabled(false);
  telemetry::Reset();
  {
    PEVM_TRACE_SPAN("off.span");
    PEVM_TRACE_INSTANT("off.instant");
    PEVM_TRACE_COUNTER("off.counter", 7);
  }
  std::string json = telemetry::ChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json));
  EXPECT_EQ(json.find("off.span"), std::string::npos);
  EXPECT_EQ(json.find("off.instant"), std::string::npos);
  EXPECT_EQ(telemetry::DroppedEvents(), 0u);
}

TEST_F(TelemetryTest, ThreadNamesAppearInExport) {
  std::thread t([] {
    telemetry::SetThreadName("my-named-thread");
    telemetry::EmitInstant("named.event");
  });
  t.join();
  std::string json = telemetry::ChromeTraceJson();
  EXPECT_NE(json.find("\"my-named-thread\""), std::string::npos);
}

// --- A traced chain runner. -----------------------------------------------

// A speculating runner over simulated storage runs every pipeline stage.
using ChainTraceTest = TelemetryTest;

WorkloadConfig TracedStreamConfig() {
  WorkloadConfig config;
  config.seed = 4'100;
  config.transactions_per_block = 48;
  config.users = 300;
  config.tokens = 5;
  config.pools = 3;
  return config;
}

ChainOptions TracedRunnerOptions() {
  ChainOptions options;
  options.executor = ExecutorKind::kParallelEvm;
  options.speculate = true;
  options.exec.prefetch_depth = 1;
  options.exec.storage.cold_read_ns = 1'000;
  return options;
}

// Each stage must leave its chain.* span in the trace, and the trace and the
// metrics snapshot taken after the run must both be well-formed JSON.
TEST_F(ChainTraceTest, SpeculatingRunnerTraceNamesEveryStage) {
#if defined(PEVM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "instrumentation sites compiled out (-DPEVM_TELEMETRY=OFF)";
#endif
  WorkloadGenerator gen(TracedStreamConfig());
  ChainRunner runner(TracedRunnerOptions(), gen.MakeGenesis());
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(runner.Submit(gen.MakeBlock()));
  }
  ASSERT_EQ(runner.Finish().blocks_committed, 4u);
  const std::string trace = telemetry::ChromeTraceJson();
  for (const char* span : {"chain.warm", "chain.speculate", "chain.boundary_validate",
                           "chain.exec", "chain.commit"}) {
    EXPECT_NE(trace.find("\"" + std::string(span) + "\""), std::string::npos) << span;
  }
  EXPECT_TRUE(IsValidJson(trace));
  EXPECT_TRUE(IsValidJson(telemetry::MetricsJson()));
}

// Every thread that records an event registers a trace ring, so rings count
// threads: the warm stage batches on the warm thread and the runner's warm
// pool, and a runner registers as many rings for 8 blocks as for 2.
TEST_F(ChainTraceTest, WarmStageStartsNoThreadPerBlock) {
#if defined(PEVM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "instrumentation sites compiled out (-DPEVM_TELEMETRY=OFF)";
#endif
  auto rings_added = [](int blocks) {
    const size_t before = telemetry::RegisteredThreads();
    {
      WorkloadGenerator gen(TracedStreamConfig());
      ChainRunner runner(TracedRunnerOptions(), gen.MakeGenesis());
      for (int b = 0; b < blocks; ++b) {
        EXPECT_TRUE(runner.Submit(gen.MakeBlock()));
      }
      EXPECT_EQ(runner.Finish().blocks_committed, static_cast<uint64_t>(blocks));
    }
    return telemetry::RegisteredThreads() - before;
  };
  rings_added(1);  // Process-wide pools register their rings once, on first use.
  const size_t two_blocks = rings_added(2);
  EXPECT_GT(two_blocks, 0u);  // The stage threads did record.
  EXPECT_EQ(rings_added(8), two_blocks);
}

// --- Metrics registry. ----------------------------------------------------

TEST(MetricsTest, HistogramBucketBoundariesAreExact) {
  // Bucket i holds values of bit width i: 0→{0}, 1→{1}, 2→{2,3}, 3→{4..7}...
  EXPECT_EQ(telemetry::Histogram::BucketLo(0), 0u);
  EXPECT_EQ(telemetry::Histogram::BucketHi(0), 0u);
  EXPECT_EQ(telemetry::Histogram::BucketLo(1), 1u);
  EXPECT_EQ(telemetry::Histogram::BucketHi(1), 1u);
  EXPECT_EQ(telemetry::Histogram::BucketLo(4), 8u);
  EXPECT_EQ(telemetry::Histogram::BucketHi(4), 15u);
  EXPECT_EQ(telemetry::Histogram::BucketLo(64), uint64_t{1} << 63);
  EXPECT_EQ(telemetry::Histogram::BucketHi(64), UINT64_MAX);

  telemetry::Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  h.Observe(8);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 14u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 0u);
  EXPECT_EQ(h.bucket_count(4), 1u);
}

TEST(MetricsTest, QuantilesInterpolateWithinTheSelectedBucket) {
  telemetry::Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // Empty.
  for (int i = 0; i < 100; ++i) {
    h.Observe(1000);  // Bucket 10: [512, 1023].
  }
  double p50 = h.Quantile(0.50);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p50, 1023.0);
  EXPECT_GE(h.Quantile(0.99), p50);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(MetricsTest, RegistryReturnsStableReferencesAndValidJson) {
  auto& c = telemetry::GetCounter("test.counter");
  EXPECT_EQ(&c, &telemetry::GetCounter("test.counter"));
  c.Add(41);
  c.Add();
  EXPECT_EQ(c.value(), 42u);
  telemetry::GetGauge("test.gauge").Set(-7);
  telemetry::GetHistogram("test.hist").Observe(1'000'000);

  std::string json = telemetry::MetricsJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"test.counter\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"test.gauge\": -7"), std::string::npos);
  EXPECT_NE(json.find("\"test.hist\""), std::string::npos);

  telemetry::ClearMetrics();
  EXPECT_EQ(telemetry::GetCounter("test.counter").value(), 0u);
  EXPECT_EQ(telemetry::GetGauge("test.gauge").value(), 0);
  EXPECT_EQ(telemetry::GetHistogram("test.hist").count(), 0u);
}

// --- Inertness: telemetry on/off is invisible in results. ------------------

struct InertnessResult {
  std::string root;
  uint64_t digest = 0;
  std::vector<BlockReport> reports;
};

// Everything except wall-clock fields; mirrors determinism_test's contract.
void ExpectSameDeterministicFields(const InertnessResult& off, const InertnessResult& on,
                                   const char* executor, int os_threads) {
  SCOPED_TRACE(testing::Message() << executor << " os_threads=" << os_threads);
  EXPECT_EQ(off.root, on.root);
  EXPECT_EQ(off.digest, on.digest);
  ASSERT_EQ(off.reports.size(), on.reports.size());
  for (size_t b = 0; b < off.reports.size(); ++b) {
    const BlockReport& x = off.reports[b];
    const BlockReport& y = on.reports[b];
    EXPECT_EQ(x.makespan_ns, y.makespan_ns);
    EXPECT_EQ(x.conflicts, y.conflicts);
    EXPECT_EQ(x.redo_success, y.redo_success);
    EXPECT_EQ(x.redo_fail, y.redo_fail);
    EXPECT_EQ(x.full_reexecutions, y.full_reexecutions);
    EXPECT_EQ(x.lock_aborts, y.lock_aborts);
    EXPECT_EQ(x.redo_entries_reexecuted, y.redo_entries_reexecuted);
    EXPECT_EQ(x.redo_ns, y.redo_ns);
    EXPECT_EQ(x.oplog_entries, y.oplog_entries);
    EXPECT_EQ(x.instructions, y.instructions);
    EXPECT_EQ(x.prefetch_hits, y.prefetch_hits);
    EXPECT_EQ(x.prefetch_misses, y.prefetch_misses);
    EXPECT_EQ(x.prefetch_wasted, y.prefetch_wasted);
    EXPECT_EQ(x.conflict_keys, y.conflict_keys);
    EXPECT_EQ(x.receipts, y.receipts);
  }
}

class InertnessTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    WorkloadConfig config;
    config.seed = 777;
    config.transactions_per_block = 100;
    config.users = 500;
    config.tokens = 5;
    config.pools = 3;
    WorkloadGenerator gen(config);
    genesis_ = gen.MakeGenesis();
    for (int b = 0; b < 2; ++b) {
      blocks_.push_back(gen.MakeBlock());
    }
  }
  void TearDown() override {
    telemetry::SetEnabled(false);
    telemetry::Reset();
  }

  template <typename MakeExec>
  InertnessResult Run(MakeExec make, bool telemetry_on) {
    telemetry::SetEnabled(telemetry_on);
    telemetry::Reset();
    ExecOptions options;
    options.threads = 8;
    options.os_threads = GetParam();
    auto executor = make(options);
    WorldState state = genesis_;
    InertnessResult result;
    for (const Block& block : blocks_) {
      result.reports.push_back(executor->Execute(block, state));
    }
    result.root = HexEncode(state.StateRoot());
    result.digest = state.Digest();
    return result;
  }

  template <typename MakeExec>
  void ExpectInert(MakeExec make, const char* name) {
    InertnessResult off = Run(make, /*telemetry_on=*/false);
    InertnessResult on = Run(make, /*telemetry_on=*/true);
    ExpectSameDeterministicFields(off, on, name, GetParam());
  }

  WorldState genesis_;
  std::vector<Block> blocks_;
};

TEST_P(InertnessTest, AllExecutorsProduceIdenticalResultsWithTracingOnOrOff) {
  ExpectInert([](const ExecOptions& o) { return std::make_unique<SerialExecutor>(o); },
              "serial");
  ExpectInert(
      [](const ExecOptions& o) { return std::make_unique<TwoPhaseLockingExecutor>(o); },
      "2pl");
  ExpectInert([](const ExecOptions& o) { return std::make_unique<OccExecutor>(o); }, "occ");
  ExpectInert([](const ExecOptions& o) { return std::make_unique<BlockStmExecutor>(o); },
              "block-stm");
  ExpectInert([](const ExecOptions& o) { return std::make_unique<ParallelEvmExecutor>(o); },
              "parallelevm");
}

TEST_P(InertnessTest, PrefetchPipelineIsInertUnderTracing) {
  // The racy background engine plus simulated storage latency is the
  // instrumentation-densest path (sim.cold_read fires per miss).
  ExpectInert(
      [](const ExecOptions& o) {
        ExecOptions with_prefetch = o;
        with_prefetch.prefetch_depth = 8;
        with_prefetch.storage.cold_read_ns = 1'000;
        with_prefetch.storage.warm_read_ns = 100;
        return std::make_unique<ParallelEvmExecutor>(with_prefetch);
      },
      "parallelevm+prefetch");
}

TEST_P(InertnessTest, TracingActuallyRecordedDuringTheOnRuns) {
  // Guard against vacuity: the inertness comparison means nothing if the "on"
  // run never wrote an event.
#if defined(PEVM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "instrumentation sites compiled out (-DPEVM_TELEMETRY=OFF)";
#endif
  telemetry::SetEnabled(true);
  telemetry::Reset();
  ExecOptions options;
  options.threads = 8;
  options.os_threads = GetParam();
  ParallelEvmExecutor executor(options);
  WorldState state = genesis_;
  executor.Execute(blocks_.front(), state);
  std::string json = telemetry::ChromeTraceJson();
  EXPECT_NE(json.find("\"exec.read_phase\""), std::string::npos);
  EXPECT_NE(json.find("\"exec.commit_loop\""), std::string::npos);
  EXPECT_TRUE(IsValidJson(json));
}

INSTANTIATE_TEST_SUITE_P(OsThreads, InertnessTest, ::testing::Values(1, 4, 16),
                         [](const auto& info) {
                           return "os_threads_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pevm
