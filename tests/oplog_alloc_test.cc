// The SSA log's allocation budget. This binary replaces the global operator
// new and delete to count heap calls and bytes on the measuring thread, then
// compares speculating a transaction with and without the log. The log is
// built in per-thread scratch that keeps its capacity across transactions, and
// a finished log is a few exact-size arrays, so after one warm-up block the
// log should add only a handful of allocations per transaction.
//
// Not for sanitizer builds: the sanitizers bring their own allocator, so this
// target is left out of them (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/baselines/serial.h"
#include "src/exec/pipeline.h"
#include "src/workload/block_gen.h"

namespace {

thread_local bool t_counting = false;
thread_local uint64_t t_allocs = 0;
thread_local uint64_t t_bytes = 0;

void* CountedAlloc(std::size_t size) {
  if (t_counting) {
    ++t_allocs;
    t_bytes += size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pevm {
namespace {

struct Tally {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

// Heap calls and bytes of one speculation, including the record's teardown.
Tally CountSpeculation(const WorldState& state, const BlockContext& context,
                       const Transaction& tx, bool with_log) {
  t_allocs = 0;
  t_bytes = 0;
  t_counting = true;
  {
    Speculation spec = SpeculateTransaction(state, context, tx, with_log);
  }
  t_counting = false;
  return {t_allocs, t_bytes};
}

TEST(OpLogAllocTest, LogAddsFewAllocationsPerTransaction) {
  // PerOpLogPinTest's stream (determinism_test.cc).
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

  SerialExecutor serial(ExecOptions{});
  Tally plain;
  Tally logged;
  uint64_t txs = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const Block& block = blocks[b];
    for (const Transaction& tx : block.transactions) {
      Tally without = CountSpeculation(state, block.context, tx, /*with_log=*/false);
      Tally with = CountSpeculation(state, block.context, tx, /*with_log=*/true);
      if (b == 0) {
        continue;  // Warm-up: the builder's scratch grows to its working size.
      }
      plain.allocs += without.allocs;
      plain.bytes += without.bytes;
      logged.allocs += with.allocs;
      logged.bytes += with.bytes;
      ++txs;
    }
    serial.Execute(block, state);
  }
  ASSERT_GT(txs, 0u);
  double n = static_cast<double>(txs);
  double extra_allocs = (static_cast<double>(logged.allocs) - static_cast<double>(plain.allocs)) / n;
  double extra_bytes = (static_cast<double>(logged.bytes) - static_cast<double>(plain.bytes)) / n;
  std::printf("per transaction over %llu: plain %.1f allocs / %.0f B, with log %.1f allocs / "
              "%.0f B, extra %.1f allocs / %.0f B\n",
              static_cast<unsigned long long>(txs), static_cast<double>(plain.allocs) / n,
              static_cast<double>(plain.bytes) / n, static_cast<double>(logged.allocs) / n,
              static_cast<double>(logged.bytes) / n, extra_allocs, extra_bytes);
  EXPECT_LE(extra_allocs, 10.0);
  EXPECT_LE(extra_bytes, 16.0 * 1024);
}

}  // namespace
}  // namespace pevm
