// The code-cache contract (DESIGN.md §4.6): the per-code-hash analysis — the
// JUMPDEST bitmap — is a pure static function of the bytecode, computed
// exactly once per code hash no matter how many threads race on it; and
// whether a frame's bitmap comes from the shared cache (cold or warm), from a
// memoization-free provider, or from the interpreter's own scan is invisible
// in every deterministic output.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/serial.h"
#include "src/codecache/code_cache.h"
#include "src/core/oplog_printer.h"
#include "src/core/parallel_evm.h"
#include "src/core/ssa_builder.h"
#include "src/evm/host.h"
#include "src/evm/interpreter.h"
#include "src/exec/pipeline.h"
#include "src/state/state_view.h"
#include "src/workload/block_gen.h"

namespace pevm {
namespace {

const Address kSelf = Address::FromId(0xF022);
const Address kCaller = Address::FromId(0xCA11);

Bytes Code(std::initializer_list<uint8_t> bytes) { return Bytes(bytes); }

Hash256 HashOf(const Bytes& code) { return Keccak256(BytesView(code.data(), code.size())); }

// Memoization-free reference provider: scans on every call and records which
// code it was asked about. The shared cache must be indistinguishable from it
// in every result.
class UncachedCodeProvider : public CodeProvider {
 public:
  std::shared_ptr<const CodeAnalysis> Analyze(const Bytes& code, const Hash256* hash) override {
    auto analysis = std::make_shared<CodeAnalysis>();
    analysis->hash = hash != nullptr ? *hash : HashOf(code);
    analysis->jumpdests = JumpdestBitmap(code);
    std::lock_guard<std::mutex> lock(mu_);
    ++calls_;
    codes_.try_emplace(analysis->hash, code);
    return analysis;
  }

  uint64_t calls() const { return calls_; }
  // Every distinct code hash analyzed, with its code.
  const std::map<Hash256, Bytes>& codes() const { return codes_; }

 private:
  std::mutex mu_;
  uint64_t calls_ = 0;
  std::map<Hash256, Bytes> codes_;
};

// --- The analysis. ---------------------------------------------------------

TEST(CodeAnalysisTest, JumpdestBitmapSkipsPushImmediates) {
  // PUSH1 0x5b (the immediate is NOT a jumpdest), JUMPDEST, STOP.
  Bytes code = Code({0x60, 0x5b, 0x5b, 0x00});
  std::vector<bool> bitmap = JumpdestBitmap(code);
  ASSERT_EQ(bitmap.size(), code.size());
  EXPECT_FALSE(bitmap[0]);
  EXPECT_FALSE(bitmap[1]);  // Immediate byte of the PUSH.
  EXPECT_TRUE(bitmap[2]);
  EXPECT_FALSE(bitmap[3]);
  // A PUSH32 truncated by the end of the code swallows the rest.
  EXPECT_EQ(JumpdestBitmap(Code({0x7f, 0x5b, 0x5b})), std::vector<bool>(3, false));
}

TEST(CodeAnalysisTest, AnalysisIsAPureFunctionOfTheBytes) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes code(1 + rng() % 96);
    for (auto& b : code) {
      b = static_cast<uint8_t>(rng() & 0xff);
    }
    Hash256 hash = HashOf(code);
    CodeCache a;
    CodeCache b;
    ASSERT_EQ(a.Analyze(code, &hash)->jumpdests, b.Analyze(code, nullptr)->jumpdests);
    ASSERT_EQ(a.Analyze(code, &hash)->jumpdests, JumpdestBitmap(code));
  }
}

// --- The cache itself. -----------------------------------------------------

TEST(CodeCacheTest, AnalyzesOncePerHashAndCountsHits) {
  CodeCache cache;
  Bytes code = Code({0x60, 0x01, 0x60, 0x02, 0x01, 0x00});
  Hash256 hash = HashOf(code);
  auto first = cache.Analyze(code, &hash);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cache.Analyze(code, &hash).get(), first.get());
  }
  CodeCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(CodeCacheTest, NullHashFallsBackToHashingTheBytes) {
  CodeCache cache;
  Bytes code = Code({0x60, 0x2a, 0x60, 0x00, 0x55, 0x00});
  Hash256 hash = HashOf(code);
  auto a = cache.Analyze(code, nullptr);
  auto b = cache.Analyze(code, &hash);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->hash, hash);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

// 16 real threads hammer one cache over a small code set: each hash must be
// analyzed exactly once, and every thread must see the same analysis object.
// (scripts/check_tsan.sh runs this under TSan.)
TEST(CodeCacheTest, ConcurrentLookupsAnalyzeOncePerHash) {
  CodeCache cache;
  constexpr int kCodes = 8;
  constexpr int kThreads = 16;
  constexpr int kIters = 200;
  std::vector<Bytes> codes;
  std::vector<Hash256> hashes;
  for (int c = 0; c < kCodes; ++c) {
    Bytes code = Code({0x60, static_cast<uint8_t>(c), 0x60, 0x07, 0x02, 0x00});
    hashes.push_back(HashOf(code));
    codes.push_back(std::move(code));
  }
  std::vector<std::vector<const CodeAnalysis*>> seen(kThreads,
                                                     std::vector<const CodeAnalysis*>(kCodes));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        int c = (t + i) % kCodes;
        auto a = cache.Analyze(codes[static_cast<size_t>(c)], &hashes[static_cast<size_t>(c)]);
        seen[static_cast<size_t>(t)][static_cast<size_t>(c)] = a.get();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  CodeCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(kCodes));
  EXPECT_EQ(stats.entries, static_cast<uint64_t>(kCodes));
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads) * kIters - kCodes);
  for (int c = 0; c < kCodes; ++c) {
    for (int t = 1; t < kThreads; ++t) {
      ASSERT_EQ(seen[static_cast<size_t>(t)][static_cast<size_t>(c)],
                seen[0][static_cast<size_t>(c)]);
    }
  }
}

// --- Interpreter equivalence: cached vs provider-less. ---------------------

Bytes RandomCode(std::mt19937_64& rng, size_t max_len) {
  size_t len = 1 + rng() % max_len;
  Bytes code(len);
  for (auto& b : code) {
    switch (rng() % 4) {
      case 0:
        b = static_cast<uint8_t>(0x60 + rng() % 16);  // Small pushes.
        break;
      case 1:
        b = static_cast<uint8_t>(rng() % 0x20);  // Arithmetic block.
        break;
      case 2:
        b = static_cast<uint8_t>(0x50 + rng() % 16);  // Memory/storage/flow.
        break;
      default:
        b = static_cast<uint8_t>(rng() & 0xff);
        break;
    }
  }
  return code;
}

struct RunOutcome {
  EvmStatus status;
  int64_t gas_left;
  Bytes output;
  uint64_t state_digest;
  uint64_t instructions;
  std::string log;
};

RunOutcome RunWith(const Bytes& code, uint64_t data_seed, CodeProvider* provider,
                   bool with_log) {
  WorldState world;
  world.SetCode(kSelf, code);
  world.SetBalance(kSelf, U256(1'000'000));
  world.SetStorage(kSelf, U256(0), U256(42));
  StateView view(world);
  StateViewHost host(view);
  BlockContext block;
  TxContext tx{kCaller, U256(1)};
  SsaBuilder builder;
  Interpreter interp(host, block, tx, with_log ? &builder : nullptr, provider);
  Message msg;
  msg.code_address = kSelf;
  msg.storage_address = kSelf;
  msg.caller = kCaller;
  msg.gas = 200'000;
  std::mt19937_64 rng(data_seed);
  msg.data.resize(rng() % 68);
  for (auto& b : msg.data) {
    b = static_cast<uint8_t>(rng() & 0xff);
  }
  EvmResult r = interp.Execute(msg);
  RunOutcome out;
  out.status = r.status;
  out.gas_left = r.gas_left;
  out.output = std::move(r.output);
  WorldState post = world;
  post.Apply(view.write_set());
  out.state_digest = post.Digest();
  out.instructions = interp.stats().instructions;
  out.log = FormatOpLog(builder.TakeLog());
  return out;
}

// A cached analysis must be invisible: status, gas, output, state, the
// instruction count and the SSA log all match the provider-less interpreter
// on arbitrary bytecode (truncated PUSHes and bad jumps included), with and
// without the SSA builder.
TEST(CodeCacheTest, RandomBytecodeMatchesProviderlessExecution) {
  std::mt19937_64 rng(0xCACE);
  CodeCache cache;
  for (int i = 0; i < 600; ++i) {
    Bytes code = RandomCode(rng, 96);
    uint64_t data_seed = rng();
    bool with_log = (i % 2) == 0;
    RunOutcome cached = RunWith(code, data_seed, &cache, with_log);
    RunOutcome plain = RunWith(code, data_seed, nullptr, with_log);
    ASSERT_EQ(cached.status, plain.status) << HexEncode(code);
    ASSERT_EQ(cached.gas_left, plain.gas_left) << HexEncode(code);
    ASSERT_EQ(cached.output, plain.output) << HexEncode(code);
    ASSERT_EQ(cached.state_digest, plain.state_digest) << HexEncode(code);
    ASSERT_EQ(cached.instructions, plain.instructions) << HexEncode(code);
    ASSERT_EQ(cached.log, plain.log) << HexEncode(code);
  }
}

// --- Executor-level differential battery. ----------------------------------

struct StreamResult {
  std::string root;
  std::vector<BlockReport> reports;
};

class CodeCacheDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadConfig config;
    config.seed = 0xCC5;
    config.transactions_per_block = 120;
    config.users = 800;
    config.tokens = 6;
    config.pools = 3;
    gen_.emplace(config);
    genesis_ = gen_->MakeGenesis();
    blocks_.push_back(gen_->MakeHotContractBlock(120));
    blocks_.push_back(gen_->MakeBlock());
  }

  static ExecOptions Options(int os_threads) {
    ExecOptions options;
    options.threads = 8;
    options.os_threads = os_threads;
    return options;
  }

  StreamResult Run(int os_threads) {
    WorldState state = genesis_;
    ParallelEvmExecutor executor(Options(os_threads));
    StreamResult result;
    for (const Block& block : blocks_) {
      result.reports.push_back(executor.Execute(block, state));
    }
    result.root = HexEncode(state.StateRoot());
    return result;
  }

  static void ExpectDeterministicFieldsEqual(const BlockReport& a, const BlockReport& b) {
    EXPECT_EQ(a.makespan_ns, b.makespan_ns);
    EXPECT_EQ(a.conflicts, b.conflicts);
    EXPECT_EQ(a.redo_success, b.redo_success);
    EXPECT_EQ(a.redo_fail, b.redo_fail);
    EXPECT_EQ(a.full_reexecutions, b.full_reexecutions);
    EXPECT_EQ(a.redo_entries_reexecuted, b.redo_entries_reexecuted);
    EXPECT_EQ(a.redo_ns, b.redo_ns);
    EXPECT_EQ(a.oplog_entries, b.oplog_entries);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.conflict_keys, b.conflict_keys);
    EXPECT_EQ(a.receipts, b.receipts);
  }

  static void ExpectSameSpeculation(const Speculation& a, const Speculation& b) {
    EXPECT_EQ(a.receipt, b.receipt);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.log.redoable, b.log.redoable);
    EXPECT_EQ(FormatOpLog(a.log), FormatOpLog(b.log));
  }

  std::optional<WorkloadGenerator> gen_;
  WorldState genesis_;
  std::vector<Block> blocks_;
};

// Every transaction of the stream speculates to the same record — receipt,
// read and write sets, SSA log — whether its frames take their JUMPDEST
// bitmaps from a memoization-free provider, a cold cache, the warm shared
// cache, or their own scan; and ParallelEVM on the shared cache reports
// bit-identical deterministic fields at every OS-thread count. This is the
// §4.6 inertness claim: cache residency cannot leak into results. Over the
// stream each distinct code hash is analyzed exactly once.
TEST_F(CodeCacheDifferentialTest, CacheModeAndWarmthAreInvisibleInResults) {
  const CodeCache::Stats shared_before = SharedCodeCache().GetStats();
  StreamResult base = Run(/*os_threads=*/1);
  for (int os_threads : {4, 16}) {
    SCOPED_TRACE(testing::Message() << "os_threads=" << os_threads);
    StreamResult other = Run(os_threads);
    EXPECT_EQ(base.root, other.root);
    ASSERT_EQ(base.reports.size(), other.reports.size());
    for (size_t b = 0; b < base.reports.size(); ++b) {
      SCOPED_TRACE(testing::Message() << "block=" << b);
      ExpectDeterministicFieldsEqual(base.reports[b], other.reports[b]);
    }
  }

  UncachedCodeProvider uncached;
  CodeCache cold;
  WorldState state = genesis_;
  ParallelEvmExecutor executor(Options(/*os_threads=*/4));
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const Block& block = blocks_[b];
    for (size_t i = 0; i < block.transactions.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "block=" << b << " tx=" << i);
      const Transaction& tx = block.transactions[i];
      Speculation reference = SpeculateTransaction(state, block.context, tx, /*with_log=*/true,
                                                   nullptr, &uncached);
      for (CodeProvider* provider : {static_cast<CodeProvider*>(&cold),
                                     static_cast<CodeProvider*>(&SharedCodeCache()),
                                     static_cast<CodeProvider*>(nullptr)}) {
        ExpectSameSpeculation(reference, SpeculateTransaction(state, block.context, tx,
                                                              /*with_log=*/true, nullptr,
                                                              provider));
      }
    }
    executor.Execute(block, state);
  }
  EXPECT_EQ(HexEncode(state.StateRoot()), base.root);

  // A cache that saw exactly the reference's lookups analyzed each distinct
  // code hash once and answered every other lookup from memory.
  ASSERT_FALSE(uncached.codes().empty());
  const CodeCache::Stats cold_stats = cold.GetStats();
  EXPECT_EQ(cold_stats.misses, uncached.codes().size());
  EXPECT_EQ(cold_stats.entries, uncached.codes().size());
  EXPECT_EQ(cold_stats.hits + cold_stats.misses, uncached.calls());
  // The shared cache, which the executors used throughout: every hash that
  // became resident was analyzed once, and every code the stream ran is
  // resident.
  const CodeCache::Stats shared_after = SharedCodeCache().GetStats();
  EXPECT_EQ(shared_after.misses - shared_before.misses,
            shared_after.entries - shared_before.entries);
  for (const auto& [hash, code] : uncached.codes()) {
    SharedCodeCache().Analyze(code, &hash);
  }
  EXPECT_EQ(SharedCodeCache().GetStats().misses, shared_after.misses);
}

// The serial oracle agrees with cached parallel execution, closing the loop
// against an executor that never builds logs at all.
TEST_F(CodeCacheDifferentialTest, CachedParallelMatchesSerialOracle) {
  WorldState serial_state = genesis_;
  SerialExecutor serial(Options(/*os_threads=*/1));
  for (const Block& block : blocks_) {
    serial.Execute(block, serial_state);
  }
  EXPECT_EQ(Run(/*os_threads=*/4).root, HexEncode(serial_state.StateRoot()));
}

}  // namespace
}  // namespace pevm
