// Unit + property tests for the embedded KV store (src/kv): record framing,
// batch atomicity under the commit-marker protocol, reopen persistence,
// torn-tail and corrupt-record recovery, segment rotation, compaction
// (including tombstones), the sharded read cache, and a concurrency battery
// (writer + readers + compaction) that doubles as the TSan driver.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/kv/crc32.h"
#include "src/kv/kv_store.h"
#include "src/kv/record.h"

namespace pevm {
namespace {

namespace fs = std::filesystem;

Bytes ToBytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string FromBytes(const Bytes& b) { return std::string(b.begin(), b.end()); }

class KvDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("kv_" + std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<KvStore> OpenStore(KvOptions options = {}) {
    options.fsync = false;  // Tests that exercise fsync set it explicitly.
    std::string error;
    auto store = KvStore::Open(dir_.string(), options, &error);
    EXPECT_NE(store, nullptr) << error;
    return store;
  }

  fs::path dir_;
};

using KvStoreTest = KvDirTest;
using KvRecoveryTest = KvDirTest;
using KvCompactionTest = KvDirTest;
using KvConcurrencyTest = KvDirTest;

TEST(KvCrcTest, KnownVectorAndChaining) {
  // RFC 3720 test vector: CRC-32C over 32 zero bytes.
  Bytes zeros(32, 0);
  EXPECT_EQ(Crc32c(BytesView(zeros.data(), zeros.size())), 0x8a9136aau);
  Bytes all = ToBytes("hello world");
  uint32_t whole = Crc32c(BytesView(all.data(), all.size()));
  uint32_t part = Crc32c(BytesView(all.data(), 5));
  uint32_t chained = Crc32c(BytesView(all.data() + 5, all.size() - 5), part);
  EXPECT_EQ(whole, chained);
  EXPECT_EQ(UnmaskCrc(MaskCrc(whole)), whole);
}

TEST(KvRecordTest, RoundTripAndCorruptionDetection) {
  Bytes buffer;
  AppendPutRecord(buffer, "key1", ToBytes("value1"));
  AppendDeleteRecord(buffer, "key2");
  AppendCommitRecord(buffer, 42);

  size_t offset = 0;
  Record record;
  ASSERT_EQ(DecodeRecord(buffer, &offset, &record), DecodeStatus::kOk);
  EXPECT_EQ(record.type, RecordType::kPut);
  EXPECT_EQ(record.key, "key1");
  EXPECT_EQ(FromBytes(Bytes(record.value.begin(), record.value.end())), "value1");
  ASSERT_EQ(DecodeRecord(buffer, &offset, &record), DecodeStatus::kOk);
  EXPECT_EQ(record.type, RecordType::kDelete);
  EXPECT_EQ(record.key, "key2");
  ASSERT_EQ(DecodeRecord(buffer, &offset, &record), DecodeStatus::kOk);
  EXPECT_EQ(record.type, RecordType::kCommit);
  EXPECT_EQ(record.sequence, 42u);
  EXPECT_EQ(DecodeRecord(buffer, &offset, &record), DecodeStatus::kEndOfBuffer);

  // Flip one payload byte: the CRC must catch it.
  Bytes corrupt = buffer;
  corrupt[kRecordHeaderSize + 2] ^= 0x40;
  offset = 0;
  EXPECT_EQ(DecodeRecord(corrupt, &offset, &record), DecodeStatus::kCorrupt);

  // Cut the buffer mid-record: torn.
  offset = 0;
  EXPECT_EQ(DecodeRecord(BytesView(buffer.data(), kRecordHeaderSize + 3), &offset, &record),
            DecodeStatus::kTorn);
}

TEST_F(KvStoreTest, PutGetDeleteAcrossReopen) {
  {
    auto store = OpenStore();
    WriteBatch batch;
    batch.Put("alpha", ToBytes("1"));
    batch.Put("beta", ToBytes("2"));
    KvCommitResult result = store->Commit(batch);
    EXPECT_GT(result.bytes_appended, 0u);
    EXPECT_FALSE(result.fsynced);  // fsync disabled in OpenStore.

    WriteBatch batch2;
    batch2.Put("alpha", ToBytes("one"));
    batch2.Delete("beta");
    store->Commit(batch2);

    ASSERT_TRUE(store->Get("alpha").has_value());
    EXPECT_EQ(FromBytes(*store->Get("alpha")), "one");
    EXPECT_FALSE(store->Get("beta").has_value());
    EXPECT_FALSE(store->Get("gamma").has_value());
    EXPECT_EQ(store->key_count(), 1u);
  }
  auto reopened = OpenStore();
  ASSERT_TRUE(reopened->Get("alpha").has_value());
  EXPECT_EQ(FromBytes(*reopened->Get("alpha")), "one");
  EXPECT_FALSE(reopened->Get("beta").has_value());
  EXPECT_EQ(reopened->key_count(), 1u);
  EXPECT_EQ(reopened->stats().recovered_batches, 2u);
}

TEST_F(KvStoreTest, LaterOpInBatchWins) {
  auto store = OpenStore();
  WriteBatch batch;
  batch.Put("k", ToBytes("first"));
  batch.Put("k", ToBytes("second"));
  batch.Put("gone", ToBytes("x"));
  batch.Delete("gone");
  store->Commit(batch);
  EXPECT_EQ(FromBytes(*store->Get("k")), "second");
  EXPECT_FALSE(store->Get("gone").has_value());

  auto reopened = OpenStore();
  EXPECT_EQ(FromBytes(*reopened->Get("k")), "second");
  EXPECT_FALSE(reopened->Get("gone").has_value());
}

TEST_F(KvStoreTest, ScanPrefix) {
  auto store = OpenStore();
  WriteBatch batch;
  batch.Put("a/1", ToBytes("v1"));
  batch.Put("a/2", ToBytes("v2"));
  batch.Put("b/1", ToBytes("w1"));
  store->Commit(batch);
  std::unordered_map<std::string, std::string> seen;
  store->ScanPrefix("a/", [&](std::string_view key, BytesView value) {
    seen[std::string(key)] = std::string(value.begin(), value.end());
  });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen["a/1"], "v1");
  EXPECT_EQ(seen["a/2"], "v2");
}

TEST_F(KvStoreTest, ReadCacheHitsAndCoherence) {
  KvOptions options;
  options.cache_bytes = 1 << 20;
  auto store = OpenStore(options);
  WriteBatch batch;
  batch.Put("k", ToBytes("v1"));
  store->Commit(batch);
  EXPECT_EQ(FromBytes(*store->Get("k")), "v1");  // Write-through: cache hit.
  uint64_t hits_before = store->stats().cache_hits;
  EXPECT_EQ(FromBytes(*store->Get("k")), "v1");
  EXPECT_GT(store->stats().cache_hits, hits_before);

  WriteBatch update;
  update.Put("k", ToBytes("v2"));
  store->Commit(update);
  EXPECT_EQ(FromBytes(*store->Get("k")), "v2");  // No stale cache read.

  WriteBatch del;
  del.Delete("k");
  store->Commit(del);
  EXPECT_FALSE(store->Get("k").has_value());
}

TEST_F(KvStoreTest, FsyncOncePerBatch) {
  KvOptions options;
  options.fsync = true;
  std::string error;
  auto store = KvStore::Open(dir_.string(), options, &error);
  ASSERT_NE(store, nullptr) << error;
  WriteBatch batch;
  for (int i = 0; i < 100; ++i) {
    batch.Put("key" + std::to_string(i), ToBytes("value"));
  }
  uint64_t fsyncs_before = store->stats().fsyncs;
  KvCommitResult result = store->Commit(batch);
  EXPECT_TRUE(result.fsynced);
  EXPECT_EQ(store->stats().fsyncs, fsyncs_before + 1);  // Group commit: one per batch.
}

TEST_F(KvStoreTest, SegmentRotation) {
  KvOptions options;
  options.segment_bytes = 2048;
  options.background_compaction = false;
  auto store = OpenStore(options);
  for (int i = 0; i < 64; ++i) {
    WriteBatch batch;
    batch.Put("key" + std::to_string(i), Bytes(100, static_cast<uint8_t>(i)));
    store->Commit(batch);
  }
  EXPECT_GT(store->stats().segments, 2u);
  store.reset();

  auto reopened = OpenStore(options);
  EXPECT_EQ(reopened->key_count(), 64u);
  for (int i = 0; i < 64; ++i) {
    auto value = reopened->Get("key" + std::to_string(i));
    ASSERT_TRUE(value.has_value()) << i;
    EXPECT_EQ(value->size(), 100u);
    EXPECT_EQ((*value)[0], static_cast<uint8_t>(i));
  }
}

// Returns the file the active (highest-id) segment lives in.
std::string LastSegment(KvStore& store) {
  std::vector<std::string> paths = store.SegmentPaths();
  EXPECT_FALSE(paths.empty());
  return paths.back();
}

TEST_F(KvRecoveryTest, TornTailRollsBackLastBatch) {
  std::string last;
  uintmax_t committed_size = 0;
  {
    auto store = OpenStore();
    WriteBatch keep;
    keep.Put("keep", ToBytes("durable"));
    store->Commit(keep);
    last = LastSegment(*store);
    committed_size = fs::file_size(last);
    WriteBatch lose;
    lose.Put("lose", ToBytes("torn away"));
    store->Commit(lose);
  }
  // Cut into the middle of the second batch's records: torn record.
  fs::resize_file(last, committed_size + 5);

  auto store = OpenStore();
  EXPECT_TRUE(store->Get("keep").has_value());
  EXPECT_FALSE(store->Get("lose").has_value());
  EXPECT_GT(store->stats().truncated_bytes, 0u);
  // The file was truncated back to the last commit marker.
  EXPECT_EQ(fs::file_size(last), committed_size);
}

TEST_F(KvRecoveryTest, MissingCommitMarkerRollsBackBatch) {
  std::string last;
  uintmax_t committed_size = 0;
  uintmax_t full_size = 0;
  {
    auto store = OpenStore();
    WriteBatch keep;
    keep.Put("keep", ToBytes("durable"));
    store->Commit(keep);
    last = LastSegment(*store);
    committed_size = fs::file_size(last);
    WriteBatch lose;
    lose.Put("lose1", ToBytes("a"));
    lose.Put("lose2", ToBytes("b"));
    store->Commit(lose);
    full_size = fs::file_size(last);
  }
  // Chop exactly the commit marker (17 framed bytes: 8 header + 9 payload):
  // the batch's records are intact but unsealed, so they must roll back.
  fs::resize_file(last, full_size - 17);

  auto store = OpenStore();
  EXPECT_TRUE(store->Get("keep").has_value());
  EXPECT_FALSE(store->Get("lose1").has_value());
  EXPECT_FALSE(store->Get("lose2").has_value());
  EXPECT_EQ(fs::file_size(last), committed_size);
}

TEST_F(KvRecoveryTest, CorruptRecordTruncates) {
  std::string last;
  uintmax_t committed_size = 0;
  {
    auto store = OpenStore();
    WriteBatch keep;
    keep.Put("keep", ToBytes("durable"));
    store->Commit(keep);
    last = LastSegment(*store);
    committed_size = fs::file_size(last);
    WriteBatch lose;
    lose.Put("lose", ToBytes("to be corrupted"));
    store->Commit(lose);
  }
  {
    // Flip a byte inside the second batch's payload.
    std::FILE* f = std::fopen(last.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(committed_size) + 12, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x1, f);
    std::fclose(f);
  }
  auto store = OpenStore();
  EXPECT_TRUE(store->Get("keep").has_value());
  EXPECT_FALSE(store->Get("lose").has_value());
  EXPECT_EQ(fs::file_size(last), committed_size);
}

TEST_F(KvRecoveryTest, RandomTruncationAlwaysRecoversPrefix) {
  // Property: truncating the tail segment at ANY byte yields some prefix of
  // the committed batches — never a partial batch, never out of order.
  KvOptions options;
  options.background_compaction = false;
  const int kBatches = 8;
  auto build = [&] {
    fs::remove_all(dir_);
    auto store = OpenStore(options);
    for (int b = 0; b < kBatches; ++b) {
      WriteBatch batch;
      batch.Put("count", ToBytes(std::to_string(b + 1)));
      batch.Put("key" + std::to_string(b), ToBytes("v"));
      store->Commit(batch);
    }
  };
  build();
  const std::string last = (fs::path(dir_) / "000001.seg").string();
  const uintmax_t full = fs::file_size(last);
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 24; ++trial) {
    build();
    uintmax_t cut = rng() % (full + 1);
    fs::resize_file(last, cut);
    auto store = OpenStore(options);
    auto count = store->Get("count");
    int prefix = count.has_value() ? std::stoi(FromBytes(*count)) : 0;
    EXPECT_LE(prefix, kBatches);
    for (int b = 0; b < kBatches; ++b) {
      EXPECT_EQ(store->Get("key" + std::to_string(b)).has_value(), b < prefix)
          << "cut=" << cut << " prefix=" << prefix << " b=" << b;
    }
    // Recovery truncated to a commit boundary; committing again must work and
    // survive a further reopen.
    WriteBatch batch;
    batch.Put("after", ToBytes("recovery"));
    store->Commit(batch);
    store.reset();
    auto reopened = OpenStore(options);
    EXPECT_TRUE(reopened->Get("after").has_value()) << "cut=" << cut;
  }
}

TEST_F(KvCompactionTest, ForcedCompactionPreservesContents) {
  KvOptions options;
  options.segment_bytes = 1024;
  options.background_compaction = false;
  auto store = OpenStore(options);
  // Overwrite a small key set many times: early segments become garbage.
  for (int round = 0; round < 40; ++round) {
    WriteBatch batch;
    for (int k = 0; k < 8; ++k) {
      batch.Put("key" + std::to_string(k),
                ToBytes("round" + std::to_string(round) + "k" + std::to_string(k)));
    }
    store->Commit(batch);
  }
  WriteBatch del;
  del.Delete("key7");
  store->Commit(del);

  size_t segments_before = store->stats().segments;
  ASSERT_GT(segments_before, 2u);
  int compacted = 0;
  while (store->CompactOldest(/*force=*/true)) {
    ++compacted;
    if (store->stats().segments <= 1) {
      break;
    }
  }
  EXPECT_GT(compacted, 0);
  EXPECT_GT(store->stats().compacted_bytes_reclaimed, 0u);
  EXPECT_LT(store->stats().segments, segments_before);

  for (int k = 0; k < 7; ++k) {
    auto value = store->Get("key" + std::to_string(k));
    ASSERT_TRUE(value.has_value()) << k;
    EXPECT_EQ(FromBytes(*value), "round39k" + std::to_string(k));
  }
  EXPECT_FALSE(store->Get("key7").has_value());
  store.reset();

  // Compacted image must replay identically.
  auto reopened = OpenStore(options);
  for (int k = 0; k < 7; ++k) {
    auto value = reopened->Get("key" + std::to_string(k));
    ASSERT_TRUE(value.has_value()) << k;
    EXPECT_EQ(FromBytes(*value), "round39k" + std::to_string(k));
  }
  EXPECT_FALSE(reopened->Get("key7").has_value());
}

TEST_F(KvCompactionTest, BackgroundCompactionReclaimsGarbage) {
  KvOptions options;
  options.segment_bytes = 1024;
  options.background_compaction = true;
  options.compaction_interval_ms = 1;
  options.compact_garbage_ratio = 0.3;
  auto store = OpenStore(options);
  for (int round = 0; round < 60; ++round) {
    WriteBatch batch;
    for (int k = 0; k < 8; ++k) {
      batch.Put("key" + std::to_string(k), Bytes(40, static_cast<uint8_t>(round)));
    }
    store->Commit(batch);
  }
  // The background thread should reclaim the fully dead early segments.
  for (int spin = 0; spin < 200 && store->stats().compactions == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(store->stats().compactions, 0u);
  for (int k = 0; k < 8; ++k) {
    auto value = store->Get("key" + std::to_string(k));
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ((*value)[0], 59);
  }
}

TEST_F(KvConcurrencyTest, WritersReadersAndCompactionRace) {
  // TSan driver: one committer, several readers, background compaction with
  // aggressive thresholds, small segments. Readers must always observe a
  // committed value (monotonically non-decreasing rounds per key).
  KvOptions options;
  options.segment_bytes = 4096;
  options.background_compaction = true;
  options.compaction_interval_ms = 1;
  options.compact_garbage_ratio = 0.2;
  options.cache_bytes = 1 << 16;
  auto store = OpenStore(options);

  constexpr int kKeys = 16;
  constexpr int kRounds = 120;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&store, &done, &failures, r] {
      std::mt19937_64 rng(static_cast<uint64_t>(r) + 1);
      std::vector<int> last_seen(kKeys, -1);
      while (!done.load(std::memory_order_acquire)) {
        int k = static_cast<int>(rng() % kKeys);
        auto value = store->Get("key" + std::to_string(k));
        if (value.has_value()) {
          int round = static_cast<int>((*value)[0]);
          if (round < last_seen[static_cast<size_t>(k)]) {
            failures.fetch_add(1);  // Went back in time: torn isolation.
          }
          last_seen[static_cast<size_t>(k)] = round;
        }
      }
    });
  }

  for (int round = 0; round < kRounds; ++round) {
    WriteBatch batch;
    for (int k = 0; k < kKeys; ++k) {
      batch.Put("key" + std::to_string(k), Bytes(64, static_cast<uint8_t>(round)));
    }
    store->Commit(batch);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  for (int k = 0; k < kKeys; ++k) {
    auto value = store->Get("key" + std::to_string(k));
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ((*value)[0], kRounds - 1);
  }
  store.reset();
  auto reopened = OpenStore(options);
  for (int k = 0; k < kKeys; ++k) {
    auto value = reopened->Get("key" + std::to_string(k));
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ((*value)[0], kRounds - 1);
  }
}

// A reader's cache fill must never overwrite a newer commit. Get looks the
// key up, drops the index lock, reads the value and then fills the cache; a
// Commit in that gap has already cached the newer value. With a cache of
// about one entry per shard every read of a hot key misses and races the
// writer, so an unguarded fill shows up as a key going back in time within a
// few trials.
TEST_F(KvConcurrencyTest, CacheFillNeverOverwritesANewerCommit) {
  KvOptions options;
  options.background_compaction = false;
  options.cache_bytes = 8 * 80;  // One 69-byte entry per shard.
  constexpr int kKeys = 16;
  constexpr uint32_t kRounds = 2000;
  constexpr int kReaders = 3;
  constexpr int kTrials = 20;
  auto key_of = [](int k) { return "key" + std::to_string(k); };
  int trials_going_back = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    fs::remove_all(dir_);
    auto store = OpenStore(options);
    ASSERT_NE(store, nullptr);
    std::atomic<bool> done{false};
    std::atomic<int> backwards{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        std::mt19937_64 rng(static_cast<uint64_t>(trial * kReaders + r) + 1);
        std::vector<int64_t> last_seen(kKeys, -1);
        while (!done.load(std::memory_order_acquire)) {
          int k = static_cast<int>(rng() % kKeys);
          auto value = store->Get(key_of(k));
          if (!value.has_value()) {
            continue;
          }
          uint32_t round = 0;
          std::memcpy(&round, value->data(), sizeof(round));
          if (round < last_seen[static_cast<size_t>(k)]) {
            backwards.fetch_add(1, std::memory_order_relaxed);
          }
          last_seen[static_cast<size_t>(k)] = round;
        }
      });
    }
    for (uint32_t round = 0; round < kRounds; ++round) {
      WriteBatch batch;
      Bytes value(64, 0);
      std::memcpy(value.data(), &round, sizeof(round));
      for (int k = 0; k < kKeys; ++k) {
        batch.Put(key_of(k), value);
      }
      store->Commit(batch);
    }
    done.store(true, std::memory_order_release);
    for (std::thread& t : readers) {
      t.join();
    }
    trials_going_back += backwards.load() > 0 ? 1 : 0;
    // Once the writer stops, every key reads its last round.
    for (int k = 0; k < kKeys; ++k) {
      auto value = store->Get(key_of(k));
      ASSERT_TRUE(value.has_value());
      uint32_t round = 0;
      std::memcpy(&round, value->data(), sizeof(round));
      EXPECT_EQ(round, kRounds - 1) << key_of(k) << " trial " << trial;
    }
  }
  EXPECT_EQ(trials_going_back, 0) << "of " << kTrials << " trials";
}

}  // namespace
}  // namespace pevm
