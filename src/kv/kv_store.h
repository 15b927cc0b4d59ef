// KvStore: a durable embedded key-value store in the bitcask/WAL family,
// built for the chain runner's committer stage (src/chain).
//
// Shape:
//   - Append-only segment files ("000001.seg", ...) of CRC-framed records
//     (src/kv/record.h). The newest segment is the active write head; older
//     segments are sealed and immutable.
//   - An in-memory hash index (key -> segment/offset/length) rebuilt by
//     scanning the segments on Open, so Get is one pread (or a cache hit).
//   - A write-ahead commit protocol: a WriteBatch is appended as its records
//     plus one commit marker, then made durable with a single fdatasync —
//     group commit: concurrent committers whose records were covered by
//     another thread's fsync skip their own. A batch is atomic: recovery
//     applies records only up to the last valid commit marker and truncates
//     the file at the first torn or CRC-corrupt record, so a crash mid-batch
//     (or mid-fsync) rolls the whole batch back.
//   - Background compaction: when a sealed segment's dead-byte ratio passes
//     the threshold, its live records are re-appended at the log head (under
//     the writer lock, so log order stays the correctness order) and the file
//     is unlinked. Only the oldest sealed segment is ever compacted, which
//     keeps tombstone semantics trivially correct: a tombstone can only
//     shadow records in *earlier* segments, and the oldest segment has none.
//   - A sharded LRU read cache (byte-budgeted) in front of the preads,
//     kept write-through coherent by Commit.
//
// Thread safety: all public methods are thread-safe. Writers (Commit,
// compaction, rotation) serialize on writer_mu_ and update the index while
// holding it, so append order in the log always equals index update order —
// the invariant recovery's in-order replay depends on. Readers take only the
// index mutex (then pread immutable bytes via a shared_ptr'd fd, so
// compaction can unlink a segment out from under them safely).
#ifndef SRC_KV_KV_STORE_H_
#define SRC_KV_KV_STORE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/kv/record.h"
#include "src/support/bytes.h"

namespace pevm {

struct KvOptions {
  // Durability: fdatasync the active segment after every commit marker (and
  // after compaction rewrites, before the victim is unlinked). Off = the OS
  // page cache decides; the commit protocol and recovery stay identical, only
  // the crash window widens.
  bool fsync = true;
  // Active segment seals and rotates once it holds at least this many bytes.
  size_t segment_bytes = 4u << 20;
  // Total byte budget of the sharded read cache (0 disables it).
  size_t cache_bytes = 8u << 20;
  // Background compaction thread: scans for garbage-heavy sealed segments.
  bool background_compaction = true;
  // A sealed segment is compacted once dead bytes / file bytes passes this.
  double compact_garbage_ratio = 0.5;
  // How long the compaction thread sleeps between scans.
  uint64_t compaction_interval_ms = 100;
  // Live records re-appended per writer-lock hold during compaction (bounds
  // the commit stall a compaction chunk can cause).
  size_t compaction_chunk = 256;
};

// Point-in-time counters (informational; monotonic except live_* / segments).
struct KvStats {
  uint64_t commits = 0;
  uint64_t bytes_appended = 0;   // Framed record bytes, commits + compaction.
  uint64_t fsyncs = 0;
  uint64_t reads = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t compactions = 0;
  uint64_t compacted_bytes_reclaimed = 0;  // Victim file bytes unlinked.
  uint64_t recovered_batches = 0;  // Commit markers replayed at Open.
  uint64_t truncated_bytes = 0;    // Torn/uncommitted tail bytes dropped at Open.
  uint64_t dropped_segments = 0;   // Segments after a corrupt one, dropped at Open.
  size_t live_keys = 0;
  size_t segments = 0;
};

// What one Commit call did (feeds the chain runner's per-block durability
// accounting).
struct KvCommitResult {
  uint64_t bytes_appended = 0;
  bool fsynced = false;      // False when another committer's fsync covered us.
  uint64_t sync_ns = 0;      // Wall time spent waiting on fdatasync.
};

class KvStore {
 public:
  // Opens (creating the directory if needed) and recovers the store: scans
  // every segment in id order, applies committed batches to the index,
  // truncates the first torn/corrupt record and drops any later segments.
  // Returns nullptr (and sets *error) on unrecoverable problems: unreadable
  // directory, or a corrupt segment *header* anywhere but the tail.
  static std::unique_ptr<KvStore> Open(const std::string& dir, const KvOptions& options = {},
                                       std::string* error = nullptr);

  ~KvStore();
  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  // Atomically applies `batch` (later ops on a key win) and appends it to the
  // log under one commit marker; one fdatasync when options.fsync (shared
  // with concurrent committers — group commit).
  KvCommitResult Commit(const WriteBatch& batch);

  // Latest committed value, or nullopt. One cache probe, at most one pread.
  std::optional<Bytes> Get(std::string_view key);

  // Whether the key is live. Index probe only — no pread, no cache traffic —
  // so callers with content-addressed keys (the chain's trie-node archive)
  // can cheaply skip re-appending records that are already in the log.
  bool Contains(std::string_view key) const;

  // Calls fn(key, value) for every live key with the given prefix. The
  // key set is snapshotted under the index lock; values are read without it,
  // so concurrent writers make the result a weakly consistent snapshot.
  // Intended for single-threaded recovery scans (src/chain/node_store.cc).
  void ScanPrefix(std::string_view prefix,
                  const std::function<void(std::string_view, BytesView)>& fn);

  // Compacts the oldest sealed segment now (ignoring the garbage threshold
  // when force); returns whether a segment was rewritten. Also the body the
  // background thread runs with force=false.
  bool CompactOldest(bool force);

  // fdatasyncs the active segment (tests; Commit already syncs when enabled).
  void SyncNow();

  size_t key_count() const;
  KvStats stats() const;
  const KvOptions& options() const { return options_; }
  const std::string& dir() const { return dir_; }

  // Absolute paths of the current segment files, oldest first (crash-injection
  // tests truncate/corrupt the last one between sessions).
  std::vector<std::string> SegmentPaths() const;

 private:
  struct Segment {
    uint32_t id = 0;
    std::string path;
    int fd = -1;
    uint64_t size = 0;        // Committed bytes (header included).
    uint64_t dead_bytes = 0;  // Framed bytes superseded by newer writes.
    bool sealed = false;
    ~Segment();
  };

  struct ValueLoc {
    uint32_t segment_id = 0;
    uint32_t value_size = 0;
    uint64_t value_offset = 0;  // Of the value bytes within the file.
    uint32_t record_bytes = 0;  // Full framed record size (dead-byte math).
  };

  struct CacheShard {
    mutable std::mutex mu;
    std::list<std::pair<std::string, Bytes>> lru;  // Front = most recent.
    std::unordered_map<std::string_view, std::list<std::pair<std::string, Bytes>>::iterator>
        entries;
    size_t bytes = 0;
  };

  KvStore(std::string dir, const KvOptions& options);

  bool Recover(std::string* error);
  bool ReplaySegment(const std::shared_ptr<Segment>& segment, Bytes&& content,
                     bool* stop_after, std::string* error);
  std::shared_ptr<Segment> CreateSegment(uint32_t id);
  // Appends `blob` to the active segment and bumps counters. writer_mu_ held.
  void AppendLocked(BytesView blob);
  // Seals the active segment and opens the next when the size cap is hit.
  void MaybeRotateLocked();
  // Applies one op's new location (or erasure) to the index and dead-byte
  // accounting. writer_mu_ held; takes index_mu_ internally.
  void IndexPut(const std::string& key, const ValueLoc& loc);
  void IndexDelete(const std::string& key, uint32_t tombstone_bytes);

  void CacheInsert(std::string_view key, BytesView value);
  void CacheErase(std::string_view key);
  bool CacheGet(std::string_view key, Bytes* value);
  CacheShard& ShardFor(std::string_view key);

  void CompactionLoop();
  // One fdatasync of the active fd covering at least up to `target_total`
  // appended bytes; skipped if another thread already synced past it.
  uint64_t SyncUpTo(uint64_t target_total, bool* did_sync);

  const std::string dir_;
  const KvOptions options_;

  // Serializes every log append + the index update that publishes it.
  std::mutex writer_mu_;
  // Guards index_ and segments_. Nested inside writer_mu_ by writers; taken
  // alone by readers. A reader's cache fill nests a cache shard's mutex
  // inside it; nothing takes the two the other way round.
  mutable std::mutex index_mu_;
  std::unordered_map<std::string, ValueLoc> index_;
  std::map<uint32_t, std::shared_ptr<Segment>> segments_;  // Ordered by id.
  std::shared_ptr<Segment> active_;
  uint64_t next_sequence_ = 1;

  // Group-commit bookkeeping: total bytes ever appended vs. made durable.
  uint64_t appended_total_ = 0;  // Under writer_mu_.
  std::mutex sync_mu_;
  uint64_t durable_total_ = 0;  // Under sync_mu_.

  static constexpr size_t kCacheShards = 8;
  std::vector<CacheShard> cache_shards_;

  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> bytes_appended_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> compacted_reclaimed_{0};
  uint64_t recovered_batches_ = 0;
  uint64_t truncated_bytes_ = 0;
  uint64_t dropped_segments_ = 0;

  std::mutex compact_mu_;
  std::condition_variable compact_cv_;
  bool stop_compaction_ = false;
  std::thread compaction_thread_;  // Started at the end of Open.
};

}  // namespace pevm

#endif  // SRC_KV_KV_STORE_H_
