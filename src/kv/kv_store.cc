#include "src/kv/kv_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace pevm {
namespace {

namespace fs = std::filesystem;

[[noreturn]] void FatalIo(const char* what, const std::string& path) {
  std::fprintf(stderr, "kv: fatal I/O error: %s (%s): %s\n", what, path.c_str(),
               std::strerror(errno));
  std::abort();
}

std::string SegmentPathFor(const std::string& dir, uint32_t id) {
  char name[32];
  std::snprintf(name, sizeof(name), "%06u.seg", id);
  return dir + "/" + name;
}

// Durability of directory entries: a freshly created (or unlinked) segment
// file must survive a crash, not just its contents.
void SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace

KvStore::Segment::~Segment() {
  if (fd >= 0) {
    ::close(fd);
  }
}

KvStore::KvStore(std::string dir, const KvOptions& options)
    : dir_(std::move(dir)), options_(options), cache_shards_(kCacheShards) {}

std::unique_ptr<KvStore> KvStore::Open(const std::string& dir, const KvOptions& options,
                                       std::string* error) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create directory " + dir + ": " + ec.message();
    }
    return nullptr;
  }
  std::unique_ptr<KvStore> store(new KvStore(dir, options));
  std::string local_error;
  if (!store->Recover(&local_error)) {
    if (error != nullptr) {
      *error = local_error;
    }
    return nullptr;
  }
  if (store->options_.background_compaction) {
    store->compaction_thread_ = std::thread(&KvStore::CompactionLoop, store.get());
  }
  return store;
}

KvStore::~KvStore() {
  if (compaction_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(compact_mu_);
      stop_compaction_ = true;
    }
    compact_cv_.notify_all();
    compaction_thread_.join();
  }
}

std::shared_ptr<KvStore::Segment> KvStore::CreateSegment(uint32_t id) {
  auto segment = std::make_shared<Segment>();
  segment->id = id;
  segment->path = SegmentPathFor(dir_, id);
  segment->fd = ::open(segment->path.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
  if (segment->fd < 0) {
    FatalIo("open segment", segment->path);
  }
  Bytes header;
  AppendU32(header, kSegmentMagic);
  AppendU32(header, id);
  if (::pwrite(segment->fd, header.data(), header.size(), 0) !=
      static_cast<ssize_t>(header.size())) {
    FatalIo("write segment header", segment->path);
  }
  segment->size = kSegmentHeaderSize;
  if (options_.fsync) {
    SyncDir(dir_);
  }
  return segment;
}

bool KvStore::ReplaySegment(const std::shared_ptr<Segment>& segment, Bytes&& content,
                            bool* stop_after, std::string* error) {
  struct PendingOp {
    bool is_delete = false;
    std::string key;
    ValueLoc loc;
    uint32_t record_bytes = 0;
  };
  std::vector<PendingOp> pending;
  size_t offset = kSegmentHeaderSize;
  size_t committed_end = kSegmentHeaderSize;
  bool truncate_here = false;

  while (true) {
    size_t record_at = offset;
    Record record;
    DecodeStatus status = DecodeRecord(content, &offset, &record);
    if (status == DecodeStatus::kEndOfBuffer) {
      // Clean end — but uncommitted trailing records (no marker) still roll
      // back, exactly as a torn tail would.
      truncate_here = !pending.empty();
      break;
    }
    if (status != DecodeStatus::kOk) {
      truncate_here = true;
      break;
    }
    switch (record.type) {
      case RecordType::kPut: {
        PendingOp op;
        op.key.assign(record.key);
        op.loc.segment_id = segment->id;
        op.loc.value_size = static_cast<uint32_t>(record.value.size());
        op.loc.value_offset =
            static_cast<uint64_t>(record.value.data() - content.data());
        op.loc.record_bytes = static_cast<uint32_t>(offset - record_at);
        op.record_bytes = op.loc.record_bytes;
        pending.push_back(std::move(op));
        break;
      }
      case RecordType::kDelete: {
        PendingOp op;
        op.is_delete = true;
        op.key.assign(record.key);
        op.record_bytes = static_cast<uint32_t>(offset - record_at);
        pending.push_back(std::move(op));
        break;
      }
      case RecordType::kCommit: {
        for (const PendingOp& op : pending) {
          if (op.is_delete) {
            IndexDelete(op.key, op.record_bytes);
          } else {
            IndexPut(op.key, op.loc);
          }
        }
        pending.clear();
        next_sequence_ = std::max(next_sequence_, record.sequence + 1);
        ++recovered_batches_;
        committed_end = offset;
        break;
      }
    }
  }

  if (truncate_here) {
    truncated_bytes_ += content.size() - committed_end;
    if (::ftruncate(segment->fd, static_cast<off_t>(committed_end)) != 0) {
      if (error != nullptr) {
        *error = "cannot truncate " + segment->path + ": " + std::strerror(errno);
      }
      return false;
    }
    // Any batch in a later segment committed after the one we just lost;
    // applying it over a hole would break prefix consistency.
    *stop_after = true;
  }
  segment->size = committed_end;
  return true;
}

bool KvStore::Recover(std::string* error) {
  std::vector<std::pair<uint32_t, std::string>> files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::string name = entry.path().filename().string();
    if (name.size() != 10 || name.substr(6) != ".seg") {
      continue;
    }
    files.emplace_back(static_cast<uint32_t>(std::strtoul(name.c_str(), nullptr, 10)),
                       entry.path().string());
  }
  std::sort(files.begin(), files.end());

  bool stop_after = false;
  for (size_t i = 0; i < files.size(); ++i) {
    const auto& [id, path] = files[i];
    const bool is_last = i + 1 == files.size();
    if (stop_after) {
      // Data after a torn/corrupt segment tail: a later committed batch must
      // not survive an earlier lost one.
      ::unlink(path.c_str());
      ++dropped_segments_;
      continue;
    }
    int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0) {
      if (error != nullptr) {
        *error = "cannot open " + path + ": " + std::strerror(errno);
      }
      return false;
    }
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      if (error != nullptr) {
        *error = "cannot stat " + path;
      }
      return false;
    }
    Bytes content(static_cast<size_t>(st.st_size));
    if (!content.empty() &&
        ::pread(fd, content.data(), content.size(), 0) != static_cast<ssize_t>(content.size())) {
      ::close(fd);
      if (error != nullptr) {
        *error = "cannot read " + path;
      }
      return false;
    }
    bool bad_header =
        content.size() < kSegmentHeaderSize || ReadU32(content.data()) != kSegmentMagic ||
        ReadU32(content.data() + 4) != id;
    if (bad_header) {
      ::close(fd);
      if (is_last) {
        // A crash can tear the newest segment's header (created, never
        // synced). It can hold no committed data, so drop it.
        ::unlink(path.c_str());
        ++dropped_segments_;
        continue;
      }
      if (error != nullptr) {
        *error = "corrupt segment header in " + path;
      }
      return false;
    }
    auto segment = std::make_shared<Segment>();
    segment->id = id;
    segment->path = path;
    segment->fd = fd;
    if (!ReplaySegment(segment, std::move(content), &stop_after, error)) {
      return false;
    }
    segments_[id] = segment;
  }

  if (segments_.empty()) {
    active_ = CreateSegment(1);
    segments_[active_->id] = active_;
  } else {
    active_ = segments_.rbegin()->second;
    for (auto& [id, segment] : segments_) {
      segment->sealed = segment != active_;
    }
  }
  return true;
}

void KvStore::AppendLocked(BytesView blob) {
  if (::pwrite(active_->fd, blob.data(), blob.size(), static_cast<off_t>(active_->size)) !=
      static_cast<ssize_t>(blob.size())) {
    FatalIo("append", active_->path);
  }
  active_->size += blob.size();
  appended_total_ += blob.size();
  bytes_appended_.fetch_add(blob.size(), std::memory_order_relaxed);
}

void KvStore::MaybeRotateLocked() {
  if (active_->size < options_.segment_bytes) {
    return;
  }
  if (options_.fsync) {
    if (::fdatasync(active_->fd) != 0) {
      FatalIo("fdatasync on seal", active_->path);
    }
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> sync_lock(sync_mu_);
    durable_total_ = std::max(durable_total_, appended_total_);
  }
  std::shared_ptr<Segment> next = CreateSegment(active_->id + 1);
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    active_->sealed = true;
    segments_[next->id] = next;
  }
  active_ = next;
}

void KvStore::IndexPut(const std::string& key, const ValueLoc& loc) {
  std::lock_guard<std::mutex> lock(index_mu_);
  auto [it, inserted] = index_.try_emplace(key, loc);
  if (!inserted) {
    auto seg = segments_.find(it->second.segment_id);
    if (seg != segments_.end()) {
      seg->second->dead_bytes += it->second.record_bytes;
    }
    it->second = loc;
  }
}

void KvStore::IndexDelete(const std::string& key, uint32_t tombstone_bytes) {
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    auto seg = segments_.find(it->second.segment_id);
    if (seg != segments_.end()) {
      seg->second->dead_bytes += it->second.record_bytes;
    }
    index_.erase(it);
  }
  // The tombstone itself is garbage the moment it is applied: replay only
  // needs it while an older segment may hold the key, and compaction is
  // oldest-first.
  if (active_ != nullptr) {
    active_->dead_bytes += tombstone_bytes;
  }
}

KvStore::CacheShard& KvStore::ShardFor(std::string_view key) {
  return cache_shards_[std::hash<std::string_view>{}(key) % kCacheShards];
}

void KvStore::CacheInsert(std::string_view key, BytesView value) {
  if (options_.cache_bytes == 0) {
    return;
  }
  const size_t budget = options_.cache_bytes / kCacheShards;
  CacheShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    shard.bytes -= it->second->second.size();
    it->second->second.assign(value.begin(), value.end());
    shard.bytes += value.size();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.emplace_front(std::string(key), Bytes(value.begin(), value.end()));
    shard.entries.emplace(std::string_view(shard.lru.front().first), shard.lru.begin());
    shard.bytes += key.size() + value.size();
  }
  while (shard.bytes > budget && !shard.lru.empty()) {
    auto& back = shard.lru.back();
    shard.bytes -= back.first.size() + back.second.size();
    shard.entries.erase(std::string_view(back.first));
    shard.lru.pop_back();
  }
}

void KvStore::CacheErase(std::string_view key) {
  if (options_.cache_bytes == 0) {
    return;
  }
  CacheShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    shard.bytes -= it->second->first.size() + it->second->second.size();
    shard.lru.erase(it->second);
    shard.entries.erase(it);
  }
}

bool KvStore::CacheGet(std::string_view key, Bytes* value) {
  if (options_.cache_bytes == 0) {
    return false;
  }
  CacheShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    return false;
  }
  *value = it->second->second;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return true;
}

uint64_t KvStore::SyncUpTo(uint64_t target_total, bool* did_sync) {
  std::shared_ptr<Segment> segment;
  {
    // The fd to sync is whatever segment is active *now*; bytes this commit
    // appended to a since-rotated segment were synced during rotation.
    std::lock_guard<std::mutex> lock(index_mu_);
    segment = active_;
  }
  uint64_t start = NowNs();
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    if (durable_total_ >= target_total) {
      *did_sync = false;  // A concurrent committer's fsync already covered us.
      return NowNs() - start;
    }
    {
      PEVM_TRACE_SPAN("kv.fsync");
      if (::fdatasync(segment->fd) != 0) {
        FatalIo("fdatasync", segment->path);
      }
    }
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    durable_total_ = std::max(durable_total_, target_total);
  }
  *did_sync = true;
  uint64_t elapsed = NowNs() - start;
  static auto& fsync_hist = telemetry::GetHistogram("kv.fsync_ns");
  fsync_hist.Observe(elapsed);
  return elapsed;
}

KvCommitResult KvStore::Commit(const WriteBatch& batch) {
  KvCommitResult result;
  if (batch.empty()) {
    return result;
  }
  struct PendingIndexOp {
    const WriteBatch::Op* op;
    ValueLoc loc;
    uint32_t record_bytes = 0;
  };
  uint64_t my_total = 0;
  {
    PEVM_TRACE_SPAN_ARG("kv.append", "ops", batch.ops().size());
    std::lock_guard<std::mutex> lock(writer_mu_);
    MaybeRotateLocked();
    Bytes blob;
    std::vector<PendingIndexOp> pending;
    pending.reserve(batch.ops().size());
    for (const WriteBatch::Op& op : batch.ops()) {
      size_t record_at = blob.size();
      PendingIndexOp p;
      p.op = &op;
      if (op.is_delete) {
        AppendDeleteRecord(blob, op.key);
      } else {
        AppendPutRecord(blob, op.key, BytesView(op.value.data(), op.value.size()));
        p.loc.value_size = static_cast<uint32_t>(op.value.size());
        // Value bytes sit at the end of the framed record.
        p.loc.value_offset = blob.size() - op.value.size();  // Blob-relative for now.
      }
      p.record_bytes = static_cast<uint32_t>(blob.size() - record_at);
      p.loc.record_bytes = p.record_bytes;
      pending.push_back(p);
    }
    AppendCommitRecord(blob, next_sequence_++);
    const uint64_t base = active_->size;
    AppendLocked(blob);
    for (PendingIndexOp& p : pending) {
      if (p.op->is_delete) {
        IndexDelete(p.op->key, p.record_bytes);
        CacheErase(p.op->key);
      } else {
        p.loc.segment_id = active_->id;
        p.loc.value_offset += base;
        IndexPut(p.op->key, p.loc);
        CacheInsert(p.op->key, BytesView(p.op->value.data(), p.op->value.size()));
      }
    }
    result.bytes_appended = blob.size();
    my_total = appended_total_;
  }
  static auto& batch_hist = telemetry::GetHistogram("kv.batch_bytes");
  batch_hist.Observe(result.bytes_appended);
  commits_.fetch_add(1, std::memory_order_relaxed);
  if (options_.fsync) {
    result.sync_ns = SyncUpTo(my_total, &result.fsynced);
  }
  compact_cv_.notify_one();
  return result;
}

bool KvStore::Contains(std::string_view key) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return index_.find(std::string(key)) != index_.end();
}

std::optional<Bytes> KvStore::Get(std::string_view key) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  Bytes cached;
  if (CacheGet(key, &cached)) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return cached;
  }
  ValueLoc loc;
  std::shared_ptr<Segment> segment;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    auto it = index_.find(std::string(key));
    if (it == index_.end()) {
      return std::nullopt;
    }
    loc = it->second;
    segment = segments_.at(loc.segment_id);
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  Bytes value(loc.value_size);
  if (loc.value_size > 0 &&
      ::pread(segment->fd, value.data(), value.size(), static_cast<off_t>(loc.value_offset)) !=
          static_cast<ssize_t>(value.size())) {
    FatalIo("pread", segment->path);
  }
  {
    // Fill the cache only if the index still maps the key to the location
    // just read. A Commit in between has already cached the newer value,
    // which this one must not overwrite; holding index_mu_ across the check
    // and the insert orders the fill before any later IndexPut.
    std::lock_guard<std::mutex> lock(index_mu_);
    auto it = index_.find(std::string(key));
    if (it != index_.end() && it->second.segment_id == loc.segment_id &&
        it->second.value_offset == loc.value_offset) {
      CacheInsert(key, BytesView(value.data(), value.size()));
    }
  }
  return value;
}

void KvStore::ScanPrefix(std::string_view prefix,
                         const std::function<void(std::string_view, BytesView)>& fn) {
  struct Hit {
    std::string key;
    ValueLoc loc;
    std::shared_ptr<Segment> segment;
  };
  std::vector<Hit> hits;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    for (const auto& [key, loc] : index_) {
      if (key.size() >= prefix.size() && std::string_view(key).substr(0, prefix.size()) == prefix) {
        hits.push_back({key, loc, segments_.at(loc.segment_id)});
      }
    }
  }
  Bytes value;
  for (const Hit& hit : hits) {
    value.resize(hit.loc.value_size);
    if (hit.loc.value_size > 0 &&
        ::pread(hit.segment->fd, value.data(), value.size(),
                static_cast<off_t>(hit.loc.value_offset)) != static_cast<ssize_t>(value.size())) {
      FatalIo("pread", hit.segment->path);
    }
    fn(hit.key, BytesView(value.data(), value.size()));
  }
}

bool KvStore::CompactOldest(bool force) {
  std::shared_ptr<Segment> victim;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    for (const auto& [id, segment] : segments_) {
      if (segment->sealed) {
        victim = segment;
        break;
      }
    }
    if (victim == nullptr) {
      return false;
    }
    double ratio = victim->size <= kSegmentHeaderSize
                       ? 1.0
                       : static_cast<double>(victim->dead_bytes) /
                             static_cast<double>(victim->size - kSegmentHeaderSize);
    if (!force && ratio < options_.compact_garbage_ratio) {
      return false;
    }
  }

  // From here on a victim is selected: the span covers the actual compaction
  // pass, not the no-op garbage-ratio polls.
  PEVM_TRACE_SPAN("kv.compact");
  std::vector<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    for (const auto& [key, loc] : index_) {
      if (loc.segment_id == victim->id) {
        keys.push_back(key);
      }
    }
  }

  const size_t chunk_size = std::max<size_t>(options_.compaction_chunk, 1);
  uint64_t my_total = 0;
  for (size_t begin = 0; begin < keys.size(); begin += chunk_size) {
    const size_t end = std::min(begin + chunk_size, keys.size());
    std::lock_guard<std::mutex> lock(writer_mu_);
    MaybeRotateLocked();
    // Re-validate under the writer lock: anything overwritten since the key
    // list was gathered is garbage in the victim already.
    struct Live {
      const std::string* key;
      ValueLoc loc;
    };
    std::vector<Live> live;
    {
      std::lock_guard<std::mutex> index_lock(index_mu_);
      for (size_t i = begin; i < end; ++i) {
        auto it = index_.find(keys[i]);
        if (it != index_.end() && it->second.segment_id == victim->id) {
          live.push_back({&keys[i], it->second});
        }
      }
    }
    if (live.empty()) {
      continue;
    }
    Bytes blob;
    std::vector<ValueLoc> new_locs(live.size());
    Bytes value;
    for (size_t i = 0; i < live.size(); ++i) {
      value.resize(live[i].loc.value_size);
      if (live[i].loc.value_size > 0 &&
          ::pread(victim->fd, value.data(), value.size(),
                  static_cast<off_t>(live[i].loc.value_offset)) !=
              static_cast<ssize_t>(value.size())) {
        FatalIo("compaction pread", victim->path);
      }
      size_t record_at = blob.size();
      AppendPutRecord(blob, *live[i].key, BytesView(value.data(), value.size()));
      new_locs[i].value_size = live[i].loc.value_size;
      new_locs[i].value_offset = blob.size() - value.size();
      new_locs[i].record_bytes = static_cast<uint32_t>(blob.size() - record_at);
    }
    AppendCommitRecord(blob, next_sequence_++);
    const uint64_t base = active_->size;
    AppendLocked(blob);
    for (size_t i = 0; i < live.size(); ++i) {
      new_locs[i].segment_id = active_->id;
      new_locs[i].value_offset += base;
      IndexPut(*live[i].key, new_locs[i]);
    }
    my_total = appended_total_;
  }

  // The rewrites must be durable before the victim disappears, or a crash in
  // between would lose its live records.
  if (options_.fsync && my_total != 0) {
    bool did_sync = false;
    SyncUpTo(my_total, &did_sync);
  }
  uint64_t reclaimed;
  {
    std::lock_guard<std::mutex> writer_lock(writer_mu_);
    std::lock_guard<std::mutex> lock(index_mu_);
    reclaimed = victim->size;
    segments_.erase(victim->id);
  }
  ::unlink(victim->path.c_str());
  if (options_.fsync) {
    SyncDir(dir_);
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  compacted_reclaimed_.fetch_add(reclaimed, std::memory_order_relaxed);
  PEVM_TRACE_INSTANT_ARG("kv.compacted", "reclaimed_bytes", reclaimed);
  return true;
}

void KvStore::SyncNow() {
  uint64_t my_total;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    my_total = appended_total_;
  }
  bool did_sync = false;
  SyncUpTo(my_total, &did_sync);
}

void KvStore::CompactionLoop() {
  PEVM_TRACE_THREAD_NAME("kv-compact");
  std::unique_lock<std::mutex> lock(compact_mu_);
  while (!stop_compaction_) {
    compact_cv_.wait_for(lock, std::chrono::milliseconds(options_.compaction_interval_ms));
    if (stop_compaction_) {
      break;
    }
    lock.unlock();
    while (CompactOldest(/*force=*/false)) {
    }
    lock.lock();
  }
}

size_t KvStore::key_count() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return index_.size();
}

KvStats KvStore::stats() const {
  KvStats s;
  s.commits = commits_.load(std::memory_order_relaxed);
  s.bytes_appended = bytes_appended_.load(std::memory_order_relaxed);
  s.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  s.reads = reads_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.compacted_bytes_reclaimed = compacted_reclaimed_.load(std::memory_order_relaxed);
  s.recovered_batches = recovered_batches_;
  s.truncated_bytes = truncated_bytes_;
  s.dropped_segments = dropped_segments_;
  std::lock_guard<std::mutex> lock(index_mu_);
  s.live_keys = index_.size();
  s.segments = segments_.size();
  return s;
}

std::vector<std::string> KvStore::SegmentPaths() const {
  std::vector<std::string> paths;
  std::lock_guard<std::mutex> lock(index_mu_);
  for (const auto& [id, segment] : segments_) {
    paths.push_back(segment->path);
  }
  return paths;
}

}  // namespace pevm
