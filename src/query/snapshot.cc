#include "src/query/snapshot.h"

#include <algorithm>

#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace pevm {

U256 SnapshotHandle::Get(const StateKey& key) const {
  return registry_->ReadAt(key, block_);
}

const Bytes* SnapshotHandle::GetCode(const Address& a) const {
  // Code is immutable after genesis (SetCode asserts no diff is active), so
  // every snapshot sees the base's code — no versioning, no lock.
  return registry_->base_.GetCode(a);
}

const Hash256* SnapshotHandle::GetCodeHash(const Address& a) const {
  return registry_->base_.GetCodeHash(a);
}

void SnapshotHandle::release() {
  if (registry_ != nullptr) {
    registry_->Release(block_);
    registry_ = nullptr;
  }
}

SnapshotRegistry::SnapshotRegistry(const WorldState& base, const Hash256& base_root,
                                   uint64_t base_block, size_t retain)
    : base_(base), latest_block_(base_block), pruned_floor_(base_block) {
  retain_ = retain < 1 ? 1 : retain;
  entries_.emplace(base_block, SnapEntry{base_root, 0, false});
  stats_.published = 1;
}

void SnapshotRegistry::Publish(uint64_t block_index, const Hash256& root,
                               const StateDiff& diff) {
  PEVM_TRACE_SPAN_ARG("query.publish_snapshot", "block", block_index);
  // Append the journal's writes in order. A key written again in the same
  // block overwrites that block's version, so each chain ends in the block's
  // last write — the value a serial replay stopped after this block would
  // observe. Partition by shard first so each shard's write lock is taken
  // once.
  for (auto& part : publish_parts_) {
    part.clear();
  }
  for (const auto& write : diff) {
    publish_parts_[ShardIndex(write.first)].push_back(&write);
  }
  BlockKeys listed;
  listed.block = block_index;
  listed.keys.reserve(diff.size());
  for (size_t s = 0; s < kShards; ++s) {
    listed.start[s] = listed.keys.size();
    if (publish_parts_[s].empty()) {
      continue;
    }
    std::unique_lock<std::shared_mutex> lock(shards_[s].mu);
    for (const auto* write : publish_parts_[s]) {
      auto& chain = shards_[s].keys[write->first].chain;
      if (!chain.empty() && chain.back().first == block_index) {
        chain.back().second = write->second;
      } else {
        chain.emplace_back(block_index, write->second);
        listed.keys.push_back(write->first);
      }
    }
  }
  listed.start[kShards] = listed.keys.size();

  uint64_t floor;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    stats_.versions_appended += listed.keys.size();
    block_keys_.push_back(std::move(listed));
    entries_.emplace(block_index, SnapEntry{root, 0, false});
    latest_block_ = block_index;
    ++stats_.published;
    // Retire everything older than the retention window. Entries still
    // pinned stay in the table (they hold the floor down) but stop being
    // acquirable; unpinned ones leave immediately.
    const uint64_t oldest_retained =
        block_index >= retain_ - 1 ? block_index - (retain_ - 1) : 0;
    for (auto it = entries_.begin(); it != entries_.end() && it->first < oldest_retained;) {
      if (!it->second.retired) {
        it->second.retired = true;
        ++stats_.retired;
        if (it->second.refs > 0) {
          ++stats_.evictions_deferred;
        }
      }
      if (it->second.refs == 0) {
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    floor = FloorLocked();
  }
  PruneTo(floor);
}

SnapshotHandle SnapshotRegistry::AcquireLatest() {
  std::lock_guard<std::mutex> lock(table_mu_);
  auto it = entries_.find(latest_block_);
  ++it->second.refs;
  ++live_pins_;
  ++stats_.acquires;
  return SnapshotHandle(this, it->first, it->second.root);
}

SnapshotHandle SnapshotRegistry::AcquireAt(const Hash256& root) {
  std::lock_guard<std::mutex> lock(table_mu_);
  // The table holds ≤ retain acquirable entries; a linear scan is cheaper
  // than maintaining a root index.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (!it->second.retired && it->second.root == root) {
      ++it->second.refs;
      ++live_pins_;
      ++stats_.acquires;
      return SnapshotHandle(this, it->first, it->second.root);
    }
  }
  ++stats_.acquire_misses;
  return SnapshotHandle();
}

U256 SnapshotRegistry::ReadAt(const StateKey& key, uint64_t block) const {
  const Shard& shard = ShardFor(key);
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.keys.find(key);
    if (it != shard.keys.end()) {
      // Newest-first scan: chains are block-ascending and short (≤ retain
      // entries plus whatever a deferred prune is still holding).
      const auto& chain = it->second.chain;
      for (auto v = chain.rbegin(); v != chain.rend(); ++v) {
        if (v->first <= block) {
          return v->second;
        }
      }
      if (it->second.folded) {
        // Folded versions are ≤ floor ≤ every live handle's block.
        return *it->second.folded;
      }
    }
  }
  return base_.Get(key);
}

void SnapshotRegistry::Release(uint64_t block) {
  uint64_t floor;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    auto it = entries_.find(block);
    --it->second.refs;
    --live_pins_;
    if (it->second.retired && it->second.refs == 0) {
      entries_.erase(it);
    }
    floor = FloorLocked();
  }
  // Releasing the oldest pin may advance the floor: reclaim what just became
  // unreachable instead of waiting for the next Publish.
  PruneTo(floor);
}

uint64_t SnapshotRegistry::FloorLocked() const {
  return entries_.empty() ? latest_block_ : entries_.begin()->first;
}

void SnapshotRegistry::PruneTo(uint64_t floor) {
  // Every version ≤ floor belongs to a block ≤ floor, whose list names its
  // key. A key in several claimed lists is folded on its first visit; a
  // concurrent prune that claimed later lists folds it at most further.
  std::vector<BlockKeys> claimed;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    if (floor <= pruned_floor_) {
      return;
    }
    pruned_floor_ = floor;
    while (!block_keys_.empty() && block_keys_.front().block <= floor) {
      claimed.push_back(std::move(block_keys_.front()));
      block_keys_.pop_front();
    }
  }
  uint64_t folded = 0;
  for (const BlockKeys& listed : claimed) {
    for (size_t s = 0; s < kShards; ++s) {
      if (listed.start[s] == listed.start[s + 1]) {
        continue;
      }
      Shard& shard = shards_[s];
      std::unique_lock<std::shared_mutex> lock(shard.mu);
      for (size_t i = listed.start[s]; i < listed.start[s + 1]; ++i) {
        KeyVersions& versions = shard.keys.at(listed.keys[i]);
        auto& chain = versions.chain;
        size_t keep = 0;  // First index with block > floor.
        while (keep < chain.size() && chain[keep].first <= floor) {
          ++keep;
        }
        if (keep > 0) {
          // The newest pruned version becomes the folded value: any handle at
          // block ≥ floor that misses the chain resolves to exactly it.
          versions.folded = chain[keep - 1].second;
          chain.erase(chain.begin(), chain.begin() + static_cast<ptrdiff_t>(keep));
          folded += keep;
        }
      }
    }
  }
  if (folded > 0) {
    std::lock_guard<std::mutex> lock(table_mu_);
    stats_.versions_folded += folded;
  }
}

SnapshotStats SnapshotRegistry::stats() const {
  std::lock_guard<std::mutex> lock(table_mu_);
  return stats_;
}

uint64_t SnapshotRegistry::latest_block() const {
  std::lock_guard<std::mutex> lock(table_mu_);
  return latest_block_;
}

size_t SnapshotRegistry::live_pins() const {
  std::lock_guard<std::mutex> lock(table_mu_);
  return live_pins_;
}

size_t SnapshotRegistry::retained() const {
  std::lock_guard<std::mutex> lock(table_mu_);
  size_t n = 0;
  for (const auto& [block, entry] : entries_) {
    if (!entry.retired) {
      ++n;
    }
  }
  return n;
}

size_t SnapshotRegistry::version_keys() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (const auto& [key, versions] : shard.keys) {
      n += versions.chain.empty() ? 0 : 1;
    }
  }
  return n;
}

}  // namespace pevm
