#include "src/chain/commit.h"

#include <algorithm>
#include <chrono>

#include "src/support/rlp.h"
#include "src/telemetry/trace.h"

namespace pevm {
namespace {

uint64_t MonoNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace

IncrementalStateTrie::IncrementalStateTrie(const WorldState& genesis, NodeStore* store,
                                           SeedMode mode, const CommitOptions& options)
    : pool_(std::make_unique<ThreadPool>(ThreadPool::ResolveWidth(
          options.os_threads > 0 ? options.os_threads : 1))),
      store_(store) {
  // Phase 1: keccak every address key, in one batch per slice of the
  // accounts with the slices in parallel, then bucket accounts by shard on
  // this thread.
  std::vector<const std::pair<const Address, Account>*> items;
  std::vector<BytesView> addresses;
  items.reserve(genesis.accounts().size());
  addresses.reserve(genesis.accounts().size());
  for (const auto& kv : genesis.accounts()) {
    items.push_back(&kv);
    addresses.push_back(kv.first.view());
  }
  std::vector<Hash256> addr_keys(items.size());
  const size_t slice = (items.size() + ShardedMpt::kShards - 1) / ShardedMpt::kShards;
  pool_->ParallelFor(ShardedMpt::kShards, [&](size_t s) {
    const size_t begin = std::min(items.size(), s * slice);
    const size_t count = std::min(items.size() - begin, slice);
    Keccak256Batch(std::span<const BytesView>(addresses).subspan(begin, count),
                   std::span<Hash256>(addr_keys).subspan(begin, count));
  });
  std::array<std::vector<size_t>, ShardedMpt::kShards> buckets;
  for (size_t i = 0; i < items.size(); ++i) {
    int shard = addr_keys[i][0] >> 4;
    shard_of_.emplace(items[i]->first, static_cast<uint8_t>(shard));
    buckets[shard].push_back(i);
  }

  // Phase 2: build each shard — entries, storage tries, subtrie, warm root
  // ref — fully independently. A shard hashes all its slot keys in one
  // batch and prehashes all its storage tries together before it encodes
  // the account bodies that carry their roots.
  pool_->ParallelFor(ShardedMpt::kShards, [&](size_t s) {
    PEVM_TRACE_SPAN_ARG("commit.seed_shard", "shard", s);
    ShardState& shard = shards_[s];
    // Local, not the shard's replay scratch: the whole image's slot keys
    // would stay allocated for the trie's lifetime.
    Keccak256WordBatch slot_batch;
    for (size_t i : buckets[s]) {
      for (const auto& [slot, value] : items[i]->second.storage) {
        if (!value.IsZero()) {
          slot_batch.Add(slot);
        }
      }
    }
    std::span<const Hash256> slot_keys = slot_batch.Hash();
    for (size_t i : buckets[s]) {
      const auto& [address, account] = *items[i];
      AccountEntry& entry = shard.entries[address];
      entry.balance = account.balance;
      entry.nonce = account.nonce;
      const Hash256* code_hash = genesis.GetCodeHash(address);
      entry.code_hash = code_hash != nullptr ? *code_hash : Keccak256(account.code);
      entry.addr_key = addr_keys[i];
      for (const auto& [slot, value] : account.storage) {
        if (value.IsZero()) {
          continue;
        }
        const Hash256& key = slot_keys.front();
        slot_keys = slot_keys.subspan(1);
        entry.storage.Put(BytesView(key.data(), key.size()), RlpEncodeUint(value));
      }
    }
    shard.tries.clear();
    for (const auto& [address, entry] : shard.entries) {
      shard.tries.push_back(&entry.storage);
    }
    MerklePatriciaTrie::Prehash(shard.tries);
    std::vector<TrieUpdate> updates;
    updates.reserve(shard.entries.size());
    for (const auto& [address, entry] : shard.entries) {
      TrieUpdate update;
      update.key.assign(entry.addr_key.begin(), entry.addr_key.end());
      update.value =
          RlpAccountBody(entry.nonce, entry.balance, entry.storage.RootHash(), entry.code_hash);
      updates.push_back(std::move(update));
    }
    account_trie_.ApplyShardDiff(static_cast<int>(s), updates);
    account_trie_.PrehashShard(static_cast<int>(s));
  });

  if (store_ == nullptr) {
    return;
  }
  if (mode == SeedMode::kFresh) {
    for (const auto* item : items) {
      const auto& [address, account] = *item;
      store_->PutAccount(address, account.balance, account.nonce);
      if (!account.code.empty()) {
        store_->PutCode(address, BytesView(account.code.data(), account.code.size()));
      }
      for (const auto& [slot, value] : account.storage) {
        if (value.IsZero()) {
          continue;
        }
        store_->PutStorage(address, slot, value);
      }
    }
  }
  // No per-node archive pass at seed time: recovery rebuilds the trie from
  // the flat mirror alone, so archiving the genesis image would be O(state)
  // keccak + log bytes for records nothing reads. Bulk-mark everything the
  // seed built persisted instead (cheap flag walks, no hashing); the archive
  // only ever receives post-seed dirty spines. Applies to resume too — a
  // recovered snapshot is durable by definition.
  pool_->ParallelFor(ShardedMpt::kShards, [&](size_t s) {
    for (auto& [address, entry] : shards_[s].entries) {
      entry.storage.MarkAllPersisted();
    }
  });
  account_trie_.MarkAllPersisted();
  if (mode == SeedMode::kFresh) {
    genesis_stats_ = store_->CommitGenesis(Root());
  }
}

IncrementalStateTrie::~IncrementalStateTrie() = default;

IncrementalStateTrie::AccountEntry& IncrementalStateTrie::Ensure(ShardState& shard,
                                                                 const Address& address) {
  auto [it, inserted] = shard.entries.try_emplace(address);
  if (inserted) {
    it->second.code_hash = Keccak256(Bytes{});
    it->second.addr_key = Keccak256(address.view());
  }
  return it->second;
}

int IncrementalStateTrie::ShardFor(const Address& address) {
  auto [it, inserted] = shard_of_.try_emplace(address, uint8_t{0});
  if (inserted) {
    Hash256 key = Keccak256(address.view());
    it->second = static_cast<uint8_t>(key[0] >> 4);
  }
  return it->second;
}

void IncrementalStateTrie::ReplayShard(int shard_index) {
  // Replay this shard's journal slice in order with WorldState's exact
  // mutation semantics, then re-encode each dirty account body once.
  // Account-trie insertion order does not matter (the MPT is canonical), only
  // the final bodies do. The slice's slot keys are hashed in one batch up
  // front, and the dirty storage tries re-hashed together before the bodies
  // read their roots.
  ShardState& shard = shards_[shard_index];
  auto mark_dirty = [&shard](const Address& address) {
    if (shard.dirty_seen.insert(address).second) {
      shard.dirty.push_back(address);
    }
  };
  shard.slot_keys.Clear();
  for (const auto* op : shard.ops) {
    if (op->first.kind == StateKeyKind::kStorage) {
      shard.slot_keys.Add(op->first.slot);
    }
  }
  std::span<const Hash256> slot_keys = shard.slot_keys.Hash();
  for (const auto* op : shard.ops) {
    const StateKey& key = op->first;
    const U256& value = op->second;
    switch (key.kind) {
      case StateKeyKind::kBalance:
        Ensure(shard, key.address).balance = value;
        mark_dirty(key.address);
        break;
      case StateKeyKind::kNonce:
        Ensure(shard, key.address).nonce = value.AsUint64();
        mark_dirty(key.address);
        break;
      case StateKeyKind::kStorage: {
        const BytesView slot_key(slot_keys.front().data(), 32);
        slot_keys = slot_keys.subspan(1);
        if (value.IsZero()) {
          // Clearing a slot never materializes the account (mirrors
          // WorldState::SetStorage).
          auto it = shard.entries.find(key.address);
          if (it == shard.entries.end()) {
            break;
          }
          it->second.storage.Delete(slot_key);
          mark_dirty(key.address);
          if (store_ != nullptr) {
            shard.storage_ops.push_back({key.address, key.slot, value});
          }
        } else {
          AccountEntry& entry = Ensure(shard, key.address);
          entry.storage.Put(slot_key, RlpEncodeUint(value));
          mark_dirty(key.address);
          if (store_ != nullptr) {
            shard.storage_ops.push_back({key.address, key.slot, value});
          }
        }
        break;
      }
    }
  }
  shard.tries.clear();
  for (const Address& address : shard.dirty) {
    shard.tries.push_back(&shard.entries.at(address).storage);
  }
  MerklePatriciaTrie::Prehash(shard.tries);
  std::vector<TrieUpdate> updates;
  updates.reserve(shard.dirty.size());
  for (const Address& address : shard.dirty) {
    const AccountEntry& entry = shard.entries.at(address);
    TrieUpdate update;
    update.key.assign(entry.addr_key.begin(), entry.addr_key.end());
    update.value =
        RlpAccountBody(entry.nonce, entry.balance, entry.storage.RootHash(), entry.code_hash);
    updates.push_back(std::move(update));
    if (store_ != nullptr) {
      shard.storage_dirty.insert(address);
    }
  }
  account_trie_.ApplyShardDiff(shard_index, updates);
  account_trie_.PrehashShard(shard_index);
}

void IncrementalStateTrie::ApplyDiff(const StateDiff& diff) {
  // Serial partition: route every journal entry to its address's shard. The
  // only per-entry cost is the shard cache lookup (a keccak for first-ever
  // addresses); nothing is materialized here — existence decisions belong to
  // the replay, which sees its shard's ops in exact journal order.
  uint64_t t0 = MonoNs();
  for (const auto& op : diff) {
    shards_[ShardFor(op.first.address)].ops.push_back(&op);
  }

  uint64_t t1 = MonoNs();
  pool_->ParallelFor(ShardedMpt::kShards, [this](size_t s) {
    PEVM_TRACE_SPAN_ARG("commit.shard_reroot", "shard", s);
    ReplayShard(static_cast<int>(s));
  });
  uint64_t t2 = MonoNs();

  // Serial flat-mirror flush, shard by shard. Per-key write order is
  // journal order (an account's writes all live in one shard), which is all
  // the store's WriteBatch semantics need; cross-shard interleaving differs
  // from the monolithic committer but touches disjoint keys.
  for (ShardState& shard : shards_) {
    if (store_ != nullptr) {
      for (const StorageOp& op : shard.storage_ops) {
        store_->PutStorage(op.address, op.slot, op.value);
      }
      for (const Address& address : shard.dirty) {
        // Every dirty account gets a mirror record — even an all-zero body
        // materializes the account, and recovery must rebuild the exact
        // account set (roots depend on it).
        const AccountEntry& entry = shard.entries.at(address);
        store_->PutAccount(address, entry.balance, entry.nonce);
      }
    }
    shard.ops.clear();
    shard.dirty.clear();
    shard.dirty_seen.clear();
    shard.storage_ops.clear();
  }
  uint64_t t3 = MonoNs();
  last_apply_.serial_ns = (t1 - t0) + (t3 - t2);
  last_apply_.parallel_ns = t2 - t1;
}

Hash256 IncrementalStateTrie::Root() const { return account_trie_.RootHash(); }

size_t IncrementalStateTrie::account_count() const {
  size_t total = 0;
  for (const ShardState& shard : shards_) {
    total += shard.entries.size();
  }
  return total;
}

NodeStoreCommitStats IncrementalStateTrie::CommitBatch(uint64_t first_block_index,
                                                       std::span<const Hash256> roots) {
  if (store_ == nullptr || roots.empty()) {
    return {};
  }
  // Shard-parallel harvest into per-shard buffers (the store is not
  // internally synchronized), then a serial merge. The archive is
  // content-addressed, so the merge order cannot affect what recovery sees —
  // only which duplicate writer wins the no-op race, and duplicates are
  // bit-identical by construction.
  account_trie_.PrepareHarvest();
  pool_->ParallelFor(ShardedMpt::kShards, [this](size_t s) {
    PEVM_TRACE_SPAN_ARG("commit.harvest_shard", "shard", s);
    ShardState& shard = shards_[s];
    MerklePatriciaTrie::NodeSink sink = [&shard](const Hash256& hash, BytesView encoding) {
      shard.harvest.emplace_back(hash, Bytes(encoding.begin(), encoding.end()));
    };
    for (const Address& address : shard.storage_dirty) {
      shard.entries.at(address).storage.HarvestDirtyNodes(sink);
    }
    shard.storage_dirty.clear();
    account_trie_.HarvestShard(static_cast<int>(s), sink);
  });
  for (ShardState& shard : shards_) {
    for (const auto& [hash, encoding] : shard.harvest) {
      store_->PutNode(hash, BytesView(encoding.data(), encoding.size()));
    }
    shard.harvest.clear();
  }
  account_trie_.FinishHarvest(
      [this](const Hash256& hash, BytesView encoding) { store_->PutNode(hash, encoding); });
  return store_->CommitBatch(first_block_index, roots);
}

NodeStoreCommitStats IncrementalStateTrie::CommitBlock(uint64_t block_index) {
  Hash256 root = Root();
  return CommitBatch(block_index, std::span<const Hash256>(&root, 1));
}

}  // namespace pevm
