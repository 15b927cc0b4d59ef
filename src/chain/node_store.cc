#include "src/chain/node_store.h"

#include <utility>

#include "src/state/kv_keys.h"

namespace pevm {
namespace {

// Framed log cost of one batch operation / commit marker, mirroring
// record.cc's encoding. Lets the in-memory store report the same
// bytes-appended figure the KV log would, so benches can separate "bytes the
// protocol writes" from "what the filesystem charges for them".
size_t FramedPutBytes(size_t key, size_t value) { return kRecordHeaderSize + 1 + 4 + key + value; }
size_t FramedDeleteBytes(size_t key) { return kRecordHeaderSize + 1 + 4 + key; }
constexpr size_t kFramedCommitBytes = kRecordHeaderSize + 1 + 8;

Bytes RootBytes(const Hash256& root) { return Bytes(root.begin(), root.end()); }

}  // namespace

void InMemoryNodeStore::PutNode(const Hash256& hash, BytesView encoding) {
  auto [it, inserted] = nodes_.try_emplace(hash, Bytes(encoding.begin(), encoding.end()));
  if (!inserted) {
    return;  // Content-addressed: the record is already identical.
  }
  total_node_bytes_ += encoding.size();
  ++pending_nodes_;
  pending_bytes_ += FramedPutBytes(1 + hash.size(), encoding.size());
}

void InMemoryNodeStore::PutAccount(const Address& address, const U256& balance, uint64_t nonce) {
  std::string key = kvkeys::AccountKey(address);
  pending_bytes_ += FramedPutBytes(key.size(), 40);
  flat_[std::move(key)] = kvkeys::EncodeAccountRecord(balance, nonce);
}

void InMemoryNodeStore::PutStorage(const Address& address, const U256& slot, const U256& value) {
  std::string key = kvkeys::StorageKey(address, slot);
  if (value.IsZero()) {
    pending_bytes_ += FramedDeleteBytes(key.size());
    flat_.erase(key);
    return;
  }
  std::array<uint8_t, 32> be = value.ToBigEndian();
  pending_bytes_ += FramedPutBytes(key.size(), be.size());
  flat_[std::move(key)] = Bytes(be.begin(), be.end());
}

void InMemoryNodeStore::PutCode(const Address& address, BytesView code) {
  std::string key = kvkeys::CodeKey(address);
  pending_bytes_ += FramedPutBytes(key.size(), code.size());
  flat_[std::move(key)] = Bytes(code.begin(), code.end());
}

NodeStoreCommitStats InMemoryNodeStore::CommitGenesis(const Hash256& root) {
  pending_bytes_ += FramedPutBytes(kvkeys::kGenesisRoot.size(), root.size());
  pending_bytes_ += FramedPutBytes(kvkeys::kCommittedBlocks.size(), 8);
  roots_.clear();
  return SealPending();
}

NodeStoreCommitStats InMemoryNodeStore::CommitBatch(uint64_t first_block_index,
                                                    std::span<const Hash256> roots) {
  // One advanced block count for the whole batch, one root record per block —
  // exactly what the KV store's WriteBatch carries.
  pending_bytes_ += FramedPutBytes(kvkeys::kCommittedBlocks.size(), 8);
  for (size_t i = 0; i < roots.size(); ++i) {
    pending_bytes_ += FramedPutBytes(kvkeys::RootKey(first_block_index + i).size(),
                                     roots[i].size());
    roots_.push_back(roots[i]);
  }
  return SealPending();
}

NodeStoreCommitStats InMemoryNodeStore::SealPending() {
  NodeStoreCommitStats stats;
  stats.nodes_written = pending_nodes_;
  stats.bytes_appended = pending_bytes_ + kFramedCommitBytes;
  pending_nodes_ = 0;
  pending_bytes_ = 0;
  return stats;
}

void KvNodeStore::PutNode(const Hash256& hash, BytesView encoding) {
  std::string key = kvkeys::NodeKey(hash);
  if (!pending_node_hashes_.insert(hash).second || store_->Contains(key)) {
    return;  // Already in this batch, or already durable in the log.
  }
  pending_.Put(key, encoding);
  ++pending_nodes_;
}

void KvNodeStore::PutAccount(const Address& address, const U256& balance, uint64_t nonce) {
  Bytes record = kvkeys::EncodeAccountRecord(balance, nonce);
  pending_.Put(kvkeys::AccountKey(address), BytesView(record.data(), record.size()));
}

void KvNodeStore::PutStorage(const Address& address, const U256& slot, const U256& value) {
  std::string key = kvkeys::StorageKey(address, slot);
  if (value.IsZero()) {
    pending_.Delete(key);
    return;
  }
  std::array<uint8_t, 32> be = value.ToBigEndian();
  pending_.Put(key, BytesView(be.data(), be.size()));
}

void KvNodeStore::PutCode(const Address& address, BytesView code) {
  pending_.Put(kvkeys::CodeKey(address), code);
}

NodeStoreCommitStats KvNodeStore::CommitGenesis(const Hash256& root) {
  Bytes root_bytes = RootBytes(root);
  pending_.Put(kvkeys::kGenesisRoot, BytesView(root_bytes.data(), root_bytes.size()));
  Bytes count = kvkeys::EncodeU64Be(0);
  pending_.Put(kvkeys::kCommittedBlocks, BytesView(count.data(), count.size()));
  return Seal();
}

NodeStoreCommitStats KvNodeStore::CommitBatch(uint64_t first_block_index,
                                              std::span<const Hash256> roots) {
  Bytes count = kvkeys::EncodeU64Be(first_block_index + roots.size());
  pending_.Put(kvkeys::kCommittedBlocks, BytesView(count.data(), count.size()));
  for (size_t i = 0; i < roots.size(); ++i) {
    Bytes root_bytes = RootBytes(roots[i]);
    pending_.Put(kvkeys::RootKey(first_block_index + i),
                 BytesView(root_bytes.data(), root_bytes.size()));
  }
  return Seal();
}

NodeStoreCommitStats KvNodeStore::Seal() {
  KvCommitResult result = store_->Commit(pending_);
  NodeStoreCommitStats stats;
  stats.nodes_written = pending_nodes_;
  stats.bytes_appended = result.bytes_appended;
  stats.fsyncs = result.fsynced ? 1 : 0;
  stats.sync_ns = result.sync_ns;
  pending_.Clear();
  pending_node_hashes_.clear();
  pending_nodes_ = 0;
  return stats;
}

std::optional<RecoveredChain> RecoverChain(KvStore& store) {
  // The manifest is the source of truth for *whether* anything is durable:
  // a store that never sealed genesis recovers to nothing (the commit marker
  // protocol guarantees the genesis batch is all-or-nothing).
  std::optional<Bytes> genesis_root = store.Get(kvkeys::kGenesisRoot);
  std::optional<Bytes> count_bytes = store.Get(kvkeys::kCommittedBlocks);
  if (!genesis_root.has_value() || !count_bytes.has_value() || genesis_root->size() != 32) {
    return std::nullopt;
  }

  RecoveredChain chain;
  chain.blocks_committed = kvkeys::DecodeU64Be(BytesView(count_bytes->data(), count_bytes->size()));

  for (uint64_t b = 0; b < chain.blocks_committed; ++b) {
    std::optional<Bytes> root = store.Get(kvkeys::RootKey(b));
    if (!root.has_value() || root->size() != 32) {
      // Unreachable with an intact manifest (count and roots commit in the
      // same batch); surface as unrecoverable rather than fabricate state.
      return std::nullopt;
    }
    Hash256 h{};
    std::copy(root->begin(), root->end(), h.begin());
    chain.roots.push_back(h);
  }
  if (chain.blocks_committed == 0) {
    std::copy(genesis_root->begin(), genesis_root->end(), chain.root.begin());
  } else {
    chain.root = chain.roots.back();
  }

  // Rebuild the committed WorldState from the flat mirror. Account records
  // come first: a zero-balance/zero-nonce record still materializes the
  // account (mirroring WorldState's balance-write semantics), which is why
  // the committer writes one for every dirty account.
  std::string account_prefix(1, kvkeys::kAccountPrefix);
  store.ScanPrefix(account_prefix, [&chain](std::string_view key, BytesView value) {
    if (key.size() != 1 + Address::kSize || value.size() != 40) {
      return;
    }
    Address address;
    std::copy(key.begin() + 1, key.end(), address.bytes().begin());
    chain.state.SetBalance(address, U256::FromBigEndian(BytesView(value.data(), 32)));
    chain.state.SetNonce(address, kvkeys::DecodeU64Be(BytesView(value.data() + 32, 8)));
  });
  std::string storage_prefix(1, kvkeys::kStoragePrefix);
  store.ScanPrefix(storage_prefix, [&chain](std::string_view key, BytesView value) {
    if (key.size() != 1 + Address::kSize + 32 || value.size() != 32) {
      return;
    }
    Address address;
    std::copy(key.begin() + 1, key.begin() + 1 + Address::kSize, address.bytes().begin());
    U256 slot = U256::FromBigEndian(
        BytesView(reinterpret_cast<const uint8_t*>(key.data()) + 1 + Address::kSize, 32));
    chain.state.SetStorage(address, slot, U256::FromBigEndian(value));
  });
  std::string code_prefix(1, kvkeys::kCodePrefix);
  store.ScanPrefix(code_prefix, [&chain](std::string_view key, BytesView value) {
    if (key.size() != 1 + Address::kSize) {
      return;
    }
    Address address;
    std::copy(key.begin() + 1, key.end(), address.bytes().begin());
    chain.state.SetCode(address, Bytes(value.begin(), value.end()));
  });
  return chain;
}

}  // namespace pevm
