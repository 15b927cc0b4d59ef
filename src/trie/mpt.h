// In-memory Merkle Patricia Trie (yellow paper appendix D): hex-prefix key
// encoding, RLP node bodies, keccak-256 node references. Used as the
// correctness oracle (§6.2 of the paper): two world states are equal iff
// their MPT roots match.
//
// Supports insertion, lookup and deletion (with full node re-canonicalization
// on delete, so the root stays content-addressed), plus a batched ApplyDiff
// entry point for incremental commitment (src/chain): a long-lived trie
// absorbs one block's write-set diff instead of being rebuilt from a full
// state snapshot.
//
// Incremental roots: every node memoizes its RLP encoding and its reference
// (the encoding if < 32 bytes, else the RLP of its keccak hash); mutations
// invalidate the memo along the touched spine only. RootHash after a k-key
// diff therefore re-hashes O(k · depth) nodes, not the whole trie — the
// asymptotic win that lets the chain runner's committer stage keep up with
// streaming execution. The stale nodes are re-hashed one level at a time
// from the leaves up, each level in one Keccak256Batch call (DESIGN.md
// §4.4). Memoization and ordering are invisible to results: roots stay
// bit-identical to a from-scratch build (locked in by the MptPropertyTest
// randomized battery).
//
// Durability hook (src/chain/node_store.h): every node additionally carries a
// `persisted` flag, cleared whenever the node is dirtied. HarvestDirtyNodes
// walks the not-yet-persisted region and emits each hash-referenced node's
// (keccak(encoding), encoding) pair — exactly the records a persistent node
// store (LevelDB-style) would write for the block, O(dirty spine) like the
// re-rooting itself.
#ifndef SRC_TRIE_MPT_H_
#define SRC_TRIE_MPT_H_

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "src/support/bytes.h"
#include "src/support/keccak.h"

namespace pevm {

// One batched trie mutation: an empty value deletes the key (Ethereum's
// convention for cleared slots); deleting an absent key is a no-op.
struct TrieUpdate {
  Bytes key;
  Bytes value;
};

class MerklePatriciaTrie {
 public:
  MerklePatriciaTrie();
  ~MerklePatriciaTrie();
  MerklePatriciaTrie(MerklePatriciaTrie&&) noexcept;
  MerklePatriciaTrie& operator=(MerklePatriciaTrie&&) noexcept;
  MerklePatriciaTrie(const MerklePatriciaTrie&) = delete;
  MerklePatriciaTrie& operator=(const MerklePatriciaTrie&) = delete;

  // Inserts (or replaces) `key -> value`. Empty values are rejected (they
  // would mean deletion in Ethereum; callers use Delete/ApplyDiff instead).
  void Put(BytesView key, BytesView value);

  // Returns the stored value, if any.
  std::optional<Bytes> Get(BytesView key) const;

  // Removes `key`; returns false when it was not present. The resulting root
  // equals that of a trie built without the key.
  bool Delete(BytesView key);

  // Applies a block diff in order: non-empty values are Put, empty values are
  // Delete. Returns the number of updates that changed the key set (inserts
  // plus removals of present keys; value replacements don't count).
  size_t ApplyDiff(std::span<const TrieUpdate> updates);

  // Keccak-256 root. The empty trie hashes to
  // keccak(rlp("")) = 0x56e81f17...63b421, matching Ethereum. Amortized
  // O(dirty spine) thanks to the per-node encoding memo.
  Hash256 RootHash() const;

  // Re-hashes the dirty regions of every trie in `tries` together, one
  // level at a time from the leaves up, so a later RootHash of any of them
  // only reads memos. Batching several small tries (an account's storage
  // tries, say) fills the batch Keccak's lanes where one trie's levels
  // would not. Results are exactly those of each trie's own RootHash.
  static void Prehash(std::span<const MerklePatriciaTrie* const> tries);

  size_t size() const { return size_; }

  // Receives one dirty node: its reference hash and RLP encoding.
  using NodeSink = std::function<void(const Hash256&, BytesView)>;

  // Emits every node whose encoding changed since the last harvest (or ever,
  // on a fresh trie) and marks the emitted region clean. Only hash-referenced
  // nodes are emitted — nodes that RLP-encode to < 32 bytes are inlined into
  // their parent on disk exactly as in the reference (the root is always
  // emitted, matching Ethereum's hashed root). Returns the number of nodes
  // emitted. Cost: O(dirty spine), the same asymptotics as RootHash.
  size_t HarvestDirtyNodes(const NodeSink& sink) const;

  // Marks the whole trie persisted without emitting anything: used when a
  // trie is rebuilt from state that is already durable (chain resume), so the
  // next harvest emits only post-resume mutations.
  void MarkAllPersisted() const;

  struct Node;  // Exposed for the implementation file's free helpers.

 private:
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

// The same Merkle Patricia Trie, split by top-level nibble into 16
// independent subtries plus a tiny synthetic root join — the shard layout the
// parallel committer (src/chain/commit.h) fans out over. Each shard stores
// its keys with the first nibble stripped, which makes a shard's root node
// bit-identical (encoding, memo and all) to the corresponding child of the
// monolithic trie's root branch; the join then reassembles the monolithic
// root encoding from the 16 shard references, so RootHash is bit-identical to
// MerklePatriciaTrie over the same contents (locked in by the
// ShardedMptPropertyTest battery, which also checks harvested node sets).
//
// Concurrency contract: the serial surface (Put/Get/Delete/ApplyDiff/
// RootHash/HarvestDirtyNodes) is single-threaded, exactly like the monolithic
// trie. The parallel surface partitions work by shard: ApplyShardDiff,
// PrehashShard and HarvestShard touch only shard-local state, so calls for
// DISTINCT shards may run concurrently; the harvest protocol brackets the
// per-shard phase with serial PrepareHarvest / FinishHarvest calls.
class ShardedMpt {
 public:
  static constexpr int kShards = 16;

  ShardedMpt();
  ~ShardedMpt();
  ShardedMpt(ShardedMpt&&) noexcept;
  ShardedMpt& operator=(ShardedMpt&&) noexcept;
  ShardedMpt(const ShardedMpt&) = delete;
  ShardedMpt& operator=(const ShardedMpt&) = delete;

  // Keys must be non-empty (one byte yields two nibbles, so every shard
  // subtrie path is non-empty too). The chain committer's keys are keccak
  // digests, which spread uniformly over the 16 shards.
  static int ShardOf(BytesView key);

  // Drop-in serial surface, same semantics as MerklePatriciaTrie.
  void Put(BytesView key, BytesView value);
  std::optional<Bytes> Get(BytesView key) const;
  bool Delete(BytesView key);
  size_t ApplyDiff(std::span<const TrieUpdate> updates);
  Hash256 RootHash() const;
  size_t size() const;

  using NodeSink = MerklePatriciaTrie::NodeSink;
  size_t HarvestDirtyNodes(const NodeSink& sink) const;
  void MarkAllPersisted() const;

  // --- Parallel surface (shard-disjoint calls may run concurrently). ---

  // Applies one shard's updates in order; every key must map to `shard`.
  size_t ApplyShardDiff(int shard, std::span<const TrieUpdate> updates);

  // Forces the shard's encoding + reference memos — the expensive keccak
  // work of RootHash, level-ordered like MerklePatriciaTrie::Prehash — so a
  // later serial RootHash only joins 16 warm refs.
  void PrehashShard(int shard) const;

  // Harvest protocol: serial PrepareHarvest, then HarvestShard for each shard
  // (parallelizable), then serial FinishHarvest (emits the join root when any
  // shard mutated since the last harvest). The emitted (hash, encoding) set
  // across the three phases is identical to the monolithic trie's
  // HarvestDirtyNodes over the same mutation history.
  void PrepareHarvest() const;
  size_t HarvestShard(int shard, const NodeSink& sink) const;
  size_t FinishHarvest(const NodeSink& sink) const;

 private:
  size_t HarvestShardImpl(int shard, const NodeSink* sink) const;
  size_t FinishHarvestImpl(const NodeSink* sink) const;
  Bytes JoinEncoding() const;
  int LiveCount(int* lone) const;

  std::array<std::unique_ptr<MerklePatriciaTrie::Node>, kShards> roots_;
  std::array<size_t, kShards> sizes_{};
  // Set by any Put / successful Delete, cleared by FinishHarvest: drives the
  // "is the join root dirty" decision exactly like the monolithic root's
  // persisted flag (every mutation dirties the monolithic root spine).
  mutable std::array<bool, kShards> mutated_{};
  // When the last harvest had exactly one live shard whose root is a leaf or
  // extension, that root was published only merged into the synthetic join
  // (nibble prepended) — it is not a standalone node of the monolithic trie.
  // If a second shard comes alive, the monolithic restructure would dirty it,
  // so PrepareHarvest clears its persisted flag to re-emit it standalone.
  mutable int merged_shard_ = -1;
  mutable int harvest_live_ = 0;  // Live-shard count captured by PrepareHarvest.
};

}  // namespace pevm

#endif  // SRC_TRIE_MPT_H_
