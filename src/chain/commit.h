// Incremental state commitment for the chain runner: a long-lived secure
// Merkle Patricia state trie that absorbs one block's ordered write diff
// (WorldState::TakeDiff) per ApplyDiff call instead of being rebuilt from a
// full state snapshot. With the per-node encoding memo in src/trie this makes
// the commit stage O(diff · depth) per block — the asymptotic change that lets
// a dedicated committer thread keep pace with streaming execution (the
// paper's §6.2 commitment bottleneck, Reddio-style async commitment).
//
// Sharded parallel re-rooting (DESIGN.md §4.4): the account trie is a
// ShardedMpt — 16 independent subtries split by the top nibble of the keccak'd
// address key — and every per-account structure (entries, storage tries, dirty
// sets) lives in the shard its address hashes to. ApplyDiff partitions the
// journal by shard on the calling thread, replays and re-roots all 16 shards
// in parallel on the committer's own ThreadPool, then flushes the flat-mirror
// store writes serially in shard order (per-key write order is preserved
// because an account's writes all land in one shard). Roots stay bit-identical
// to the monolithic serial committer because the shard split is a pure
// re-association of the same trie (the join reassembles the exact monolithic
// root encoding) and because replay semantics per account are untouched.
//
// Correctness contract: after ApplyDiff of every diff a WorldState emitted
// since genesis, Root() is bit-identical to that WorldState's from-scratch
// StateRoot(). The replay applies WorldState's exact account-existence
// semantics — in particular a zero storage write never materializes an
// account, while any balance/nonce write (even of zero) does — because the
// secure trie includes every account the state map holds, empty or not.
//
// Durability (optional): given a NodeStore, the trie additionally streams
// each block's effects to it — the flat-state mirror during ApplyDiff and the
// dirty trie nodes (account trie + touched storage tries, harvested per shard
// in parallel) at CommitBatch, which seals a run of blocks atomically with
// their manifest entries in one WriteBatch + one group fsync
// (CommitOptions::batch_blocks controls how many blocks the runner folds into
// one seal). Seeding replays the whole genesis image; because the flat mirror
// alone drives recovery, seeding skips the per-node archive pass entirely and
// bulk-marks the freshly built tries persisted — the node archive only ever
// receives post-genesis dirty spines. Resuming from an already-durable state
// (SeedMode::kAlreadyDurable) writes nothing and marks persisted the same way.
#ifndef SRC_CHAIN_COMMIT_H_
#define SRC_CHAIN_COMMIT_H_

#include <array>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/chain/node_store.h"
#include "src/exec/thread_pool.h"
#include "src/state/world_state.h"
#include "src/trie/mpt.h"

namespace pevm {

// Commit-stage knobs, threaded through ChainOptions.
struct CommitOptions {
  // Committer pool width for shard-parallel re-rooting and harvesting
  // (ThreadPool::ResolveWidth semantics: 0 = one per hardware thread, capped).
  // The committer owns its pool — it runs concurrently with the executor
  // stage, whose pool is busy and not reentrant.
  int os_threads = 1;
  // Blocks folded into one durable NodeStore seal. Per-block roots are still
  // computed and recorded in the manifest; batching amortizes the WriteBatch,
  // the fsync and the node-archive writes across the batch. Crash recovery
  // resumes from the last *batch* boundary (durability-lag contract,
  // DESIGN.md §4.4). 0 is treated as 1.
  size_t batch_blocks = 1;
};

class IncrementalStateTrie {
 public:
  // How the seeding snapshot relates to the attached store (ignored without
  // one): kFresh persists the full genesis image and seals it with
  // CommitGenesis; kAlreadyDurable assumes the snapshot was recovered *from*
  // the store and only aligns the persisted flags.
  enum class SeedMode { kFresh, kAlreadyDurable };

  // Seeds the trie from a full snapshot (one O(state) build at stream start,
  // shard-parallel; every block after that is incremental).
  explicit IncrementalStateTrie(const WorldState& genesis, NodeStore* store = nullptr,
                                SeedMode mode = SeedMode::kFresh,
                                const CommitOptions& options = {});
  ~IncrementalStateTrie();

  // Replays one block's ordered mutation journal and folds the dirty account
  // bodies into the account trie: serial partition by shard, parallel
  // per-shard replay + re-root + root-ref prehash, serial flat-mirror flush.
  // Storage-slot writes update the per-account storage trie (zero value =
  // slot delete); dirty storage roots are recomputed incrementally as well.
  // With a store attached, the flat-state mirror entries for every touched
  // account/slot are forwarded into the store's pending batch as a side
  // effect.
  void ApplyDiff(const StateDiff& diff);

  // Root of the account trie. Bit-identical to WorldState::StateRoot() of the
  // state that produced the applied diffs. After ApplyDiff every shard root
  // ref is warm, so this only joins 16 memoized references.
  Hash256 Root() const;

  // Harvests the nodes dirtied since the last seal (shard-parallel) into the
  // store and seals blocks [first_block_index, first + roots.size()) as one
  // atomic batch — one durable commit, one fsync, with every per-block root
  // recorded in the manifest. `roots[i]` must be the root observed after
  // applying block first_block_index + i. Indices are chain-lifetime — a
  // resumed runner keeps counting where the recovered manifest left off.
  // No-op (all-zero stats) without a store or with an empty span.
  NodeStoreCommitStats CommitBatch(uint64_t first_block_index,
                                   std::span<const Hash256> roots);

  // Single-block convenience: a batch of one at the current root.
  NodeStoreCommitStats CommitBlock(uint64_t block_index);

  // Stats of the genesis seal performed by the kFresh constructor (all-zero
  // without a store or when resuming).
  const NodeStoreCommitStats& genesis_stats() const { return genesis_stats_; }

  size_t account_count() const;

  // Where the last ApplyDiff's wall time went: the serial portion (journal
  // partition + flat-mirror flush on the calling thread) vs the shard-parallel
  // portion (replay, re-root, prehash). Feeds the commit-latency histograms.
  struct ApplyBreakdown {
    uint64_t serial_ns = 0;
    uint64_t parallel_ns = 0;
  };
  const ApplyBreakdown& last_apply() const { return last_apply_; }

 private:
  // The mutable account fields plus the memoized pieces the from-scratch
  // build recomputes every time: the keccak'd trie key and the code hash
  // (code is immutable after genesis — WorldState::SetCode asserts so).
  struct AccountEntry {
    U256 balance;
    uint64_t nonce = 0;
    Hash256 code_hash;
    Hash256 addr_key;
    MerklePatriciaTrie storage;
  };

  // A buffered flat-mirror storage write (journal-order within its shard;
  // replayed into the store serially after the parallel phase).
  struct StorageOp {
    Address address;
    U256 slot;
    U256 value;
  };

  // Everything an address's commitment touches, keyed by the top nibble of
  // its keccak'd trie key — the unit of parallelism. Only the owning shard's
  // task reads or writes a ShardState during the parallel phase.
  struct ShardState {
    std::unordered_map<Address, AccountEntry> entries;
    std::vector<const std::pair<StateKey, U256>*> ops;  // This diff's journal slice.
    std::vector<Address> dirty;                         // First-touch order.
    std::unordered_set<Address> dirty_seen;
    std::vector<StorageOp> storage_ops;  // Buffered flat-mirror writes.
    // Replay scratch: the slice's slot keys, hashed in one batch, and the
    // dirty accounts' storage tries, prehashed together.
    Keccak256WordBatch slot_keys;
    std::vector<const MerklePatriciaTrie*> tries;
    // Accounts whose storage trie may hold unharvested nodes, accumulated
    // across ApplyDiff calls until the next CommitBatch.
    std::unordered_set<Address> storage_dirty;
    std::vector<std::pair<Hash256, Bytes>> harvest;  // Per-shard node buffer.
  };

  AccountEntry& Ensure(ShardState& shard, const Address& address);
  int ShardFor(const Address& address);
  void ReplayShard(int shard);

  std::array<ShardState, ShardedMpt::kShards> shards_;
  // Address → shard cache (the nibble of keccak(address)); grows monotonically
  // and never implies account existence.
  std::unordered_map<Address, uint8_t> shard_of_;
  ShardedMpt account_trie_;
  std::unique_ptr<ThreadPool> pool_;

  NodeStore* store_ = nullptr;  // Not owned; may be null (in-memory only).
  NodeStoreCommitStats genesis_stats_;
  ApplyBreakdown last_apply_;
};

}  // namespace pevm

#endif  // SRC_CHAIN_COMMIT_H_
