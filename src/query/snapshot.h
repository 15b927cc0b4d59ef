// Root-pinned read snapshots for the concurrent query tier (DESIGN.md §4.7).
//
// The chain pipeline's write path (warm → spec → exec → commit) owns the live
// WorldState and the incremental trie; nothing in it is safe to read from
// another thread while blocks flow. The SnapshotRegistry gives read-only
// traffic a stable view anyway: stage 3 publishes every committed (block,
// root, diff) triple into a multi-version map, and a query pins one committed
// root with a refcounted handle, then reads *as of* that root while the
// pipeline keeps committing ahead of it.
//
// Versioning model (MVCC over an immutable base):
//  - `base_` is a frozen copy of the seed state (genesis or the recovered
//    durable state), never mutated after construction — reads need no lock.
//  - Each published block appends at most one version per touched key:
//    (block_index, last value the block's ordered diff wrote). Chains are
//    sharded 16 ways under shared_mutexes: the single publisher (the commit
//    stage) takes the write side, serving threads the read side.
//  - A read at snapshot S resolves key k to the newest version ≤ S, then the
//    folded compaction value, then the base. Code is genesis-immutable
//    (WorldState::SetCode asserts no diff is active), so code reads always go
//    straight to the base, lock-free.
//
// Retention: the registry keeps the last `retain` roots acquirable. Older
// snapshots are retired — but *eviction of the data they can reach is
// deferred while any live handle still pins them* (the refcount). Pruning
// folds every version ≤ floor (floor = oldest pinned-or-retained snapshot)
// into the per-key folded value; any live handle sits at a block ≥ floor, so
// the fold is invisible to it by construction. A long-running query therefore
// never observes a torn or reclaimed value: its handle holds the floor down
// until it releases. Each published block's list of keys is kept until the
// block falls to the floor, so a prune visits only the keys of the blocks
// leaving the window, never the whole versioned key set.
//
// Correctness contract (mirrors PR 5/7 inertness): a read at snapshot S is
// bit-identical to reading a WorldState produced by serially replaying the
// chain and stopping after S's block, because versions are exactly the
// committed per-block diffs (last-writer-wins within a block, which is what
// the journal's final value is) and the fold only ever replaces "newest
// version ≤ floor" with itself. The registry is read-only from the pipeline's
// perspective: publishing copies values out of the diff, so running any
// number of query threads cannot perturb roots, receipts, or any
// deterministic BlockReport field.
#ifndef SRC_QUERY_SNAPSHOT_H_
#define SRC_QUERY_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/state/state_view.h"
#include "src/state/world_state.h"

namespace pevm {

// Registry observability (ChainReport::query_snapshots when the runner owns
// the registry). Counters are registry-lifetime; read via stats().
struct SnapshotStats {
  uint64_t published = 0;           // Snapshots published, seed included.
  uint64_t retired = 0;             // Snapshots that left the retention window.
  uint64_t evictions_deferred = 0;  // Retirements that found a live pin.
  uint64_t versions_appended = 0;   // Version-chain entries created.
  uint64_t versions_folded = 0;     // Entries compacted into folded values.
  uint64_t acquires = 0;            // Successful handle acquisitions.
  uint64_t acquire_misses = 0;      // AcquireAt of an unknown/retired root.
};

class SnapshotRegistry;

// A refcounted pin on one committed root. Move-only; releasing (destruction
// or release()) may advance the prune floor. All reads are as-of the pinned
// block and are safe from any thread while the handle lives. The registry
// must outlive every handle.
class SnapshotHandle {
 public:
  SnapshotHandle() = default;
  ~SnapshotHandle() { release(); }
  SnapshotHandle(SnapshotHandle&& other) noexcept { *this = std::move(other); }
  SnapshotHandle& operator=(SnapshotHandle&& other) noexcept {
    if (this != &other) {
      release();
      registry_ = other.registry_;
      block_ = other.block_;
      root_ = other.root_;
      other.registry_ = nullptr;
    }
    return *this;
  }
  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;

  bool valid() const { return registry_ != nullptr; }
  // Number of blocks committed into this snapshot (chain-lifetime: a resumed
  // runner keeps counting where the durable manifest left off).
  uint64_t block_index() const { return block_; }
  const Hash256& root() const { return root_; }

  // Reads as of the pinned root (zero for absent accounts/slots, per EVM
  // semantics; code is nullptr when the account has none).
  U256 Get(const StateKey& key) const;
  U256 GetBalance(const Address& a) const { return Get(StateKey::Balance(a)); }
  uint64_t GetNonce(const Address& a) const { return Get(StateKey::Nonce(a)).AsUint64(); }
  U256 GetStorage(const Address& a, const U256& slot) const {
    return Get(StateKey::Storage(a, slot));
  }
  const Bytes* GetCode(const Address& a) const;
  const Hash256* GetCodeHash(const Address& a) const;

  void release();

 private:
  friend class SnapshotRegistry;
  SnapshotHandle(SnapshotRegistry* registry, uint64_t block, const Hash256& root)
      : registry_(registry), block_(block), root_(root) {}

  SnapshotRegistry* registry_ = nullptr;
  uint64_t block_ = 0;
  Hash256 root_{};
};

// BaseReader adapter: lets the interpreter (and SpeculateTransaction) run a
// full eth_call-style execution against the pinned root. The StateView built
// on top buffers any writes the call attempts, and the query tier discards
// the view — the snapshot itself is immutable, so "all writes rejected" holds
// structurally, not by runtime policing.
class SnapshotReader final : public BaseReader {
 public:
  explicit SnapshotReader(const SnapshotHandle& handle) : handle_(&handle) {}
  U256 Read(const StateKey& key) const override { return handle_->Get(key); }
  const Bytes* ReadCode(const Address& a) const override { return handle_->GetCode(a); }
  const Hash256* ReadCodeHash(const Address& a) const override {
    return handle_->GetCodeHash(a);
  }

 private:
  const SnapshotHandle* handle_;
};

class SnapshotRegistry {
 public:
  // `base` is copied (the one O(state) cost in the registry's lifetime) and
  // becomes the immutable version floor; `base_root`/`base_block` name it as
  // the seed snapshot, acquirable immediately. `retain` ≥ 1 is the number of
  // most-recent roots kept acquirable.
  SnapshotRegistry(const WorldState& base, const Hash256& base_root, uint64_t base_block,
                   size_t retain);

  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  // Publishes the snapshot reached by committing `block_index`'s diff (the
  // ordered journal stage 3 just applied; values are copied out). Single
  // publisher: only the commit stage calls this, in block order. Retires
  // snapshots that fall out of the retention window and prunes versions no
  // live handle can reach.
  void Publish(uint64_t block_index, const Hash256& root, const StateDiff& diff);

  // Pins the newest published snapshot. Always succeeds (the seed snapshot
  // exists from construction and the newest snapshot is never retired).
  SnapshotHandle AcquireLatest();

  // Pins the retained snapshot with this root; an invalid handle if the root
  // is unknown or already retired (query tier surfaces kUnknownRoot).
  SnapshotHandle AcquireAt(const Hash256& root);

  SnapshotStats stats() const;
  uint64_t latest_block() const;
  size_t live_pins() const;      // Handles currently outstanding.
  size_t retained() const;       // Acquirable snapshots (≤ retain).
  size_t version_keys() const;   // Keys with a live version chain (test introspection).

 private:
  friend class SnapshotHandle;

  static constexpr size_t kShards = 16;

  // Everything the registry holds for one key, in one map node so a read or
  // a prune finds both parts with one lookup.
  struct KeyVersions {
    // Version chain, block-ascending (one entry per published block).
    std::vector<std::pair<uint64_t, U256>> chain;
    // Compaction: the newest pruned version (block ≤ floor, so visible to
    // every live handle that misses the chain).
    std::optional<U256> folded;
  };

  struct Shard {
    mutable std::shared_mutex mu;
    // Every key ever published; a key's node outlives its chain to keep
    // the folded value.
    std::unordered_map<StateKey, KeyVersions, StateKeyHash> keys;
  };

  struct SnapEntry {
    Hash256 root;
    uint64_t refs = 0;
    bool retired = false;
  };

  // One published block's keys, one per version it appended, grouped by
  // shard: shard s's keys are keys[start[s], start[s + 1]).
  struct BlockKeys {
    uint64_t block = 0;
    std::vector<StateKey> keys;
    std::array<size_t, kShards + 1> start{};
  };

  static size_t ShardIndex(const StateKey& key) { return StateKeyHash{}(key) % kShards; }
  const Shard& ShardFor(const StateKey& key) const { return shards_[ShardIndex(key)]; }

  U256 ReadAt(const StateKey& key, uint64_t block) const;
  void Release(uint64_t block);
  // Oldest block any entry (pinned or retained) still names; callers hold
  // table_mu_.
  uint64_t FloorLocked() const;
  // Folds every version ≤ floor into its key's folded value, visiting the
  // keys of the blocks at or below the floor. Called outside table_mu_
  // (which it takes only to claim those blocks' key lists); cheap no-op when
  // the floor didn't move.
  void PruneTo(uint64_t floor);

  const WorldState base_;  // Immutable after construction; lock-free reads.
  size_t retain_ = 1;

  mutable std::mutex table_mu_;
  std::map<uint64_t, SnapEntry> entries_;  // block → entry, oldest first.
  uint64_t latest_block_ = 0;
  uint64_t live_pins_ = 0;
  uint64_t pruned_floor_ = 0;
  SnapshotStats stats_;
  // Each published block's keys, oldest block first, until a prune claims
  // them.
  std::deque<BlockKeys> block_keys_;

  Shard shards_[kShards];
  // Publish's partition of the diff by shard; only the publisher touches it.
  std::vector<const std::pair<StateKey, U256>*> publish_parts_[kShards];
};

}  // namespace pevm

#endif  // SRC_QUERY_SNAPSHOT_H_
