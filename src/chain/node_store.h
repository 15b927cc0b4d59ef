// The pluggable durability boundary of the incremental committer
// (src/chain/commit.h): a NodeStore receives one block's worth of dirty trie
// nodes plus the flat-state mirror (account bodies, storage slots, code) and
// seals them with CommitBlock — the point at which the block becomes the
// chain's durable head.
//
// Two implementations:
//   - InMemoryNodeStore: hash maps, no I/O. The accounting oracle — byte and
//     node counts identical to the KV-backed store, durability-free.
//   - KvNodeStore: batches everything into one KvStore WriteBatch per block
//     and commits it atomically under a commit marker with a single group
//     fsync. Because the manifest entry (block count + per-block root) rides
//     in the same batch, a crash anywhere leaves the store describing exactly
//     the last fully durable block: RecoverChain rebuilds the committed
//     WorldState from the flat mirror and the committer re-seeds its trie
//     from that, so the recovered root is bit-identical to a from-scratch
//     replay of the committed prefix (locked in by tests/recovery_test.cc).
#ifndef SRC_CHAIN_NODE_STORE_H_
#define SRC_CHAIN_NODE_STORE_H_

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/kv/kv_store.h"
#include "src/state/world_state.h"
#include "src/support/keccak.h"

namespace pevm {

// What sealing one block cost (feeds ChainReport's durability stats).
struct NodeStoreCommitStats {
  uint64_t nodes_written = 0;
  uint64_t bytes_appended = 0;  // Framed log bytes (0 for the in-memory store).
  uint64_t fsyncs = 0;
  uint64_t sync_ns = 0;  // Wall time inside fdatasync.
};

struct Hash256Hash {
  size_t operator()(const Hash256& h) const { return Fnv1a(BytesView(h.data(), h.size())); }
};

class NodeStore {
 public:
  virtual ~NodeStore() = default;

  // Trie archive: one hash-referenced node encoding. Content-addressed, so a
  // node's record is immutable and re-writing it is a no-op — both stores skip
  // duplicates (identical subtrees recur constantly, e.g. N token contracts
  // seeded with the same balance table share every storage-trie node). The
  // skip is crash-safe: batch rollback is always a suffix drop, so any node a
  // surviving root references was durably committed no later than that root.
  virtual void PutNode(const Hash256& hash, BytesView encoding) = 0;

  // Flat-state mirror (what recovery reads).
  virtual void PutAccount(const Address& address, const U256& balance, uint64_t nonce) = 0;
  // A zero value deletes the slot record (absent = zero, as in state).
  virtual void PutStorage(const Address& address, const U256& slot, const U256& value) = 0;
  virtual void PutCode(const Address& address, BytesView code) = 0;

  // Seals the genesis image (block count 0). Everything Put since the
  // previous seal becomes durable atomically.
  virtual NodeStoreCommitStats CommitGenesis(const Hash256& root) = 0;

  // Seals a run of consecutive blocks [first_block_index, first + roots.size())
  // as ONE atomic batch: everything Put since the previous seal, the advanced
  // block count and every per-block manifest root land in a single WriteBatch
  // with a single group fsync. Per-block roots stay individually recorded, so
  // RecoverChain replays them exactly as with single-block commits — but a
  // crash between seals rolls back to the previous *batch* boundary (the
  // durability-lag contract, DESIGN.md §4.4).
  virtual NodeStoreCommitStats CommitBatch(uint64_t first_block_index,
                                           std::span<const Hash256> roots) = 0;

  // Single-block convenience: a batch of one.
  NodeStoreCommitStats CommitBlock(uint64_t block_index, const Hash256& root) {
    return CommitBatch(block_index, std::span<const Hash256>(&root, 1));
  }
};

// No-I/O reference implementation; also handy test introspection.
class InMemoryNodeStore final : public NodeStore {
 public:
  void PutNode(const Hash256& hash, BytesView encoding) override;
  void PutAccount(const Address& address, const U256& balance, uint64_t nonce) override;
  void PutStorage(const Address& address, const U256& slot, const U256& value) override;
  void PutCode(const Address& address, BytesView code) override;
  NodeStoreCommitStats CommitGenesis(const Hash256& root) override;
  NodeStoreCommitStats CommitBatch(uint64_t first_block_index,
                                   std::span<const Hash256> roots) override;

  size_t node_count() const { return nodes_.size(); }
  uint64_t total_node_bytes() const { return total_node_bytes_; }
  const std::vector<Hash256>& roots() const { return roots_; }

 private:
  NodeStoreCommitStats SealPending();

  std::unordered_map<Hash256, Bytes, Hash256Hash> nodes_;
  std::unordered_map<std::string, Bytes> flat_;
  std::vector<Hash256> roots_;
  uint64_t total_node_bytes_ = 0;
  uint64_t pending_nodes_ = 0;
  uint64_t pending_bytes_ = 0;
};

// Durable implementation on the embedded KV store. Not internally
// synchronized: exactly one thread (the chain runner's committer stage) may
// use it at a time, which also means one WriteBatch and one group fsync per
// CommitBatch — multi-block batching amortizes both across every block the
// batch seals.
class KvNodeStore final : public NodeStore {
 public:
  explicit KvNodeStore(KvStore& store) : store_(&store) {}

  void PutNode(const Hash256& hash, BytesView encoding) override;
  void PutAccount(const Address& address, const U256& balance, uint64_t nonce) override;
  void PutStorage(const Address& address, const U256& slot, const U256& value) override;
  void PutCode(const Address& address, BytesView code) override;
  NodeStoreCommitStats CommitGenesis(const Hash256& root) override;
  NodeStoreCommitStats CommitBatch(uint64_t first_block_index,
                                   std::span<const Hash256> roots) override;

  KvStore& store() { return *store_; }

 private:
  NodeStoreCommitStats Seal();

  KvStore* store_;
  WriteBatch pending_;
  // Node hashes already in the open batch — the in-flight half of the dedup
  // (KvStore::Contains covers everything sealed). Cleared at Seal so memory
  // stays bounded by one block's dirty set.
  std::unordered_set<Hash256, Hash256Hash> pending_node_hashes_;
  uint64_t pending_nodes_ = 0;
};

// The committed chain state a KV directory describes.
struct RecoveredChain {
  WorldState state;
  uint64_t blocks_committed = 0;  // Chain blocks after genesis; resume here.
  Hash256 root{};                 // Root of `state` per the manifest.
  std::vector<Hash256> roots;     // Per-block manifest roots, in block order.
};

// Rebuilds the committed WorldState from a recovered KvStore's flat mirror
// and manifest. Returns nullopt when the store holds no committed genesis
// (fresh or fully torn directory). The caller is expected to verify that the
// re-seeded trie's root matches `root` (ChainRunner does, and aborts on
// mismatch — a divergence would mean the flat mirror and the node archive
// disagree).
std::optional<RecoveredChain> RecoverChain(KvStore& store);

}  // namespace pevm

#endif  // SRC_CHAIN_NODE_STORE_H_
