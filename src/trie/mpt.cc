#include "src/trie/mpt.h"

#include <array>
#include <algorithm>
#include <cassert>
#include <vector>

#include "src/support/rlp.h"

namespace pevm {
namespace {

// keccak(rlp("")) = keccak(0x80): the root of an empty trie.
constexpr Hash256 kEmptyTrieRoot = {
    0x56, 0xe8, 0x1f, 0x17, 0x1b, 0xcc, 0x55, 0xa6, 0xff, 0x83, 0x45, 0xe6, 0x92, 0xc0, 0xf8, 0x6e,
    0x5b, 0x48, 0xe0, 0x1b, 0x99, 0x6c, 0xad, 0xc0, 0x01, 0x62, 0x2f, 0xb5, 0xe3, 0x63, 0xb4, 0x21,
};

// A byte key as one nibble per element (high nibble first). Keys up to 32
// bytes, which covers every keccak-digest key the committer uses, are
// converted on the stack; longer ones on the heap.
class NibblePath {
 public:
  explicit NibblePath(BytesView key) : size_(key.size() * 2) {
    uint8_t* out = inline_.data();
    if (size_ > inline_.size()) {
      heap_.resize(size_);
      out = heap_.data();
    }
    for (uint8_t b : key) {
      *out++ = b >> 4;
      *out++ = b & 0xf;
    }
  }

  BytesView view() const {
    return BytesView(size_ > inline_.size() ? heap_.data() : inline_.data(), size_);
  }

 private:
  std::array<uint8_t, 64> inline_;
  Bytes heap_;
  size_t size_;
};

// Hex-prefix encoding (yellow paper appendix C) of a nibble path, written as
// an RLP byte string: its encoded size, and the writer.
size_t HexPrefixRlpSize(size_t nibbles) {
  const size_t len = nibbles / 2 + 1;
  return len == 1 ? 1 : RlpHeaderSize(len) + len;
}

void AppendHexPrefixRlp(Bytes& out, BytesView nibbles, bool is_leaf) {
  const size_t len = nibbles.size() / 2 + 1;
  if (len > 1) {
    RlpAppendStringHeader(out, len);  // A lone flag byte (< 0x80) encodes as itself.
  }
  const uint8_t flag = is_leaf ? 2 : 0;
  size_t i = 0;
  if (nibbles.size() % 2 != 0) {
    out.push_back(static_cast<uint8_t>(((flag | 1) << 4) | nibbles[0]));
    i = 1;
  } else {
    out.push_back(static_cast<uint8_t>(flag << 4));
  }
  for (; i < nibbles.size(); i += 2) {
    out.push_back(static_cast<uint8_t>((nibbles[i] << 4) | nibbles[i + 1]));
  }
}

// Writes a leaf or extension node, [hex-prefix(path), second], into `out`:
// `second` is a leaf's value (encoded here as a byte string) or an
// extension's child reference (already RLP). `out` is sized once up front.
void WriteShortNode(Bytes& out, BytesView path, bool is_leaf, BytesView second) {
  const size_t payload =
      HexPrefixRlpSize(path.size()) + (is_leaf ? RlpBytesSize(second) : second.size());
  out.clear();
  out.reserve(RlpHeaderSize(payload) + payload);
  RlpAppendListHeader(out, payload);
  AppendHexPrefixRlp(out, path, is_leaf);
  if (is_leaf) {
    RlpAppendBytes(out, second);
  } else {
    out.insert(out.end(), second.begin(), second.end());
  }
}

// Writes a branch node, [ref_0 .. ref_15, value], into `out`: an empty ref
// is an absent child (the empty string; a present child's ref never is).
void WriteBranchNode(Bytes& out, const std::array<BytesView, 16>& refs, BytesView value) {
  size_t payload = RlpBytesSize(value);
  for (BytesView ref : refs) {
    payload += ref.empty() ? 1 : ref.size();
  }
  out.clear();
  out.reserve(RlpHeaderSize(payload) + payload);
  RlpAppendListHeader(out, payload);
  for (BytesView ref : refs) {
    if (ref.empty()) {
      out.push_back(0x80);
    } else {
      out.insert(out.end(), ref.begin(), ref.end());
    }
  }
  RlpAppendBytes(out, value);
}

size_t CommonPrefix(BytesView a, BytesView b) {
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) {
    ++i;
  }
  return i;
}

}  // namespace

struct MerklePatriciaTrie::Node {
  enum class Type { kLeaf, kExtension, kBranch };

  explicit Node(Type t) : type(t) {}

  Type type;
  Bytes path;   // Nibble path for leaf/extension nodes.
  Bytes value;  // Leaf value, or the value stored at a branch.
  std::array<std::unique_ptr<Node>, 16> children;  // Branch children.
  std::unique_ptr<Node> child;                     // Extension child.

  // Incremental-root memo: the node's RLP encoding and its parent-visible
  // reference, recomputed lazily after a mutation dirtied this node. The
  // mutation path clears them (size only: the encoding buffer keeps its
  // capacity) and marks them invalid, so a stale memo can never be observed;
  // Encode and Ref then rewrite them in place, so re-encoding a retained node
  // allocates nothing. A reference is at most 33 bytes (0xa0 || hash), so it
  // lives in the node, where a parent's encoding reads it without a second
  // pointer chase.
  mutable Bytes enc_memo;
  mutable std::array<uint8_t, 33> ref_memo;
  mutable uint8_t ref_size = 0;
  mutable bool enc_valid = false;
  mutable bool ref_valid = false;

  // Durability memo: true once HarvestDirtyNodes emitted (or skipped, for
  // inlined nodes) this node since its last mutation. Cleared together with
  // the encoding memo, so "persisted" implies the whole subtree is unchanged
  // since the last harvest.
  mutable bool persisted = false;
};

namespace {

using Node = MerklePatriciaTrie::Node;
using Type = Node::Type;

// Marks a node whose subtree (or own path/value) changed: both memos are
// stale. Fresh nodes start invalid, so only retained nodes need this.
// clear() keeps the memo buffers' capacity for the next Encode / Ref.
void Dirty(Node* node) {
  node->enc_valid = false;
  node->ref_valid = false;
  node->enc_memo.clear();
  node->ref_size = 0;
  node->persisted = false;
}

std::unique_ptr<Node> MakeLeaf(BytesView nibbles, BytesView value) {
  auto n = std::make_unique<Node>(Type::kLeaf);
  n->path.assign(nibbles.begin(), nibbles.end());
  n->value.assign(value.begin(), value.end());
  return n;
}

// Inserts into `node` (which may be null) and returns the new subtree root.
// Sets `*replaced` if an existing key's value was overwritten. Every retained
// node on the mutation spine is dirtied; untouched subtrees keep their memos.
std::unique_ptr<Node> Insert(std::unique_ptr<Node> node, BytesView nibbles, BytesView value,
                             bool* replaced) {
  if (node == nullptr) {
    return MakeLeaf(nibbles, value);
  }
  switch (node->type) {
    case Type::kBranch: {
      Dirty(node.get());
      if (nibbles.empty()) {
        *replaced = !node->value.empty();
        node->value.assign(value.begin(), value.end());
        return node;
      }
      uint8_t idx = nibbles[0];
      node->children[idx] =
          Insert(std::move(node->children[idx]), nibbles.subspan(1), value, replaced);
      return node;
    }
    case Type::kLeaf: {
      size_t cp = CommonPrefix(node->path, nibbles);
      if (cp == node->path.size() && cp == nibbles.size()) {
        *replaced = true;
        Dirty(node.get());
        node->value.assign(value.begin(), value.end());
        return node;
      }
      // Split into a branch (possibly under an extension for the shared prefix).
      auto branch = std::make_unique<Node>(Type::kBranch);
      BytesView old_rest = BytesView(node->path).subspan(cp);
      if (old_rest.empty()) {
        branch->value = node->value;
      } else {
        branch->children[old_rest[0]] = MakeLeaf(old_rest.subspan(1), node->value);
      }
      BytesView new_rest = nibbles.subspan(cp);
      if (new_rest.empty()) {
        branch->value.assign(value.begin(), value.end());
      } else {
        branch->children[new_rest[0]] = MakeLeaf(new_rest.subspan(1), value);
      }
      if (cp == 0) {
        return branch;
      }
      auto ext = std::make_unique<Node>(Type::kExtension);
      ext->path.assign(nibbles.begin(), nibbles.begin() + static_cast<long>(cp));
      ext->child = std::move(branch);
      return ext;
    }
    case Type::kExtension: {
      size_t cp = CommonPrefix(node->path, nibbles);
      if (cp == node->path.size()) {
        Dirty(node.get());
        node->child = Insert(std::move(node->child), nibbles.subspan(cp), value, replaced);
        return node;
      }
      // Diverges inside the extension path: split it. The moved-down child
      // subtree is unchanged, so its memo stays valid.
      auto branch = std::make_unique<Node>(Type::kBranch);
      // Remainder of the existing extension (after cp and the branch nibble).
      uint8_t old_nib = node->path[cp];
      Bytes old_tail(node->path.begin() + static_cast<long>(cp) + 1, node->path.end());
      if (old_tail.empty()) {
        branch->children[old_nib] = std::move(node->child);
      } else {
        auto sub = std::make_unique<Node>(Type::kExtension);
        sub->path = std::move(old_tail);
        sub->child = std::move(node->child);
        branch->children[old_nib] = std::move(sub);
      }
      BytesView new_rest = nibbles.subspan(cp);
      if (new_rest.empty()) {
        branch->value.assign(value.begin(), value.end());
      } else {
        branch->children[new_rest[0]] = MakeLeaf(new_rest.subspan(1), value);
      }
      if (cp == 0) {
        return branch;
      }
      auto ext = std::make_unique<Node>(Type::kExtension);
      ext->path.assign(nibbles.begin(), nibbles.begin() + static_cast<long>(cp));
      ext->child = std::move(branch);
      return ext;
    }
  }
  return node;  // Unreachable.
}

// Rebuilds the canonical form after a deletion left `node` possibly
// degenerate (an extension whose child is a leaf/extension, or a branch with
// a single remaining slot). Nodes whose path grows are dirtied; subtrees
// adopted without modification keep their memos.
std::unique_ptr<Node> Canonicalize(std::unique_ptr<Node> node) {
  if (node == nullptr) {
    return nullptr;
  }
  if (node->type == Type::kExtension) {
    Node* child = node->child.get();
    if (child == nullptr) {
      return nullptr;
    }
    if (child->type == Type::kLeaf || child->type == Type::kExtension) {
      // extension(p) + leaf/extension(q) => leaf/extension(p ++ q).
      Dirty(child);
      child->path.insert(child->path.begin(), node->path.begin(), node->path.end());
      return std::move(node->child);
    }
    return node;  // extension + branch: already canonical.
  }
  if (node->type == Type::kBranch) {
    int live = -1;
    int count = 0;
    for (int i = 0; i < 16; ++i) {
      if (node->children[static_cast<size_t>(i)] != nullptr) {
        live = i;
        ++count;
      }
    }
    if (count == 0) {
      if (node->value.empty()) {
        return nullptr;
      }
      // Only the branch value remains: a leaf with an empty path.
      auto leaf = std::make_unique<Node>(Type::kLeaf);
      leaf->value = std::move(node->value);
      return leaf;
    }
    if (count == 1 && node->value.empty()) {
      // One child left: absorb the branch nibble into it.
      std::unique_ptr<Node> child = std::move(node->children[static_cast<size_t>(live)]);
      uint8_t nib = static_cast<uint8_t>(live);
      if (child->type == Type::kBranch) {
        auto ext = std::make_unique<Node>(Type::kExtension);
        ext->path = {nib};
        ext->child = std::move(child);
        return ext;
      }
      Dirty(child.get());
      child->path.insert(child->path.begin(), nib);
      return child;  // Leaf or extension: path prefix grows by the nibble.
    }
    return node;
  }
  return node;
}

// Removes `nibbles` from the subtree; sets *removed when the key existed.
std::unique_ptr<Node> Remove(std::unique_ptr<Node> node, BytesView nibbles, bool* removed) {
  if (node == nullptr) {
    return nullptr;
  }
  switch (node->type) {
    case Type::kLeaf: {
      if (nibbles.size() == node->path.size() &&
          std::equal(nibbles.begin(), nibbles.end(), node->path.begin())) {
        *removed = true;
        return nullptr;
      }
      return node;
    }
    case Type::kExtension: {
      if (nibbles.size() < node->path.size() ||
          !std::equal(node->path.begin(), node->path.end(), nibbles.begin())) {
        return node;
      }
      node->child = Remove(std::move(node->child), nibbles.subspan(node->path.size()), removed);
      if (!*removed) {
        return node;
      }
      Dirty(node.get());
      return Canonicalize(std::move(node));
    }
    case Type::kBranch: {
      if (nibbles.empty()) {
        if (node->value.empty()) {
          return node;
        }
        node->value.clear();
        *removed = true;
        Dirty(node.get());
        return Canonicalize(std::move(node));
      }
      uint8_t idx = nibbles[0];
      node->children[idx] = Remove(std::move(node->children[idx]), nibbles.subspan(1), removed);
      if (!*removed) {
        return node;
      }
      Dirty(node.get());
      return Canonicalize(std::move(node));
    }
  }
  return node;
}

const Bytes& Encode(const Node* node);
void HashDirty(std::span<const Node* const> roots);

// RLP item that refers to a child: the node's encoding if shorter than 32
// bytes, otherwise the RLP of its keccak hash. Memoized per node; a stale
// memo is recomputed, together with every stale one below it, by HashDirty.
BytesView Ref(const Node* node) {
  if (!node->ref_valid) {
    HashDirty(std::span<const Node* const>(&node, 1));
  }
  return BytesView(node->ref_memo.data(), node->ref_size);
}

// keccak(encoding), the key a node is stored under; for a hash-referenced
// node it is read back from the reference memo instead of re-hashed.
Hash256 NodeHash(const Node* node) {
  const Bytes& enc = Encode(node);
  if (enc.size() < 32) {
    return Keccak256(enc);
  }
  BytesView ref = Ref(node);
  Hash256 h;
  std::copy(ref.begin() + 1, ref.end(), h.begin());
  return h;
}

const Bytes& Encode(const Node* node) {
  if (node->enc_valid) {
    return node->enc_memo;
  }
  switch (node->type) {
    case Type::kLeaf:
      WriteShortNode(node->enc_memo, node->path, /*is_leaf=*/true, node->value);
      break;
    case Type::kExtension:
      WriteShortNode(node->enc_memo, node->path, /*is_leaf=*/false, Ref(node->child.get()));
      break;
    case Type::kBranch: {
      std::array<BytesView, 16> refs;
      for (size_t i = 0; i < 16; ++i) {
        refs[i] = node->children[i] ? Ref(node->children[i].get()) : BytesView();
      }
      WriteBranchNode(node->enc_memo, refs, node->value);
      break;
    }
  }
  node->enc_valid = true;
  return node->enc_memo;
}

// --- Level-ordered hashing: the one path that fills reference memos. ---
//
// A node whose reference memo is valid roots a fully memoized subtree,
// because every mutation dirties its whole spine up to the root. HashDirty
// therefore visits only the stale region under its roots, files each stale
// node under its height (0 when none of its children is stale, else one more
// than its tallest stale child), and then works up from height 0: it encodes
// every node of a level, whose children's references are all memoized by
// then, keeps encodings under 32 bytes as their own reference, and hashes
// the rest in one Keccak256Batch call. Each node's encoding and hash are the
// ones the node-by-node recursion would compute, so roots cannot move; only
// the order changes, which lets independent hashes share the vector lanes.

struct HashScratch {
  std::vector<std::vector<const Node*>> levels;
  std::vector<const Node*> roots;
  std::vector<const Node*> hashed;
  std::vector<BytesView> inputs;
  std::vector<Hash256> digests;
};

// Per thread: the shard-parallel committer hashes from its pool threads.
HashScratch& Scratch() {
  thread_local HashScratch scratch;
  return scratch;
}

size_t CollectStale(const Node* node, std::vector<std::vector<const Node*>>& levels) {
  size_t height = 0;
  auto visit = [&](const Node* child) {
    if (child != nullptr && !child->ref_valid) {
      height = std::max(height, CollectStale(child, levels) + 1);
    }
  };
  switch (node->type) {
    case Type::kLeaf:
      break;
    case Type::kExtension:
      visit(node->child.get());
      break;
    case Type::kBranch:
      for (const auto& child : node->children) {
        visit(child.get());
      }
      break;
  }
  if (levels.size() <= height) {
    levels.resize(height + 1);
  }
  levels[height].push_back(node);
  return height;
}

void HashDirty(std::span<const Node* const> roots) {
  HashScratch& s = Scratch();
  size_t top = 0;
  bool stale = false;
  for (const Node* root : roots) {
    if (root != nullptr && !root->ref_valid) {
      top = std::max(top, CollectStale(root, s.levels));
      stale = true;
    }
  }
  if (!stale) {
    return;
  }
  for (size_t height = 0; height <= top; ++height) {
    s.hashed.clear();
    for (const Node* node : s.levels[height]) {
      const Bytes& enc = Encode(node);
      if (enc.size() < 32) {
        std::copy(enc.begin(), enc.end(), node->ref_memo.begin());
        node->ref_size = static_cast<uint8_t>(enc.size());
        node->ref_valid = true;
      } else {
        s.hashed.push_back(node);
      }
    }
    s.levels[height].clear();
    // Longest inputs first, so the batch's last permutations, where lanes
    // start running dry, are the one-block ones.
    std::sort(s.hashed.begin(), s.hashed.end(), [](const Node* a, const Node* b) {
      return a->enc_memo.size() / 136 > b->enc_memo.size() / 136;
    });
    s.inputs.clear();
    for (const Node* node : s.hashed) {
      s.inputs.emplace_back(node->enc_memo);
    }
    s.digests.resize(s.inputs.size());
    Keccak256Batch(s.inputs, s.digests);
    for (size_t i = 0; i < s.hashed.size(); ++i) {
      const Node* node = s.hashed[i];
      node->ref_memo[0] = 0xa0;  // The RLP string header of a 32-byte hash.
      std::copy(s.digests[i].begin(), s.digests[i].end(), node->ref_memo.begin() + 1);
      node->ref_size = 33;
      node->ref_valid = true;
    }
  }
}

// Post-order walk over the not-yet-persisted region. Children first so a
// store that applies records in emission order always has a node's children
// before the node referencing them (the write-batch is atomic anyway, but the
// invariant costs nothing and mirrors how real node stores flush).
size_t Harvest(const Node* node, bool is_root, const MerklePatriciaTrie::NodeSink* sink) {
  if (node == nullptr || node->persisted) {
    return 0;
  }
  size_t emitted = 0;
  switch (node->type) {
    case Type::kLeaf:
      break;
    case Type::kExtension:
      emitted += Harvest(node->child.get(), /*is_root=*/false, sink);
      break;
    case Type::kBranch:
      for (const auto& child : node->children) {
        emitted += Harvest(child.get(), /*is_root=*/false, sink);
      }
      break;
  }
  const Bytes& enc = Encode(node);
  // Nodes shorter than 32 bytes are inlined into their parent's encoding and
  // never stored standalone; the root is always stored under its hash.
  if (enc.size() >= 32 || is_root) {
    if (sink != nullptr) {
      (*sink)(NodeHash(node), BytesView(enc.data(), enc.size()));
    }
    ++emitted;
  }
  node->persisted = true;
  return emitted;
}

// Shared lookup walk from an arbitrary subtree root. `rest` is the remaining
// nibble path (already stripped of whatever the caller consumed).
std::optional<Bytes> Lookup(const Node* node, BytesView rest) {
  while (node != nullptr) {
    switch (node->type) {
      case Type::kLeaf: {
        if (rest.size() == node->path.size() &&
            std::equal(rest.begin(), rest.end(), node->path.begin())) {
          return node->value;
        }
        return std::nullopt;
      }
      case Type::kExtension: {
        if (rest.size() < node->path.size() ||
            !std::equal(node->path.begin(), node->path.end(), rest.begin())) {
          return std::nullopt;
        }
        rest = rest.subspan(node->path.size());
        node = node->child.get();
        break;
      }
      case Type::kBranch: {
        if (rest.empty()) {
          if (node->value.empty()) {
            return std::nullopt;
          }
          return node->value;
        }
        node = node->children[rest[0]].get();
        rest = rest.subspan(1);
        break;
      }
    }
  }
  return std::nullopt;
}

}  // namespace

size_t MerklePatriciaTrie::HarvestDirtyNodes(const NodeSink& sink) const {
  return Harvest(root_.get(), /*is_root=*/true, &sink);
}

void MerklePatriciaTrie::MarkAllPersisted() const {
  Harvest(root_.get(), /*is_root=*/true, nullptr);
}

MerklePatriciaTrie::MerklePatriciaTrie() = default;
MerklePatriciaTrie::~MerklePatriciaTrie() = default;
MerklePatriciaTrie::MerklePatriciaTrie(MerklePatriciaTrie&&) noexcept = default;
MerklePatriciaTrie& MerklePatriciaTrie::operator=(MerklePatriciaTrie&&) noexcept = default;

void MerklePatriciaTrie::Put(BytesView key, BytesView value) {
  assert(!value.empty());
  const NibblePath nibbles(key);
  bool replaced = false;
  root_ = Insert(std::move(root_), nibbles.view(), value, &replaced);
  if (!replaced) {
    ++size_;
  }
}

bool MerklePatriciaTrie::Delete(BytesView key) {
  const NibblePath nibbles(key);
  bool removed = false;
  root_ = Remove(std::move(root_), nibbles.view(), &removed);
  if (removed) {
    --size_;
  }
  return removed;
}

size_t MerklePatriciaTrie::ApplyDiff(std::span<const TrieUpdate> updates) {
  size_t changed = 0;
  for (const TrieUpdate& update : updates) {
    if (update.value.empty()) {
      changed += Delete(update.key) ? 1 : 0;
    } else {
      size_t before = size_;
      Put(update.key, update.value);
      changed += size_ != before ? 1 : 0;
    }
  }
  return changed;
}

std::optional<Bytes> MerklePatriciaTrie::Get(BytesView key) const {
  const NibblePath nibbles(key);
  return Lookup(root_.get(), nibbles.view());
}

Hash256 MerklePatriciaTrie::RootHash() const {
  if (root_ == nullptr) {
    return kEmptyTrieRoot;
  }
  // Ref first: it re-hashes the whole stale region level by level, so
  // NodeHash's Encode finds every child reference memoized.
  Ref(root_.get());
  return NodeHash(root_.get());
}

void MerklePatriciaTrie::Prehash(std::span<const MerklePatriciaTrie* const> tries) {
  HashScratch& s = Scratch();
  s.roots.clear();
  for (const MerklePatriciaTrie* trie : tries) {
    s.roots.push_back(trie->root_.get());
  }
  HashDirty(s.roots);
}

// --- ShardedMpt -------------------------------------------------------------
//
// Invariant: shard i holds exactly the monolithic keys whose first nibble is
// i, stored over the remaining nibbles. Three shapes the monolithic root can
// take, and how the join reproduces each bit-identically:
//   0 live shards  — the canonical empty root.
//   1 live shard i — the monolithic trie has no root branch. A leaf/extension
//                    shard root merges with the nibble: the join emits the
//                    same node with path {i} ++ shard_path. A branch shard
//                    root is a real monolithic node (the child of an
//                    extension with path {i}); the join emits that extension.
//   >= 2 live      — the monolithic root is a branch with no value (keys are
//                    non-empty) whose child i is exactly shard i's root.

ShardedMpt::ShardedMpt() = default;
ShardedMpt::~ShardedMpt() = default;
ShardedMpt::ShardedMpt(ShardedMpt&&) noexcept = default;
ShardedMpt& ShardedMpt::operator=(ShardedMpt&&) noexcept = default;

int ShardedMpt::ShardOf(BytesView key) {
  assert(!key.empty());
  return key[0] >> 4;
}

void ShardedMpt::Put(BytesView key, BytesView value) {
  assert(!value.empty());
  const int shard = ShardOf(key);
  const NibblePath nibbles(key);
  bool replaced = false;
  roots_[shard] = Insert(std::move(roots_[shard]), nibbles.view().subspan(1), value, &replaced);
  if (!replaced) {
    ++sizes_[shard];
  }
  mutated_[shard] = true;
}

std::optional<Bytes> ShardedMpt::Get(BytesView key) const {
  const int shard = ShardOf(key);
  const NibblePath nibbles(key);
  return Lookup(roots_[shard].get(), nibbles.view().subspan(1));
}

bool ShardedMpt::Delete(BytesView key) {
  const int shard = ShardOf(key);
  const NibblePath nibbles(key);
  bool removed = false;
  roots_[shard] = Remove(std::move(roots_[shard]), nibbles.view().subspan(1), &removed);
  if (removed) {
    --sizes_[shard];
    mutated_[shard] = true;
  }
  return removed;
}

size_t ShardedMpt::ApplyDiff(std::span<const TrieUpdate> updates) {
  size_t changed = 0;
  for (const TrieUpdate& update : updates) {
    if (update.value.empty()) {
      changed += Delete(update.key) ? 1 : 0;
    } else {
      const int shard = ShardOf(update.key);
      size_t before = sizes_[shard];
      Put(update.key, update.value);
      changed += sizes_[shard] != before ? 1 : 0;
    }
  }
  return changed;
}

size_t ShardedMpt::ApplyShardDiff(int shard, std::span<const TrieUpdate> updates) {
  size_t changed = 0;
  for (const TrieUpdate& update : updates) {
    assert(ShardOf(update.key) == shard);
    if (update.value.empty()) {
      changed += Delete(update.key) ? 1 : 0;
    } else {
      size_t before = sizes_[shard];
      Put(update.key, update.value);
      changed += sizes_[shard] != before ? 1 : 0;
    }
  }
  return changed;
}

void ShardedMpt::PrehashShard(int shard) const {
  const Node* root = roots_[shard].get();
  HashDirty(std::span<const Node* const>(&root, 1));
}

size_t ShardedMpt::size() const {
  size_t total = 0;
  for (size_t s : sizes_) {
    total += s;
  }
  return total;
}

int ShardedMpt::LiveCount(int* lone) const {
  int live = 0;
  for (int i = 0; i < kShards; ++i) {
    if (roots_[i] != nullptr) {
      ++live;
      *lone = i;
    }
  }
  return live;
}

// The monolithic root's RLP encoding, reassembled from shard references.
Bytes ShardedMpt::JoinEncoding() const {
  int lone = -1;
  const int live = LiveCount(&lone);
  assert(live > 0);
  Bytes out;
  if (live == 1) {
    const Node* shard_root = roots_[lone].get();
    if (shard_root->type == Type::kBranch) {
      // extension({lone}) -> shard branch.
      const uint8_t nibble = static_cast<uint8_t>(lone);
      WriteShortNode(out, BytesView(&nibble, 1), /*is_leaf=*/false, Ref(shard_root));
    } else {
      // The shard root itself with the nibble prepended to its path.
      Bytes path;
      path.reserve(1 + shard_root->path.size());
      path.push_back(static_cast<uint8_t>(lone));
      path.insert(path.end(), shard_root->path.begin(), shard_root->path.end());
      const bool is_leaf = shard_root->type == Type::kLeaf;
      WriteShortNode(out, path, is_leaf,
                     is_leaf ? BytesView(shard_root->value)
                             : Ref(shard_root->child.get()));
    }
  } else {
    std::array<BytesView, kShards> refs;
    for (int i = 0; i < kShards; ++i) {
      refs[i] = roots_[i] ? Ref(roots_[i].get()) : BytesView();
    }
    WriteBranchNode(out, refs, {});  // No value: every key has >= 2 nibbles.
  }
  return out;
}

Hash256 ShardedMpt::RootHash() const {
  int lone = -1;
  if (LiveCount(&lone) == 0) {
    return kEmptyTrieRoot;
  }
  std::array<const Node*, kShards> roots;
  for (int i = 0; i < kShards; ++i) {
    roots[i] = roots_[i].get();
  }
  HashDirty(roots);
  return Keccak256(JoinEncoding());
}

void ShardedMpt::PrepareHarvest() const {
  int lone = -1;
  harvest_live_ = LiveCount(&lone);
  if (harvest_live_ >= 2 && merged_shard_ >= 0 && roots_[merged_shard_] != nullptr) {
    // The last harvest published this shard's root only merged into the
    // single-shard join; now that it is a branch child it needs a standalone
    // record (the monolithic restructure would have dirtied it). Its children
    // are already archived, so only the one node re-emits.
    roots_[merged_shard_]->persisted = false;
  }
}

size_t ShardedMpt::HarvestShardImpl(int shard, const NodeSink* sink) const {
  const Node* shard_root = roots_[shard].get();
  if (shard_root == nullptr) {
    return 0;
  }
  if (harvest_live_ == 1 && shard_root->type != Type::kBranch) {
    // Merged case: the shard root is not a monolithic node (FinishHarvest
    // emits the merged join instead), but its subtree is. Harvest below it
    // and mark the node clean so unchanged spines skip next time.
    size_t emitted = 0;
    if (shard_root->type == Type::kExtension) {
      emitted = Harvest(shard_root->child.get(), /*is_root=*/false, sink);
    }
    shard_root->persisted = true;
    return emitted;
  }
  return Harvest(shard_root, /*is_root=*/false, sink);
}

size_t ShardedMpt::FinishHarvestImpl(const NodeSink* sink) const {
  bool dirty = false;
  for (int i = 0; i < kShards; ++i) {
    dirty = dirty || mutated_[i];
    mutated_[i] = false;
  }
  int lone = -1;
  const int live = LiveCount(&lone);
  merged_shard_ = (live == 1 && roots_[lone]->type != Type::kBranch) ? lone : -1;
  if (!dirty || live == 0) {
    return 0;  // Nothing mutated (or empty trie: the monolithic root is null).
  }
  Bytes enc = JoinEncoding();
  if (sink != nullptr) {
    (*sink)(Keccak256(enc), BytesView(enc.data(), enc.size()));
  }
  return 1;  // The root is always emitted, matching the monolithic harvest.
}

size_t ShardedMpt::HarvestDirtyNodes(const NodeSink& sink) const {
  PrepareHarvest();
  size_t emitted = 0;
  for (int shard = 0; shard < kShards; ++shard) {
    emitted += HarvestShardImpl(shard, &sink);
  }
  return emitted + FinishHarvestImpl(&sink);
}

void ShardedMpt::MarkAllPersisted() const {
  PrepareHarvest();
  for (int shard = 0; shard < kShards; ++shard) {
    HarvestShardImpl(shard, nullptr);
  }
  FinishHarvestImpl(nullptr);
}

size_t ShardedMpt::HarvestShard(int shard, const NodeSink& sink) const {
  return HarvestShardImpl(shard, &sink);
}

size_t ShardedMpt::FinishHarvest(const NodeSink& sink) const {
  return FinishHarvestImpl(&sink);
}

}  // namespace pevm
