#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "src/support/bytes.h"
#include "src/trie/mpt.h"

namespace pevm {
namespace {

Bytes B(std::string_view s) { return Bytes(s.begin(), s.end()); }

TEST(MptTest, EmptyTrieHasCanonicalRoot) {
  MerklePatriciaTrie trie;
  // keccak(rlp("")) — the universally known empty-trie root.
  EXPECT_EQ(HexEncode(trie.RootHash()),
            "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
}

TEST(MptTest, SingleEntryKnownRoot) {
  // From the canonical trie test suite ("singleItem"-style): the trie
  // {"A": "aaaa.."x2} has a stable root; here we lock in our own computed
  // value as a regression anchor and verify Get round-trips.
  MerklePatriciaTrie trie;
  trie.Put(B("A"), B("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"));
  EXPECT_EQ(trie.Get(B("A")),
            B("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"));
  EXPECT_EQ(HexEncode(trie.RootHash()),
            "d23786fb4a010da3ce639d66d5e904a11dbc02746d1ce25029e53290cabf28ab");
}

TEST(MptTest, EthereumFooBarVector) {
  // From the Ethereum cpp/go trie tests: {"foo": "bar", "food": "bass"}.
  MerklePatriciaTrie trie;
  trie.Put(B("foo"), B("bar"));
  trie.Put(B("food"), B("bass"));
  EXPECT_EQ(HexEncode(trie.RootHash()),
            "17beaa1648bafa633cda809c90c04af50fc8aed3cb40d16efbddee6fdf63c4c3");
}

TEST(MptTest, EthereumDogeVector) {
  // From the Ethereum trie tests (puppy/coin/doge set, insertion order free).
  MerklePatriciaTrie trie;
  trie.Put(B("do"), B("verb"));
  trie.Put(B("horse"), B("stallion"));
  trie.Put(B("doge"), B("coin"));
  trie.Put(B("dog"), B("puppy"));
  EXPECT_EQ(HexEncode(trie.RootHash()),
            "5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84");
}

TEST(MptTest, InsertionOrderDoesNotChangeRoot) {
  std::vector<std::pair<Bytes, Bytes>> kvs = {
      {B("do"), B("verb")}, {B("horse"), B("stallion")}, {B("doge"), B("coin")},
      {B("dog"), B("puppy")}, {B("dodge"), B("car")},    {B("a"), B("x")},
  };
  MerklePatriciaTrie a;
  for (const auto& [k, v] : kvs) {
    a.Put(k, v);
  }
  MerklePatriciaTrie b;
  for (auto it = kvs.rbegin(); it != kvs.rend(); ++it) {
    b.Put(it->first, it->second);
  }
  EXPECT_EQ(HexEncode(a.RootHash()), HexEncode(b.RootHash()));
}

TEST(MptTest, ReplaceValueChangesRootAndKeepsSize) {
  MerklePatriciaTrie trie;
  trie.Put(B("key"), B("one"));
  Hash256 r1 = trie.RootHash();
  trie.Put(B("key"), B("two"));
  EXPECT_NE(HexEncode(r1), HexEncode(trie.RootHash()));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.Get(B("key")), B("two"));
}

TEST(MptTest, GetMissingKeys) {
  MerklePatriciaTrie trie;
  EXPECT_FALSE(trie.Get(B("nothing")).has_value());
  trie.Put(B("doge"), B("coin"));
  EXPECT_FALSE(trie.Get(B("dog")).has_value());   // Prefix of an existing key.
  EXPECT_FALSE(trie.Get(B("doges")).has_value()); // Extension past a leaf.
  EXPECT_FALSE(trie.Get(B("cat")).has_value());
}

TEST(MptTest, BranchValueHandling) {
  MerklePatriciaTrie trie;
  trie.Put(B("dog"), B("puppy"));
  trie.Put(B("doge"), B("coin"));   // "dog" value moves into the branch.
  trie.Put(B("dogs"), B("many"));
  EXPECT_EQ(trie.Get(B("dog")), B("puppy"));
  EXPECT_EQ(trie.Get(B("doge")), B("coin"));
  EXPECT_EQ(trie.Get(B("dogs")), B("many"));
  EXPECT_EQ(trie.size(), 3u);
}

// Property test: the trie agrees with a std::map oracle and the root is a
// pure function of contents.
class MptPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MptPropertyTest, RandomKeyValueAgreement) {
  std::mt19937_64 rng(GetParam());
  std::map<Bytes, Bytes> oracle;
  MerklePatriciaTrie trie;
  for (int i = 0; i < 400; ++i) {
    size_t key_len = 1 + rng() % 8;
    Bytes key(key_len);
    for (auto& b : key) {
      b = static_cast<uint8_t>(rng() % 4);  // Small alphabet forces shared prefixes.
    }
    Bytes value = {static_cast<uint8_t>(rng() % 255 + 1)};
    oracle[key] = value;
    trie.Put(key, value);
  }
  EXPECT_EQ(trie.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(trie.Get(k), v) << HexEncode(k);
  }
  // Rebuild in sorted order: identical root.
  MerklePatriciaTrie rebuilt;
  for (const auto& [k, v] : oracle) {
    rebuilt.Put(k, v);
  }
  EXPECT_EQ(HexEncode(trie.RootHash()), HexEncode(rebuilt.RootHash()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MptPropertyTest, ::testing::Values(11, 22, 33, 44));

// --- Roots pinned across implementations ---
//
// The property suites compare the trie with itself, so an encoding that was
// wrong but self-consistent would pass them. These roots were computed by the
// node encoder that preceded the append-style RLP writers (one separately
// encoded item per list element, then joined), over a seeded stream that
// reaches every encoding shape: 1-4 byte keys over a six-byte alphabet (so
// keys that prefix other keys leave values in branch nodes), values of 1-120
// bytes (short leaves inline into their parent under 32 bytes; values and
// nodes past 55 bytes take long-form RLP headers), and every third operation
// deleting an earlier key (collapsing branches and merging paths). The root
// is checked after every 300 operations.

std::vector<TrieUpdate> PinnedStream() {
  static constexpr uint8_t kAlphabet[] = {0x00, 0x01, 0x10, 0x1f, 0xa5, 0xff};
  std::mt19937_64 rng(20250317);
  std::vector<Bytes> inserted;
  std::vector<TrieUpdate> stream;
  for (int i = 0; i < 1200; ++i) {
    TrieUpdate update;
    if (i % 3 == 2) {
      update.key = inserted[rng() % inserted.size()];  // Empty value: delete.
    } else {
      update.key.resize(1 + rng() % 4);
      for (uint8_t& b : update.key) {
        b = kAlphabet[rng() % std::size(kAlphabet)];
      }
      update.value.resize(1 + rng() % 120);
      for (uint8_t& b : update.value) {
        b = static_cast<uint8_t>(rng());
      }
      inserted.push_back(update.key);
    }
    stream.push_back(std::move(update));
  }
  return stream;
}

constexpr const char* kPinnedStreamRoots[] = {
    "22add1b682282408ea87b2b24a1c203bbb96a53bc5edb29c8b0c1aff29284087",
    "16de8104d2f7cd9a453b7b1030a468c4e14040d65189deff21f2993a15cca2d7",
    "2a67d843010efabf400b8e061e9fde667934f4e6e2e06027c75b42487d8a655b",
    "fb33b4b79c773d8c9135fffc21e986dfa731be7e2463b086fe8cbfa65e12ca1c",
};

template <typename Trie>
void ExpectPinnedStreamRoots() {
  const std::vector<TrieUpdate> stream = PinnedStream();
  Trie trie;
  for (size_t i = 0; i < stream.size(); ++i) {
    trie.ApplyDiff(std::span<const TrieUpdate>(&stream[i], 1));
    if ((i + 1) % 300 == 0) {
      EXPECT_EQ(HexEncode(trie.RootHash()), kPinnedStreamRoots[i / 300]) << "after " << i + 1;
    }
  }
  EXPECT_EQ(trie.size(), 248u);
}

TEST(MptTest, RootsMatchValuesPinnedAcrossImplementations) {
  ExpectPinnedStreamRoots<MerklePatriciaTrie>();
}

// --- Dirty-node harvest (the durability hook behind src/chain/node_store.h).

using NodeArchive = std::map<Hash256, Bytes>;

// Harvest sink that checks content-addressing on the way in.
size_t HarvestInto(const MerklePatriciaTrie& trie, NodeArchive& archive) {
  return trie.HarvestDirtyNodes([&archive](const Hash256& hash, BytesView encoding) {
    Bytes enc(encoding.begin(), encoding.end());
    EXPECT_EQ(HexEncode(Keccak256(BytesView(enc.data(), enc.size()))), HexEncode(hash));
    archive[hash] = std::move(enc);
  });
}

// Deterministic fuzz contents shared by the harvest tests.
std::map<Bytes, Bytes> RandomContents(uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::map<Bytes, Bytes> contents;
  for (int i = 0; i < n; ++i) {
    Bytes key(1 + rng() % 8);
    for (auto& b : key) {
      b = static_cast<uint8_t>(rng() % 4);
    }
    Bytes value(1 + rng() % 40);
    for (auto& b : value) {
      b = static_cast<uint8_t>(rng());
    }
    contents[key] = value;
  }
  return contents;
}

TEST(MptHarvestTest, FreshHarvestEmitsEverythingOnceThenNothing) {
  MerklePatriciaTrie trie;
  for (const auto& [k, v] : RandomContents(51, 200)) {
    trie.Put(k, v);
  }
  NodeArchive archive;
  size_t emitted = HarvestInto(trie, archive);
  EXPECT_GT(emitted, 0u);
  EXPECT_EQ(archive.size(), emitted);  // Content addressing: no duplicates.
  // The root is always in the archive (Ethereum's hashed-root convention).
  EXPECT_TRUE(archive.contains(trie.RootHash()));
  // A clean trie harvests empty.
  EXPECT_EQ(HarvestInto(trie, archive), 0u);
}

TEST(MptHarvestTest, MarkAllPersistedSuppressesEmissionUntilNextMutation) {
  MerklePatriciaTrie trie;
  for (const auto& [k, v] : RandomContents(52, 150)) {
    trie.Put(k, v);
  }
  trie.MarkAllPersisted();
  NodeArchive archive;
  EXPECT_EQ(HarvestInto(trie, archive), 0u);
  trie.Put(B("freshkey"), B("freshvalue"));
  EXPECT_GT(HarvestInto(trie, archive), 0u);
}

// The archive-completeness property resume depends on: accumulating every
// incremental harvest yields an archive that contains every node of the
// *final* trie — i.e. a reader holding the last root could resolve the whole
// state from the store, even though each harvest only walked a dirty spine.
TEST(MptHarvestTest, AccumulatedIncrementalHarvestsCoverTheFinalTrie) {
  std::mt19937_64 rng(53);
  std::map<Bytes, Bytes> oracle;
  MerklePatriciaTrie trie;
  NodeArchive archive;
  size_t total_incremental = 0;
  size_t full_rebuild_nodes = 0;
  for (int round = 0; round < 12; ++round) {
    // A batch of puts and deletes, then one harvest (one "block").
    std::vector<TrieUpdate> updates;
    for (int i = 0; i < 30; ++i) {
      Bytes key(1 + rng() % 6);
      for (auto& b : key) {
        b = static_cast<uint8_t>(rng() % 4);
      }
      TrieUpdate update;
      update.key = key;
      if (rng() % 4 == 0) {
        oracle.erase(key);  // Empty value = delete.
      } else {
        update.value = Bytes{static_cast<uint8_t>(rng() % 255 + 1),
                             static_cast<uint8_t>(round)};
        oracle[key] = update.value;
      }
      updates.push_back(std::move(update));
    }
    trie.ApplyDiff(updates);
    total_incremental += HarvestInto(trie, archive);
  }
  // Oracle agreement after the churn.
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(trie.Get(k), v);
  }
  // A from-scratch build of the final contents must find its every node in
  // the accumulated archive.
  MerklePatriciaTrie rebuilt;
  for (const auto& [k, v] : oracle) {
    rebuilt.Put(k, v);
  }
  ASSERT_EQ(HexEncode(rebuilt.RootHash()), HexEncode(trie.RootHash()));
  full_rebuild_nodes = rebuilt.HarvestDirtyNodes([&](const Hash256& hash, BytesView encoding) {
    auto it = archive.find(hash);
    ASSERT_NE(it, archive.end()) << "node missing from archive: " << HexEncode(hash);
    EXPECT_EQ(HexEncode(it->second), HexEncode(Bytes(encoding.begin(), encoding.end())));
  });
  EXPECT_GT(full_rebuild_nodes, 0u);
  // And the harvests really were incremental: across 12 rounds they emitted
  // history (superset), not 12 full copies of the final trie.
  EXPECT_GT(total_incremental, full_rebuild_nodes);
}

// Joint prehash: MerklePatriciaTrie::Prehash over many tries at once must
// leave each with exactly the root and harvest it would reach alone. Twins
// take the same mutations but never see a joint prehash, and on alternate
// rounds harvest before any root is asked for, so their hashes come from the
// per-node path inside the harvest. Keys run to 40 bytes, past the 32 a
// nibble path holds on the stack.
TEST(MptTest, PrehashAcrossTriesMatchesPerTrieRoots) {
  constexpr size_t kTries = 12;
  std::mt19937_64 rng(54);
  std::vector<MerklePatriciaTrie> tries(kTries);
  std::vector<MerklePatriciaTrie> twins(kTries);
  std::vector<std::map<Bytes, Bytes>> oracles(kTries);
  auto harvest = [](const MerklePatriciaTrie& trie) {
    std::map<Hash256, Bytes> nodes;
    trie.HarvestDirtyNodes([&nodes](const Hash256& hash, BytesView encoding) {
      nodes[hash] = Bytes(encoding.begin(), encoding.end());
    });
    return nodes;
  };
  for (int round = 0; round < 8; ++round) {
    for (size_t t = 0; t < kTries; ++t) {
      // Trie 0 stays empty; the others take up to 60 updates a round.
      const int updates = t == 0 ? 0 : static_cast<int>(rng() % 61);
      for (int u = 0; u < updates; ++u) {
        Bytes key(rng() % 4 == 0 ? 33 + rng() % 8 : 1 + rng() % 32);
        for (auto& b : key) {
          b = static_cast<uint8_t>(rng() % 3);  // Few symbols: long shared prefixes.
        }
        if (rng() % 3 == 0 && !oracles[t].empty()) {
          auto victim = oracles[t].begin();
          std::advance(victim, static_cast<long>(rng() % oracles[t].size()));
          key = victim->first;
          ASSERT_TRUE(tries[t].Delete(key));
          ASSERT_TRUE(twins[t].Delete(key));
          oracles[t].erase(victim);
          continue;
        }
        Bytes value(1 + rng() % 48);
        for (auto& b : value) {
          b = static_cast<uint8_t>(rng());
        }
        tries[t].Put(key, value);
        twins[t].Put(key, value);
        oracles[t][key] = value;
      }
    }
    std::vector<const MerklePatriciaTrie*> all;
    for (const MerklePatriciaTrie& trie : tries) {
      all.push_back(&trie);
    }
    MerklePatriciaTrie::Prehash(all);
    for (size_t t = 0; t < kTries; ++t) {
      std::map<Hash256, Bytes> twin_nodes;
      if (round % 2 == 1) {
        twin_nodes = harvest(twins[t]);
      }
      ASSERT_EQ(HexEncode(tries[t].RootHash()), HexEncode(twins[t].RootHash()))
          << "round " << round << ", trie " << t;
      if (round % 2 == 0) {
        twin_nodes = harvest(twins[t]);
      }
      EXPECT_EQ(harvest(tries[t]), twin_nodes) << "round " << round << ", trie " << t;
      for (const auto& [key, value] : oracles[t]) {
        ASSERT_EQ(tries[t].Get(key), value);
      }
    }
  }
  // And the roots are the from-scratch ones.
  for (size_t t = 0; t < kTries; ++t) {
    MerklePatriciaTrie rebuilt;
    for (const auto& [key, value] : oracles[t]) {
      rebuilt.Put(key, value);
    }
    EXPECT_EQ(HexEncode(rebuilt.RootHash()), HexEncode(tries[t].RootHash())) << "trie " << t;
  }
}

// --- Deletion. ---

TEST(MptDeleteTest, DeleteRestoresPriorRoot) {
  MerklePatriciaTrie trie;
  trie.Put(B("dog"), B("puppy"));
  Hash256 before = trie.RootHash();
  trie.Put(B("doge"), B("coin"));
  EXPECT_TRUE(trie.Delete(B("doge")));
  EXPECT_EQ(HexEncode(trie.RootHash()), HexEncode(before));
  EXPECT_EQ(trie.size(), 1u);
}

TEST(MptDeleteTest, DeleteMissingKeyIsNoOp) {
  MerklePatriciaTrie trie;
  trie.Put(B("dog"), B("puppy"));
  Hash256 before = trie.RootHash();
  EXPECT_FALSE(trie.Delete(B("cat")));
  EXPECT_FALSE(trie.Delete(B("do")));     // Prefix of an existing key.
  EXPECT_FALSE(trie.Delete(B("doggo")));  // Extension past a leaf.
  EXPECT_EQ(HexEncode(trie.RootHash()), HexEncode(before));
  EXPECT_EQ(trie.size(), 1u);
}

TEST(MptDeleteTest, DeleteToEmptyTrie) {
  MerklePatriciaTrie trie;
  trie.Put(B("only"), B("one"));
  EXPECT_TRUE(trie.Delete(B("only")));
  EXPECT_EQ(trie.size(), 0u);
  EXPECT_EQ(HexEncode(trie.RootHash()),
            "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
}

TEST(MptDeleteTest, BranchCollapsesAfterDelete) {
  // The canonical doge-set: removing entries must collapse branches back so
  // the root equals a freshly built trie at every step.
  std::vector<std::pair<Bytes, Bytes>> kvs = {
      {B("do"), B("verb")}, {B("horse"), B("stallion")}, {B("doge"), B("coin")},
      {B("dog"), B("puppy")},
  };
  MerklePatriciaTrie trie;
  for (const auto& [k, v] : kvs) {
    trie.Put(k, v);
  }
  // Delete in several orders; after each deletion, compare with a rebuild.
  for (size_t victim = 0; victim < kvs.size(); ++victim) {
    MerklePatriciaTrie mutated;
    for (const auto& [k, v] : kvs) {
      mutated.Put(k, v);
    }
    ASSERT_TRUE(mutated.Delete(kvs[victim].first));
    MerklePatriciaTrie rebuilt;
    for (size_t i = 0; i < kvs.size(); ++i) {
      if (i != victim) {
        rebuilt.Put(kvs[i].first, kvs[i].second);
      }
    }
    EXPECT_EQ(HexEncode(mutated.RootHash()), HexEncode(rebuilt.RootHash()))
        << "victim " << victim;
    EXPECT_FALSE(mutated.Get(kvs[victim].first).has_value());
  }
}

TEST(MptDeleteTest, BranchValueDeletion) {
  MerklePatriciaTrie trie;
  trie.Put(B("dog"), B("puppy"));
  trie.Put(B("doge"), B("coin"));   // "dog"'s value lives in the branch.
  trie.Put(B("dogs"), B("many"));
  ASSERT_TRUE(trie.Delete(B("dog")));
  EXPECT_FALSE(trie.Get(B("dog")).has_value());
  EXPECT_EQ(trie.Get(B("doge")), B("coin"));
  EXPECT_EQ(trie.Get(B("dogs")), B("many"));
  MerklePatriciaTrie rebuilt;
  rebuilt.Put(B("doge"), B("coin"));
  rebuilt.Put(B("dogs"), B("many"));
  EXPECT_EQ(HexEncode(trie.RootHash()), HexEncode(rebuilt.RootHash()));
}

class MptDeletePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MptDeletePropertyTest, RandomInsertDeleteAgainstOracle) {
  std::mt19937_64 rng(GetParam());
  std::map<Bytes, Bytes> oracle;
  MerklePatriciaTrie trie;
  for (int step = 0; step < 600; ++step) {
    size_t key_len = 1 + rng() % 6;
    Bytes key(key_len);
    for (auto& b : key) {
      b = static_cast<uint8_t>(rng() % 3);  // Tiny alphabet: deep sharing.
    }
    if (rng() % 3 != 0) {
      Bytes value = {static_cast<uint8_t>(rng() % 255 + 1)};
      oracle[key] = value;
      trie.Put(key, value);
    } else {
      bool oracle_had = oracle.erase(key) > 0;
      EXPECT_EQ(trie.Delete(key), oracle_had) << HexEncode(key);
    }
  }
  ASSERT_EQ(trie.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(trie.Get(k), v) << HexEncode(k);
  }
  // Content addressing: a freshly built trie has the identical root.
  MerklePatriciaTrie rebuilt;
  for (const auto& [k, v] : oracle) {
    rebuilt.Put(k, v);
  }
  EXPECT_EQ(HexEncode(trie.RootHash()), HexEncode(rebuilt.RootHash()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MptDeletePropertyTest, ::testing::Values(7, 17, 27, 37, 47));

// ApplyDiff + incremental-root battery: a long-lived trie absorbing random
// batched diffs (interleaved inserts, updates and deletes, with the memoized
// incremental RootHash queried after every batch) must agree at each step
// with a trie built from scratch from the surviving key set. This is the
// chain committer's exact usage pattern (src/chain/commit.cc).
class MptApplyDiffPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MptApplyDiffPropertyTest, BatchedDiffsMatchFromScratchRebuild) {
  std::mt19937_64 rng(GetParam());
  std::map<Bytes, Bytes> oracle;
  MerklePatriciaTrie trie;
  for (int batch = 0; batch < 40; ++batch) {
    std::vector<TrieUpdate> updates;
    size_t batch_size = 1 + rng() % 20;
    size_t expected_changed = 0;
    std::map<Bytes, Bytes> pending = oracle;  // Tracks within-batch ordering.
    for (size_t u = 0; u < batch_size; ++u) {
      size_t key_len = 1 + rng() % 6;
      Bytes key(key_len);
      for (auto& b : key) {
        b = static_cast<uint8_t>(rng() % 3);  // Tiny alphabet: deep sharing.
      }
      TrieUpdate update;
      update.key = key;
      if (rng() % 3 != 0) {
        update.value = {static_cast<uint8_t>(rng() % 255 + 1),
                        static_cast<uint8_t>(rng() % 256)};
        if (!pending.contains(key)) {
          ++expected_changed;
        }
        pending[key] = update.value;
      } else {
        // Empty value = delete (may hit an absent key: must be a no-op).
        if (pending.erase(key) > 0) {
          ++expected_changed;
        }
      }
      updates.push_back(std::move(update));
    }
    EXPECT_EQ(trie.ApplyDiff(updates), expected_changed) << "batch " << batch;
    oracle = std::move(pending);

    ASSERT_EQ(trie.size(), oracle.size()) << "batch " << batch;
    MerklePatriciaTrie rebuilt;
    for (const auto& [k, v] : oracle) {
      rebuilt.Put(k, v);
    }
    ASSERT_EQ(HexEncode(trie.RootHash()), HexEncode(rebuilt.RootHash())) << "batch " << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MptApplyDiffPropertyTest, ::testing::Values(11, 23, 59, 83));

// --- ShardedMpt: the 16-way split the parallel committer fans out over. ---
// Equivalence contract: identical mutation history ⇒ bit-identical root AND
// bit-identical harvested node multiset vs the monolithic trie, at every
// step — including the degenerate shapes (empty, one live shard whose root
// merges into the join, transitions between those and the general case).

using HarvestSet = std::vector<std::pair<Hash256, Bytes>>;

template <typename Trie>
HarvestSet HarvestSorted(const Trie& trie) {
  HarvestSet nodes;
  trie.HarvestDirtyNodes([&nodes](const Hash256& hash, BytesView encoding) {
    Bytes enc(encoding.begin(), encoding.end());
    EXPECT_EQ(HexEncode(Keccak256(BytesView(enc.data(), enc.size()))), HexEncode(hash));
    nodes.emplace_back(hash, std::move(enc));
  });
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

TEST(ShardedMptTest, EmptyTrieHasCanonicalRoot) {
  ShardedMpt trie;
  EXPECT_EQ(HexEncode(trie.RootHash()),
            "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
  EXPECT_EQ(trie.HarvestDirtyNodes([](const Hash256&, BytesView) {}), 0u);
}

TEST(ShardedMptTest, MatchesMonolithicOnKnownVectors) {
  ShardedMpt sharded;
  MerklePatriciaTrie mono;
  for (const auto& [k, v] : std::vector<std::pair<Bytes, Bytes>>{
           {B("do"), B("verb")},
           {B("horse"), B("stallion")},
           {B("doge"), B("coin")},
           {B("dog"), B("puppy")},
       }) {
    sharded.Put(k, v);
    mono.Put(k, v);
    ASSERT_EQ(HexEncode(sharded.RootHash()), HexEncode(mono.RootHash()));
    ASSERT_EQ(sharded.Get(k), mono.Get(k));
  }
  EXPECT_EQ(sharded.size(), mono.size());
  EXPECT_EQ(HarvestSorted(sharded), HarvestSorted(mono));
}

TEST(ShardedMptTest, RootsMatchValuesPinnedAcrossImplementations) {
  ExpectPinnedStreamRoots<ShardedMpt>();
}

// The satellite battery: 200 rounds of mixed Put/Delete/ApplyDiff churn with
// roots, sizes and harvested node sets compared every round. Odd seeds pin
// the key's first byte to a two-value set so the trie spends most of its life
// with 0–2 live shards (the merged-root join cases and their transitions);
// even seeds spread keys over all 16 shards.
class ShardedMptPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardedMptPropertyTest, ChurnKeepsRootsAndHarvestsBitIdentical) {
  const uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  const bool pin_shards = seed % 2 == 1;
  ShardedMpt sharded;
  MerklePatriciaTrie mono;
  std::map<Bytes, Bytes> oracle;
  auto random_key = [&]() {
    Bytes key(1 + rng() % 5);
    key[0] = pin_shards ? static_cast<uint8_t>((rng() % 2) * 0x10)
                        : static_cast<uint8_t>(rng());
    for (size_t i = 1; i < key.size(); ++i) {
      key[i] = static_cast<uint8_t>(rng() % 3);  // Tiny alphabet: deep sharing.
    }
    return key;
  };
  for (int round = 0; round < 200; ++round) {
    if (rng() % 3 == 0) {
      // Batched ApplyDiff round (the committer's usage).
      std::vector<TrieUpdate> updates;
      size_t n = 1 + rng() % 12;
      for (size_t u = 0; u < n; ++u) {
        TrieUpdate update;
        update.key = random_key();
        if (rng() % 3 != 0) {
          update.value = {static_cast<uint8_t>(rng() % 255 + 1)};
          oracle[update.key] = update.value;
        } else {
          oracle.erase(update.key);
        }
        updates.push_back(std::move(update));
      }
      size_t changed_sharded = sharded.ApplyDiff(updates);
      size_t changed_mono = mono.ApplyDiff(updates);
      ASSERT_EQ(changed_sharded, changed_mono) << "round " << round;
    } else {
      // Point-mutation round; deletes are frequent enough to drain shards
      // back through the lone-live and empty join shapes.
      Bytes key = random_key();
      if (rng() % 2 == 0) {
        Bytes value = {static_cast<uint8_t>(rng() % 255 + 1)};
        sharded.Put(key, value);
        mono.Put(key, value);
        oracle[key] = value;
      } else {
        bool oracle_had = oracle.erase(key) > 0;
        ASSERT_EQ(sharded.Delete(key), oracle_had) << "round " << round;
        ASSERT_EQ(mono.Delete(key), oracle_had) << "round " << round;
      }
    }
    ASSERT_EQ(sharded.size(), mono.size()) << "round " << round;
    ASSERT_EQ(HexEncode(sharded.RootHash()), HexEncode(mono.RootHash())) << "round " << round;
    ASSERT_EQ(HarvestSorted(sharded), HarvestSorted(mono)) << "round " << round;
    if (rng() % 16 == 0) {
      Bytes probe = random_key();
      ASSERT_EQ(sharded.Get(probe), mono.Get(probe)) << "round " << round;
    }
  }
  // Drain to empty: the final transitions back through one and zero live
  // shards must also stay in lockstep.
  for (auto it = oracle.begin(); it != oracle.end();) {
    const Bytes key = it->first;
    it = oracle.erase(it);
    ASSERT_TRUE(sharded.Delete(key));
    ASSERT_TRUE(mono.Delete(key));
    ASSERT_EQ(HexEncode(sharded.RootHash()), HexEncode(mono.RootHash()));
    ASSERT_EQ(HarvestSorted(sharded), HarvestSorted(mono));
  }
  EXPECT_EQ(sharded.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedMptPropertyTest,
                         ::testing::Values(101, 102, 203, 204, 305));

// The parallel surface under real threads (TSan gate material): one thread
// per shard replays its slice and pre-hashes, then the bracketed harvest
// protocol runs its per-shard phase concurrently. Roots and harvested nodes
// must match a monolithic trie fed the same updates serially.
TEST(ShardedMptConcurrencyTest, ShardParallelApplyAndHarvestMatchMonolithic) {
  std::mt19937_64 rng(777);
  ShardedMpt sharded;
  MerklePatriciaTrie mono;
  NodeArchive sharded_archive;
  NodeArchive mono_archive;
  std::mutex archive_mu;
  for (int round = 0; round < 6; ++round) {
    std::array<std::vector<TrieUpdate>, ShardedMpt::kShards> slices;
    for (int i = 0; i < 300; ++i) {
      TrieUpdate update;
      update.key.resize(1 + rng() % 4);
      update.key[0] = static_cast<uint8_t>(rng());
      for (size_t b = 1; b < update.key.size(); ++b) {
        update.key[b] = static_cast<uint8_t>(rng() % 3);
      }
      if (rng() % 4 != 0) {
        update.value = {static_cast<uint8_t>(rng() % 255 + 1)};
      }
      int shard = ShardedMpt::ShardOf(BytesView(update.key.data(), update.key.size()));
      mono.ApplyDiff(std::span<const TrieUpdate>(&update, 1));
      slices[shard].push_back(std::move(update));
    }
    {
      std::vector<std::thread> threads;
      for (int s = 0; s < ShardedMpt::kShards; ++s) {
        threads.emplace_back([&, s] {
          sharded.ApplyShardDiff(s, slices[s]);
          sharded.PrehashShard(s);
        });
      }
      for (auto& t : threads) {
        t.join();
      }
    }
    ASSERT_EQ(HexEncode(sharded.RootHash()), HexEncode(mono.RootHash())) << "round " << round;
    sharded.PrepareHarvest();
    {
      std::vector<std::thread> threads;
      for (int s = 0; s < ShardedMpt::kShards; ++s) {
        threads.emplace_back([&, s] {
          HarvestSet local;
          sharded.HarvestShard(s, [&local](const Hash256& hash, BytesView encoding) {
            local.emplace_back(hash, Bytes(encoding.begin(), encoding.end()));
          });
          std::lock_guard<std::mutex> lock(archive_mu);
          for (auto& [hash, enc] : local) {
            sharded_archive[hash] = std::move(enc);
          }
        });
      }
      for (auto& t : threads) {
        t.join();
      }
    }
    sharded.FinishHarvest([&](const Hash256& hash, BytesView encoding) {
      sharded_archive[hash] = Bytes(encoding.begin(), encoding.end());
    });
    HarvestInto(mono, mono_archive);
    ASSERT_EQ(sharded_archive, mono_archive) << "round " << round;
  }
}

}  // namespace
}  // namespace pevm
