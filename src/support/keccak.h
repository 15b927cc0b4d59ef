// Keccak-256 (the pre-NIST-padding variant Ethereum uses everywhere: state
// roots, storage-slot derivation for mappings, function selectors, SHA3).
#ifndef SRC_SUPPORT_KECCAK_H_
#define SRC_SUPPORT_KECCAK_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/support/bytes.h"
#include "src/support/u256.h"

namespace pevm {

using Hash256 = std::array<uint8_t, 32>;

// One-shot Keccak-256 over `data`.
Hash256 Keccak256(BytesView data);

// Keccak-256 of every input: out[i] = Keccak256(inputs[i]), with `out` at
// least as long as `inputs`. Inputs may have any length. On CPUs with
// AVX-512F the permutations of eight independent inputs run at once, one in
// each 64-bit lane of the vector registers; each lane absorbs its own
// input's blocks and takes the next input as soon as its digest is read.
// Elsewhere this is a loop over Keccak256. The path is chosen once per
// process; digests are identical either way.
void Keccak256Batch(std::span<const BytesView> inputs, std::span<Hash256> out);

// Inputs Keccak256Batch hashes at once on this CPU: 8 with AVX-512F, else 1.
int Keccak256BatchLanes();

// Collects 32-byte big-endian words (the storage slots whose keccak is
// their secure-trie key) and hashes them all in one Keccak256Batch call.
// The buffers keep their capacity from one use to the next.
class Keccak256WordBatch {
 public:
  void Clear() { words_.clear(); }
  void Add(const U256& word) { words_.push_back(word.ToBigEndian()); }
  // Digests of the words added since the last Clear, in the order added;
  // valid until the next call on this object.
  std::span<const Hash256> Hash();

 private:
  std::vector<std::array<uint8_t, 32>> words_;
  std::vector<BytesView> inputs_;
  std::vector<Hash256> digests_;
};

// Keccak-256 returned as a U256 (big-endian interpretation), the form the
// SHA3 opcode and mapping-slot math want.
U256 Keccak256Word(BytesView data);

// Solidity storage-slot derivation for `mapping(key => v)` held in `slot`:
// keccak256(abi.encode(key, slot)).
U256 MappingSlot(const U256& key, const U256& slot);

// Two-level mapping (e.g. allowances[owner][spender]).
U256 MappingSlot2(const U256& key1, const U256& key2, const U256& slot);

}  // namespace pevm

#endif  // SRC_SUPPORT_KECCAK_H_
