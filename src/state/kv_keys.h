// The KV keyspace of the chain runner's durable committer
// (src/chain/node_store.h): the committer writes the trie-node archive, the
// flat-state mirror and the manifest under these keys as it seals blocks, and
// recovery (RecoverChain) reads them back.
//
// Keyspaces (first byte tags the record family):
//   'n' + 32-byte node hash              -> RLP node encoding (trie archive)
//   'e' + 20-byte address                -> 32B balance (BE) ++ 8B nonce (BE)
//   's' + 20-byte address + 32-byte slot -> 32-byte value (BE); absent = zero
//   'c' + 20-byte address                -> contract code (genesis-only)
//   'g'                                  -> genesis state root
//   'b'                                  -> 8B (BE) count of committed blocks
//   'r' + 8-byte block index (BE)        -> state root after that block
#ifndef SRC_STATE_KV_KEYS_H_
#define SRC_STATE_KV_KEYS_H_

#include <string>
#include <string_view>

#include "src/support/bytes.h"
#include "src/support/keccak.h"
#include "src/support/u256.h"

namespace pevm {
namespace kvkeys {

inline constexpr char kNodePrefix = 'n';
inline constexpr char kAccountPrefix = 'e';
inline constexpr char kStoragePrefix = 's';
inline constexpr char kCodePrefix = 'c';
inline constexpr std::string_view kGenesisRoot = "g";
inline constexpr std::string_view kCommittedBlocks = "b";
inline constexpr char kRootPrefix = 'r';

inline std::string NodeKey(const Hash256& hash) {
  std::string key(1, kNodePrefix);
  key.append(reinterpret_cast<const char*>(hash.data()), hash.size());
  return key;
}

inline std::string AccountKey(const Address& address) {
  std::string key(1, kAccountPrefix);
  key.append(reinterpret_cast<const char*>(address.bytes().data()), Address::kSize);
  return key;
}

inline std::string StorageKey(const Address& address, const U256& slot) {
  std::string key(1, kStoragePrefix);
  key.append(reinterpret_cast<const char*>(address.bytes().data()), Address::kSize);
  std::array<uint8_t, 32> be = slot.ToBigEndian();
  key.append(reinterpret_cast<const char*>(be.data()), be.size());
  return key;
}

inline std::string CodeKey(const Address& address) {
  std::string key(1, kCodePrefix);
  key.append(reinterpret_cast<const char*>(address.bytes().data()), Address::kSize);
  return key;
}

inline std::string RootKey(uint64_t block_index) {
  std::string key(1, kRootPrefix);
  for (int i = 7; i >= 0; --i) {
    key.push_back(static_cast<char>(static_cast<uint8_t>(block_index >> (8 * i))));
  }
  return key;
}

inline Bytes EncodeU64Be(uint64_t v) {
  Bytes out(8);
  for (int i = 0; i < 8; ++i) {
    out[static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * (7 - i)));
  }
  return out;
}

inline uint64_t DecodeU64Be(BytesView bytes) {
  uint64_t v = 0;
  for (uint8_t b : bytes) {
    v = (v << 8) | b;
  }
  return v;
}

// Account record: 32-byte big-endian balance followed by 8-byte nonce.
inline Bytes EncodeAccountRecord(const U256& balance, uint64_t nonce) {
  std::array<uint8_t, 32> be = balance.ToBigEndian();
  Bytes out(be.begin(), be.end());
  Bytes n = EncodeU64Be(nonce);
  out.insert(out.end(), n.begin(), n.end());
  return out;
}

}  // namespace kvkeys
}  // namespace pevm

#endif  // SRC_STATE_KV_KEYS_H_
