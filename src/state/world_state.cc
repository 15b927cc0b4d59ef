#include "src/state/world_state.h"

#include <cassert>

#include "src/support/rlp.h"
#include "src/trie/mpt.h"

namespace pevm {

U256 WorldState::GetBalance(const Address& a) const {
  auto it = accounts_.find(a);
  return it == accounts_.end() ? U256{} : it->second.balance;
}

uint64_t WorldState::GetNonce(const Address& a) const {
  auto it = accounts_.find(a);
  return it == accounts_.end() ? 0 : it->second.nonce;
}

U256 WorldState::GetStorage(const Address& a, const U256& slot) const {
  auto it = accounts_.find(a);
  if (it == accounts_.end()) {
    return U256{};
  }
  auto sit = it->second.storage.find(slot);
  return sit == it->second.storage.end() ? U256{} : sit->second;
}

const Bytes* WorldState::GetCode(const Address& a) const {
  auto it = accounts_.find(a);
  if (it == accounts_.end() || it->second.code.empty()) {
    return nullptr;
  }
  return &it->second.code;
}

void WorldState::SetBalance(const Address& a, const U256& v) {
  if (diff_) {
    diff_->emplace_back(StateKey::Balance(a), v);
  }
  if (observer_) {
    observer_->OnStateWrite(StateKey::Balance(a), v);
  }
  accounts_[a].balance = v;
}

void WorldState::SetNonce(const Address& a, uint64_t n) {
  if (diff_) {
    diff_->emplace_back(StateKey::Nonce(a), U256(n));
  }
  if (observer_) {
    observer_->OnStateWrite(StateKey::Nonce(a), U256(n));
  }
  accounts_[a].nonce = n;
}

void WorldState::SetStorage(const Address& a, const U256& slot, const U256& v) {
  if (diff_) {
    diff_->emplace_back(StateKey::Storage(a, slot), v);
  }
  if (observer_) {
    observer_->OnStateWrite(StateKey::Storage(a, slot), v);
  }
  if (v.IsZero()) {
    auto it = accounts_.find(a);
    if (it != accounts_.end()) {
      it->second.storage.erase(slot);
    }
    return;
  }
  accounts_[a].storage[slot] = v;
}

void WorldState::SetCode(const Address& a, Bytes code) {
  assert(!diff_ && "code writes are not journalable (deployment is genesis-only)");
  Account& account = accounts_[a];
  account.code = std::move(code);
  if (account.code.empty()) {
    code_hashes_.erase(a);
  } else {
    code_hashes_[a] = Keccak256(account.code);
  }
}

const Hash256* WorldState::GetCodeHash(const Address& a) const {
  auto it = code_hashes_.find(a);
  return it == code_hashes_.end() ? nullptr : &it->second;
}

void WorldState::BeginDiff() { diff_.emplace(); }

StateDiff WorldState::TakeDiff() {
  StateDiff out = diff_ ? std::move(*diff_) : StateDiff{};
  diff_.reset();
  return out;
}

U256 WorldState::Get(const StateKey& key) const {
  switch (key.kind) {
    case StateKeyKind::kBalance:
      return GetBalance(key.address);
    case StateKeyKind::kNonce:
      return U256(GetNonce(key.address));
    case StateKeyKind::kStorage:
      return GetStorage(key.address, key.slot);
  }
  return U256{};
}

void WorldState::Set(const StateKey& key, const U256& value) {
  switch (key.kind) {
    case StateKeyKind::kBalance:
      SetBalance(key.address, value);
      return;
    case StateKeyKind::kNonce:
      SetNonce(key.address, value.AsUint64());
      return;
    case StateKeyKind::kStorage:
      SetStorage(key.address, key.slot, value);
      return;
  }
}

void WorldState::Apply(const WriteSet& writes) {
  for (const auto& [key, value] : writes) {
    Set(key, value);
  }
}

Bytes RlpAccountBody(uint64_t nonce, const U256& balance, const Hash256& storage_root,
                     const Hash256& code_hash) {
  const U256 nonce_word(nonce);
  const BytesView root(storage_root.data(), storage_root.size());
  const BytesView code(code_hash.data(), code_hash.size());
  const size_t payload =
      RlpUintSize(nonce_word) + RlpUintSize(balance) + RlpBytesSize(root) + RlpBytesSize(code);
  Bytes body;
  body.reserve(RlpHeaderSize(payload) + payload);
  RlpAppendListHeader(body, payload);
  RlpAppendUint(body, nonce_word);
  RlpAppendUint(body, balance);
  RlpAppendBytes(body, root);
  RlpAppendBytes(body, code);
  return body;
}

Hash256 WorldState::StateRoot() const {
  MerklePatriciaTrie state_trie;
  for (const auto& [addr, account] : accounts_) {
    // Per-account storage trie.
    MerklePatriciaTrie storage_trie;
    for (const auto& [slot, value] : account.storage) {
      if (value.IsZero()) {
        continue;
      }
      std::array<uint8_t, 32> slot_be = slot.ToBigEndian();
      Hash256 slot_key = Keccak256(BytesView(slot_be.data(), slot_be.size()));
      storage_trie.Put(BytesView(slot_key.data(), slot_key.size()), RlpEncodeUint(value));
    }
    Hash256 storage_root = storage_trie.RootHash();
    Hash256 code_hash = Keccak256(account.code);
    Hash256 addr_key = Keccak256(addr.view());
    state_trie.Put(BytesView(addr_key.data(), addr_key.size()),
                   RlpAccountBody(account.nonce, account.balance, storage_root, code_hash));
  }
  return state_trie.RootHash();
}

uint64_t WorldState::Digest() const {
  uint64_t acc = 0;
  for (const auto& [addr, account] : accounts_) {
    uint64_t h = Fnv1a(addr.view());
    h = Fnv1a(BytesView(account.balance.ToBigEndian().data(), 32), h);
    h ^= account.nonce * 0x9e3779b97f4a7c15ULL;
    h = Fnv1a(account.code, h);
    uint64_t storage_acc = 0;
    for (const auto& [slot, value] : account.storage) {
      if (value.IsZero()) {
        continue;
      }
      uint64_t sh = Fnv1a(BytesView(slot.ToBigEndian().data(), 32));
      sh = Fnv1a(BytesView(value.ToBigEndian().data(), 32), sh);
      storage_acc += sh;  // Order-independent combine.
    }
    acc += h + storage_acc * 0x100000001b3ULL;
  }
  return acc;
}

}  // namespace pevm
