// Per-transaction overlay over a committed WorldState. All speculative
// execution goes through a StateView: writes are buffered locally, and the
// first read of every key from the base state is recorded in the read set —
// exactly the bookkeeping OCC-style validation needs (§5.1 read phase).
//
// The overlay supports snapshots so inner message calls can revert their
// effects without touching the rest of the transaction.
#ifndef SRC_STATE_STATE_VIEW_H_
#define SRC_STATE_STATE_VIEW_H_

#include <optional>
#include <vector>

#include "src/state/world_state.h"

namespace pevm {

// Resolves reads that fall through a StateView's write buffer. The default
// implementation reads a committed WorldState; Block-STM plugs in a
// multi-version reader whose lookups may hit an unresolved dependency
// (ShouldAbort then turns true and the interpreter stops).
class BaseReader {
 public:
  virtual ~BaseReader() = default;
  virtual U256 Read(const StateKey& key) const = 0;
  virtual const Bytes* ReadCode(const Address& a) const = 0;
  // Precomputed code hash when the backing store tracks one; nullptr is
  // always safe (the code cache hashes the bytes itself).
  virtual const Hash256* ReadCodeHash(const Address& a) const {
    (void)a;
    return nullptr;
  }
  virtual bool ShouldAbort() const { return false; }
};

class WorldStateReader final : public BaseReader {
 public:
  explicit WorldStateReader(const WorldState& state) : state_(&state) {}
  U256 Read(const StateKey& key) const override { return state_->Get(key); }
  const Bytes* ReadCode(const Address& a) const override { return state_->GetCode(a); }
  const Hash256* ReadCodeHash(const Address& a) const override { return state_->GetCodeHash(a); }

 private:
  const WorldState* state_;
};

class StateView {
 public:
  explicit StateView(const WorldState& base)
      : owned_reader_(std::in_place, base), base_(&*owned_reader_) {}
  explicit StateView(const BaseReader& base) : base_(&base) {}

  // Uniform key-value access. Reads consult the local write buffer first and
  // fall back to the base state, recording the observed value in the read
  // set the first time a key is read from base.
  U256 Get(const StateKey& key);
  void Set(const StateKey& key, const U256& value);

  // Typed helpers.
  U256 GetBalance(const Address& a) { return Get(StateKey::Balance(a)); }
  void SetBalance(const Address& a, const U256& v) { Set(StateKey::Balance(a), v); }
  uint64_t GetNonce(const Address& a) { return Get(StateKey::Nonce(a)).AsUint64(); }
  void SetNonce(const Address& a, uint64_t n) { Set(StateKey::Nonce(a), U256(n)); }
  U256 GetStorage(const Address& a, const U256& slot) { return Get(StateKey::Storage(a, slot)); }
  void SetStorage(const Address& a, const U256& slot, const U256& v) {
    Set(StateKey::Storage(a, slot), v);
  }
  // Code is immutable in this system (no CREATE in the workloads), so code
  // reads bypass the read set.
  const Bytes* GetCode(const Address& a) const { return base_->ReadCode(a); }
  const Hash256* GetCodeHash(const Address& a) const { return base_->ReadCodeHash(a); }

  // True once a base read hit an unresolved dependency (Block-STM ESTIMATE).
  bool base_aborted() const { return base_->ShouldAbort(); }

  // The committed value of `key` at read time, without any overlay write —
  // i.e. what validation will compare against. Records the read.
  U256 GetCommitted(const StateKey& key);

  // True if `key` has been written by this transaction (the paper's
  // latest_writes membership test, used to classify SLOADs as type I/II).
  bool HasWritten(const StateKey& key) const { return writes_.contains(key); }

  // --- Snapshots (inner-call revert support). ---
  size_t Snapshot() const { return journal_.size(); }
  void RevertToSnapshot(size_t snapshot);

  const ReadSet& read_set() const { return reads_; }
  const WriteSet& write_set() const { return writes_; }
  ReadSet take_read_set() { return std::move(reads_); }
  WriteSet take_write_set() { return std::move(writes_); }

  // Keys in first-base-read order (the 2PL baseline's lock-acquisition
  // trace).
  const std::vector<StateKey>& read_order() const { return read_order_; }

  // Number of distinct keys read from the base state (cold-read candidates
  // for the storage-latency model).
  size_t base_reads() const { return reads_.size(); }

 private:
  struct JournalEntry {
    StateKey key;
    std::optional<U256> prior;  // Previous buffered value; nullopt = not buffered.
  };

  std::optional<WorldStateReader> owned_reader_;
  const BaseReader* base_;
  ReadSet reads_;
  WriteSet writes_;
  std::vector<StateKey> read_order_;
  std::vector<JournalEntry> journal_;
};

}  // namespace pevm

#endif  // SRC_STATE_STATE_VIEW_H_
