// The concurrent read-only query tier (DESIGN.md §4.7): a pool of serving
// threads consuming a bounded queue of eth-API-shaped read requests
// (getBalance / getTransactionCount / getStorageAt / getCode / eth_call),
// each answered against a root pinned in the SnapshotRegistry while the chain
// pipeline keeps executing and committing ahead of it.
//
// eth_call runs the real interpreter over a StateView stacked on the pinned
// snapshot, sharing the process-wide CodeCache with the executors (the cache
// is a pure function of the bytecode, so query-tier lookups cannot perturb
// execution). Writes the call attempts land in the discarded view and
// logs are never taken — the snapshot is immutable, so the tier is read-only
// structurally, not by runtime policing.
//
// Correctness contract: every response is bit-identical to evaluating the
// same request against a WorldState produced by serially replaying the chain
// and stopping at the response's pinned root (EvalQuery is that shared
// evaluation function — the test oracle calls it with a WorldStateReader).
// Inertness: the tier only ever reads the registry, so running it at any
// thread count leaves every root and deterministic BlockReport field
// bit-identical to not running it (wall clock only).
#ifndef SRC_QUERY_QUERY_ENGINE_H_
#define SRC_QUERY_QUERY_ENGINE_H_

#include <atomic>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "src/chain/bounded_queue.h"
#include "src/codecache/program.h"
#include "src/exec/types.h"
#include "src/query/snapshot.h"

namespace pevm {

enum class QueryKind : uint8_t {
  kGetBalance = 0,
  kGetNonce,      // eth_getTransactionCount.
  kGetStorageAt,
  kGetCode,
  kCall,          // Read-only eth_call (value transfer out of scope).
};

inline constexpr int kQueryKinds = 5;

const char* QueryKindName(QueryKind kind);

struct QueryRequest {
  QueryKind kind = QueryKind::kGetBalance;
  Address account;  // Target account; the callee contract for kCall/kGetStorageAt.
  U256 slot;        // kGetStorageAt only.
  // kCall only:
  Address caller;
  Bytes calldata;
  int64_t gas_limit = 1'000'000;
  // Pin an explicit root (must be retained); nullopt serves at the newest
  // committed root.
  std::optional<Hash256> at_root;
};

// One generated request, what WorkloadGenerator::MakeQueryLoad emits.
struct TimedQuery {
  QueryRequest request;
};

enum class QueryStatus : uint8_t {
  kOk = 0,
  kUnknownRoot,  // at_root names no retained snapshot (evicted or never seen).
  kRejected,     // Submitted after Stop().
};

struct QueryResponse {
  QueryStatus status = QueryStatus::kOk;
  // Where the query was served: the pinned snapshot. block_index counts
  // committed blocks (chain-lifetime), root is its state root.
  uint64_t block_index = 0;
  Hash256 root{};
  // kGetBalance/kGetNonce/kGetStorageAt result.
  U256 value;
  // kGetCode (the contract's code) / kCall (RETURN or REVERT payload).
  Bytes bytes;
  // kCall only.
  EvmStatus call_status = EvmStatus::kSuccess;
  int64_t gas_used = 0;
  uint64_t writes_discarded = 0;  // Writes the call buffered; all dropped.
  // Wall clock from dequeue to response (serving latency, queue wait
  // excluded). The only field allowed to vary run-to-run.
  uint64_t wall_ns = 0;

  bool ok() const { return status == QueryStatus::kOk; }
};

// Deterministic block context a query executes under, derived from the
// pinned snapshot's block index. Shared by the serving threads and the
// serial-replay oracle so eth_call results compare bit-identically.
inline BlockContext QueryBlockContext(uint64_t block_index) {
  BlockContext context;
  context.number = U256(block_index);
  context.timestamp = U256(1'600'000'000 + 12 * block_index);
  return context;
}

// Evaluates `request` against any committed-state reader presenting the state
// as of (block_index, root). Pure: no queue, no snapshot management — the
// serving threads call it with a SnapshotReader, the test oracle with a
// WorldStateReader over a serial replay. `provider` is the code cache (null =
// uncached dispatch; results identical either way).
QueryResponse EvalQuery(const QueryRequest& request, const BaseReader& reader,
                        uint64_t block_index, const Hash256& root,
                        CodeProvider* provider = nullptr);

struct QueryEngineOptions {
  int threads = 2;              // Serving threads.
  size_t queue_capacity = 256;  // Submit backpressure bound.
};

// Serving totals (wall-clock class: which thread served what depends on
// timing; the *responses* are deterministic per pinned root, these counters
// are not part of any determinism contract).
struct QueryStats {
  uint64_t served = 0;                  // Responses with status kOk.
  uint64_t unknown_root = 0;
  uint64_t rejected = 0;
  uint64_t by_kind[kQueryKinds] = {};   // kOk responses per QueryKind.
  uint64_t calls_reverted = 0;          // kCall responses that did not succeed.
  uint64_t total_serve_ns = 0;          // Sum of QueryResponse::wall_ns.
};

class QueryEngine {
 public:
  // The registry (and whatever owns it — typically a ChainRunner) must
  // outlive this engine; call Stop() (or destroy the engine) before the
  // registry dies.
  explicit QueryEngine(SnapshotRegistry& registry, const QueryEngineOptions& options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Enqueues one request; blocks while the queue is saturated (backpressure).
  // The future always resolves: kOk/kUnknownRoot from a serving thread, or
  // kRejected immediately once the engine is stopped.
  std::future<QueryResponse> Submit(QueryRequest request);

  // Closes the queue, drains every queued request, joins the pool and
  // returns the totals. Idempotent.
  QueryStats Stop();

  // Live snapshot of the totals (threads may still be serving).
  QueryStats stats() const;

  // Request-queue observability for the ops plane's /healthz: current depth
  // and the high-water mark since construction. Safe from any thread.
  size_t queue_depth() const { return queue_->depth(); }
  size_t queue_high_water() const { return queue_->max_depth(); }

 private:
  struct Job {
    QueryRequest request;
    std::promise<QueryResponse> promise;
  };

  void ServeLoop(int worker);

  SnapshotRegistry* registry_;
  QueryEngineOptions options_;
  std::unique_ptr<BoundedQueue<Job>> queue_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stopped_{false};

  // Written by serving threads (relaxed; totals read after Stop or as a
  // racy-but-consistent live snapshot).
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> unknown_root_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> by_kind_[kQueryKinds] = {};
  std::atomic<uint64_t> calls_reverted_{0};
  std::atomic<uint64_t> total_serve_ns_{0};
  std::optional<QueryStats> final_stats_;
};

}  // namespace pevm

#endif  // SRC_QUERY_QUERY_ENGINE_H_
