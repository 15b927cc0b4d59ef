#include "src/query/query_engine.h"

#include <chrono>
#include <string>
#include <utility>

#include "src/codecache/code_cache.h"
#include "src/evm/host.h"
#include "src/evm/interpreter.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace pevm {

namespace {

uint64_t MonotonicNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kGetBalance:
      return "getBalance";
    case QueryKind::kGetNonce:
      return "getTransactionCount";
    case QueryKind::kGetStorageAt:
      return "getStorageAt";
    case QueryKind::kGetCode:
      return "getCode";
    case QueryKind::kCall:
      return "call";
  }
  return "?";
}

QueryResponse EvalQuery(const QueryRequest& request, const BaseReader& reader,
                        uint64_t block_index, const Hash256& root, CodeProvider* provider) {
  QueryResponse response;
  response.block_index = block_index;
  response.root = root;
  switch (request.kind) {
    case QueryKind::kGetBalance:
      response.value = reader.Read(StateKey::Balance(request.account));
      break;
    case QueryKind::kGetNonce:
      response.value = reader.Read(StateKey::Nonce(request.account));
      break;
    case QueryKind::kGetStorageAt:
      response.value = reader.Read(StateKey::Storage(request.account, request.slot));
      break;
    case QueryKind::kGetCode:
      if (const Bytes* code = reader.ReadCode(request.account)) {
        response.bytes = *code;
      }
      break;
    case QueryKind::kCall: {
      // Read-only eth_call: the interpreter runs the real bytecode through a
      // StateView whose write buffer is discarded with the view. No envelope
      // (nonce check / fee debit / value transfer) — eth_call is not a
      // transaction — so failing-nonce callers still get their read.
      StateView view(reader);
      StateViewHost host(view);
      BlockContext context = QueryBlockContext(block_index);
      TxContext tx_context{request.caller, U256(0)};
      Interpreter interp(host, context, tx_context, nullptr, provider);
      Message msg;
      msg.call_kind = Opcode::kCall;
      msg.code_address = request.account;
      msg.storage_address = request.account;
      msg.caller = request.caller;
      msg.data = request.calldata;
      msg.gas = request.gas_limit;
      EvmResult result = interp.Execute(msg);
      response.call_status = result.status;
      response.bytes = std::move(result.output);
      response.gas_used = request.gas_limit - result.gas_left;
      response.writes_discarded = view.write_set().size();
      break;
    }
  }
  return response;
}

QueryEngine::QueryEngine(SnapshotRegistry& registry, const QueryEngineOptions& options)
    : registry_(&registry), options_(options) {
  if (options_.threads < 1) {
    options_.threads = 1;
  }
  queue_ = std::make_unique<BoundedQueue<Job>>(options_.queue_capacity);
  threads_.reserve(static_cast<size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) {
    threads_.emplace_back(&QueryEngine::ServeLoop, this, i);
  }
}

QueryEngine::~QueryEngine() { Stop(); }

std::future<QueryResponse> QueryEngine::Submit(QueryRequest request) {
  Job job;
  job.request = std::move(request);
  std::future<QueryResponse> future = job.promise.get_future();
  if (stopped_.load(std::memory_order_acquire) || !queue_->Push(std::move(job))) {
    // The job (and its promise) were dropped or never enqueued; resolve the
    // future we already took out.
    std::promise<QueryResponse> rejected;
    future = rejected.get_future();
    QueryResponse response;
    response.status = QueryStatus::kRejected;
    rejected.set_value(std::move(response));
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  return future;
}

QueryStats QueryEngine::Stop() {
  if (!final_stats_.has_value()) {
    stopped_.store(true, std::memory_order_release);
    queue_->Close();  // Queued requests drain; serving threads then exit.
    for (std::thread& t : threads_) {
      if (t.joinable()) {
        t.join();
      }
    }
    final_stats_ = stats();
  }
  // Serving totals are frozen at the join, but rejections keep accruing
  // (Submit after Stop resolves kRejected); report them honestly.
  final_stats_->rejected = rejected_.load(std::memory_order_relaxed);
  return *final_stats_;
}

QueryStats QueryEngine::stats() const {
  QueryStats out;
  out.served = served_.load(std::memory_order_relaxed);
  out.unknown_root = unknown_root_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  for (int k = 0; k < kQueryKinds; ++k) {
    out.by_kind[k] = by_kind_[k].load(std::memory_order_relaxed);
  }
  out.calls_reverted = calls_reverted_.load(std::memory_order_relaxed);
  out.total_serve_ns = total_serve_ns_.load(std::memory_order_relaxed);
  return out;
}

void QueryEngine::ServeLoop(int worker) {
  PEVM_TRACE_THREAD_NAME(("query-serve-" + std::to_string(worker)).c_str());
  static auto& serve_hist = telemetry::GetHistogram("query.serve_ns");
  static auto& call_hist = telemetry::GetHistogram("query.call_ns");
  static auto& served_counter = telemetry::GetCounter("query.served");
  static auto& miss_counter = telemetry::GetCounter("query.unknown_root");
  while (std::optional<Job> job = queue_->Pop()) {
    const uint64_t start = MonotonicNs();
    QueryResponse response;
    {
      PEVM_TRACE_SPAN_ARG("query.serve", "kind",
                          static_cast<uint64_t>(job->request.kind));
      SnapshotHandle snapshot = job->request.at_root.has_value()
                                    ? registry_->AcquireAt(*job->request.at_root)
                                    : registry_->AcquireLatest();
      if (!snapshot.valid()) {
        response.status = QueryStatus::kUnknownRoot;
      } else {
        SnapshotReader reader(snapshot);
        response = EvalQuery(job->request, reader, snapshot.block_index(), snapshot.root(),
                             &SharedCodeCache());
      }
    }
    const uint64_t elapsed = MonotonicNs() - start;
    response.wall_ns = elapsed;
    if (response.status == QueryStatus::kOk) {
      served_.fetch_add(1, std::memory_order_relaxed);
      by_kind_[static_cast<size_t>(job->request.kind)].fetch_add(1, std::memory_order_relaxed);
      if (job->request.kind == QueryKind::kCall) {
        call_hist.Observe(elapsed);
        if (response.call_status != EvmStatus::kSuccess) {
          calls_reverted_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      served_counter.Add();
    } else {
      unknown_root_.fetch_add(1, std::memory_order_relaxed);
      miss_counter.Add();
    }
    total_serve_ns_.fetch_add(elapsed, std::memory_order_relaxed);
    serve_hist.Observe(elapsed);
    job->promise.set_value(std::move(response));
  }
}

}  // namespace pevm
