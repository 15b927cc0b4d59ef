// The ops plane a running chain node exposes (DESIGN.md §4.8): an embedded
// admin HTTP endpoint plus the stall watchdog, both fed by read-only views of
// pipeline state. Owned by the ChainRunner (ChainOptions::ops_server) but
// deliberately chain-agnostic: it sees the pipeline only through a
// PipelineProgress closure, the flight recorder, and optional stats
// closures, so tests can drive it with fakes and future subsystems can
// attach without a dependency cycle (ops links telemetry + query; chain
// links ops).
//
// Routes:
//   GET  /            — plain-text index of the endpoints.
//   GET  /metrics     — Prometheus text exposition of the metrics registry
//                       (counters, gauges, 65-bucket histograms as
//                       _bucket/_sum/_count), trace-ring gauges refreshed
//                       per scrape.
//   GET  /healthz     — JSON liveness: pipeline running, blocks
//                       submitted/committed, per-stage progress counters and
//                       queue depths, snapshot-registry and query-engine
//                       stats when attached.
//   GET  /debug/blocks— flight-recorder dump (per-block records, JSON).
//   GET  /debug/trace — the live trace rings as Chrome trace JSON, returned
//                       as the response body.
//
// Every route is a read-only GET: no request can make the node write a file.
#ifndef SRC_OPS_OPS_SERVER_H_
#define SRC_OPS_OPS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/ops/flight_recorder.h"
#include "src/ops/http_server.h"
#include "src/ops/watchdog.h"
#include "src/query/query_engine.h"
#include "src/query/snapshot.h"

namespace pevm::ops {

struct OpsServerOptions {
  // HTTP endpoint. port < 0 disables it (the watchdog can still run);
  // port 0 binds an ephemeral port, reported by OpsServer::port().
  int port = -1;
  std::string bind_address = "127.0.0.1";
  int http_threads = 2;

  // Flight-recorder ring capacity, in blocks. The recorder itself is always
  // on (it lives in the ChainRunner); this only sizes the ring.
  size_t flight_recorder_blocks = 256;

  // Stall watchdog (off by default: a bench driving the pipeline through
  // deliberately slow configurations should not self-diagnose).
  bool watchdog = false;
  uint64_t watchdog_deadline_ms = 10'000;
  uint64_t watchdog_poll_ms = 200;
  bool watchdog_log_to_stderr = true;
  // Auto-dump prefix on stall: writes <prefix>_trace.json and
  // <prefix>_metrics.json ("" = no dumps).
  std::string stall_dump_prefix;
  // Test/embedder hook forwarded to the watchdog.
  std::function<void(const StallDiagnosis&)> on_stall;

  bool enabled() const { return port >= 0 || watchdog; }
};

class OpsServer {
 public:
  // `recorder` and the `progress` closure must outlive this server (the
  // runner stops the ops plane before tearing the pipeline down).
  // `snapshot_stats` may be null (query tier off).
  OpsServer(const OpsServerOptions& options, const FlightRecorder& recorder,
            std::function<PipelineProgress()> progress,
            std::function<SnapshotStats()> snapshot_stats = nullptr);
  ~OpsServer();

  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;

  // Binds the HTTP endpoint (when port >= 0) and starts the watchdog (when
  // enabled). Returns false with a reason if the socket can't be bound.
  bool Start(std::string* error);

  // Stops the watchdog and the HTTP server (drains in-flight scrapes).
  // Idempotent.
  void Stop();

  // The bound HTTP port, or -1 when the endpoint is disabled.
  int port() const { return http_ ? http_->port() : -1; }

  // Attach/detach the query engine surfaced in /healthz (nullptr detaches).
  // The engine must stay alive until detached or the server stops.
  void AttachQueryEngine(QueryEngine* engine) {
    query_engine_.store(engine, std::memory_order_release);
  }

  StallWatchdog* watchdog() { return watchdog_.get(); }

  // GET /metrics responses served (test introspection).
  uint64_t scrapes() const { return scrapes_.load(std::memory_order_relaxed); }

 private:
  HttpResponse HandleIndex(const HttpRequest& request);
  HttpResponse HandleMetrics(const HttpRequest& request);
  HttpResponse HandleHealthz(const HttpRequest& request);
  HttpResponse HandleBlocks(const HttpRequest& request);
  HttpResponse HandleTrace(const HttpRequest& request);

  OpsServerOptions options_;
  const FlightRecorder& recorder_;
  std::function<PipelineProgress()> progress_;
  std::function<SnapshotStats()> snapshot_stats_;
  std::atomic<QueryEngine*> query_engine_{nullptr};
  std::unique_ptr<HttpServer> http_;
  std::unique_ptr<StallWatchdog> watchdog_;
  std::atomic<uint64_t> scrapes_{0};
  bool started_ = false;
};

}  // namespace pevm::ops

#endif  // SRC_OPS_OPS_SERVER_H_
