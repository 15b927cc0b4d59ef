#include "src/ops/ops_server.h"

#include <cstdio>
#include <utility>

#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace pevm::ops {

OpsServer::OpsServer(const OpsServerOptions& options, const FlightRecorder& recorder,
                     std::function<PipelineProgress()> progress,
                     std::function<SnapshotStats()> snapshot_stats)
    : options_(options),
      recorder_(recorder),
      progress_(std::move(progress)),
      snapshot_stats_(std::move(snapshot_stats)) {}

OpsServer::~OpsServer() { Stop(); }

bool OpsServer::Start(std::string* error) {
  if (started_) {
    return true;
  }
  if (options_.port >= 0) {
    HttpServer::Options http_options;
    http_options.bind_address = options_.bind_address;
    http_options.port = options_.port;
    http_options.threads = options_.http_threads;
    http_ = std::make_unique<HttpServer>(http_options);
    http_->Route("GET", "/", [this](const HttpRequest& r) { return HandleIndex(r); });
    http_->Route("GET", "/metrics", [this](const HttpRequest& r) { return HandleMetrics(r); });
    http_->Route("GET", "/healthz", [this](const HttpRequest& r) { return HandleHealthz(r); });
    http_->Route("GET", "/debug/blocks",
                 [this](const HttpRequest& r) { return HandleBlocks(r); });
    http_->Route("GET", "/debug/trace", [this](const HttpRequest& r) { return HandleTrace(r); });
    if (!http_->Start(error)) {
      http_.reset();
      return false;
    }
  }
  if (options_.watchdog) {
    WatchdogOptions watchdog_options;
    watchdog_options.deadline_ms = options_.watchdog_deadline_ms;
    watchdog_options.poll_ms = options_.watchdog_poll_ms;
    watchdog_options.log_to_stderr = options_.watchdog_log_to_stderr;
    watchdog_options.on_stall = options_.on_stall;
    watchdog_options.dump_prefix = options_.stall_dump_prefix;
    watchdog_ = std::make_unique<StallWatchdog>(progress_, &recorder_, watchdog_options);
  }
  started_ = true;
  return true;
}

void OpsServer::Stop() {
  if (!started_) {
    return;
  }
  started_ = false;
  if (watchdog_) {
    watchdog_->Stop();
  }
  if (http_) {
    http_->Stop();
  }
}

HttpResponse OpsServer::HandleIndex(const HttpRequest&) {
  return {200, "text/plain; charset=utf-8",
          "pevm ops plane\n"
          "  GET  /metrics      Prometheus text exposition\n"
          "  GET  /healthz      liveness + per-stage progress (JSON)\n"
          "  GET  /debug/blocks flight-recorder dump (JSON)\n"
          "  GET  /debug/trace  live trace rings (Chrome trace JSON)\n"};
}

HttpResponse OpsServer::HandleMetrics(const HttpRequest&) {
  // Refresh the recorder-health gauges so a scrape sees current ring
  // occupancy, then render. Both steps only read relaxed atomics.
  telemetry::UpdateTraceGauges();
  scrapes_.fetch_add(1, std::memory_order_relaxed);
  return {200, "text/plain; version=0.0.4; charset=utf-8", telemetry::MetricsPrometheus()};
}

HttpResponse OpsServer::HandleHealthz(const HttpRequest&) {
  PipelineProgress progress = progress_();
  std::string body;
  body.reserve(1024);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"status\": \"%s\", \"running\": %s,\n"
                "\"blocks_submitted\": %llu, \"blocks_committed\": %llu,\n"
                "\"stages\": [",
                progress.running ? "ok" : "stopped", progress.running ? "true" : "false",
                static_cast<unsigned long long>(progress.blocks_submitted),
                static_cast<unsigned long long>(progress.blocks_committed));
  body += buf;
  bool first = true;
  for (const StageProgress& stage : progress.stages) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"active\": %s, \"entered\": %llu, "
                  "\"exited\": %llu, \"queue_depth\": %zu, \"queue_high_water\": %zu}",
                  first ? "" : ",", stage.name.c_str(), stage.active ? "true" : "false",
                  static_cast<unsigned long long>(stage.entered),
                  static_cast<unsigned long long>(stage.exited), stage.queue_depth,
                  stage.queue_high_water);
    body += buf;
    first = false;
  }
  body += "\n]";
  if (snapshot_stats_) {
    SnapshotStats stats = snapshot_stats_();
    std::snprintf(buf, sizeof(buf),
                  ",\n\"snapshots\": {\"published\": %llu, \"retired\": %llu, "
                  "\"acquires\": %llu, \"acquire_misses\": %llu, "
                  "\"versions_appended\": %llu, \"versions_folded\": %llu}",
                  static_cast<unsigned long long>(stats.published),
                  static_cast<unsigned long long>(stats.retired),
                  static_cast<unsigned long long>(stats.acquires),
                  static_cast<unsigned long long>(stats.acquire_misses),
                  static_cast<unsigned long long>(stats.versions_appended),
                  static_cast<unsigned long long>(stats.versions_folded));
    body += buf;
  }
  if (QueryEngine* engine = query_engine_.load(std::memory_order_acquire)) {
    QueryStats stats = engine->stats();
    std::snprintf(buf, sizeof(buf),
                  ",\n\"query\": {\"served\": %llu, \"unknown_root\": %llu, "
                  "\"rejected\": %llu, \"calls_reverted\": %llu, "
                  "\"queue_depth\": %zu, \"queue_high_water\": %zu}",
                  static_cast<unsigned long long>(stats.served),
                  static_cast<unsigned long long>(stats.unknown_root),
                  static_cast<unsigned long long>(stats.rejected),
                  static_cast<unsigned long long>(stats.calls_reverted),
                  engine->queue_depth(), engine->queue_high_water());
    body += buf;
  }
  std::snprintf(buf, sizeof(buf),
                ",\n\"flight_recorder\": {\"total_recorded\": %llu, \"capacity\": %zu}",
                static_cast<unsigned long long>(recorder_.total_recorded()),
                recorder_.capacity());
  body += buf;
  if (watchdog_) {
    std::snprintf(buf, sizeof(buf), ",\n\"stalls_detected\": %llu",
                  static_cast<unsigned long long>(watchdog_->stalls_detected()));
    body += buf;
  }
  body += "\n}\n";
  return {200, "application/json", std::move(body)};
}

HttpResponse OpsServer::HandleBlocks(const HttpRequest&) {
  return {200, "application/json", FlightRecorderJson(recorder_)};
}

HttpResponse OpsServer::HandleTrace(const HttpRequest&) {
  return {200, "application/json", telemetry::ChromeTraceJson()};
}

}  // namespace pevm::ops
