// Ops-plane battery (DESIGN.md §4.8): the embedded HTTP admin endpoint, the
// Prometheus exposition, the always-on flight recorder, and the stall
// watchdog — plus the inertness suite proving the whole plane is invisible in
// results: per-block roots and every deterministic BlockReport field are
// bit-identical with the ops plane off versus hammered with concurrent
// scrapes, at every executor width.
//
// Suite names (HttpServerTest / PrometheusTest / FlightRecorderTest /
// WatchdogTest / OpsPlaneTest / OpsInertnessTest) are load-bearing: CI and
// scripts/check_tsan.sh select tests by them.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/chain/chain_runner.h"
#include "src/ops/flight_recorder.h"
#include "src/ops/http_server.h"
#include "src/ops/ops_server.h"
#include "src/ops/watchdog.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/workload/block_gen.h"

namespace pevm {
namespace {

using ops::BlockRecord;
using ops::FlightRecorder;
using ops::HttpRequest;
using ops::HttpResponse;
using ops::HttpServer;
using ops::PipelineProgress;
using ops::StageProgress;
using ops::StallDiagnosis;
using ops::StallWatchdog;
using ops::WatchdogOptions;

// --- Raw-socket HTTP client (the tests must not trust the server's own
// parsing, so they speak bytes). One request per connection, mirroring the
// server's Connection: close contract.

struct FetchResult {
  bool ok = false;      // Connected and got a status line.
  int status = 0;
  std::string headers;  // Raw header block.
  std::string body;
  bool timed_out = false;  // The server neither answered nor closed in time.
};

// With `half_close` the client shuts its sending side after the request, so
// the server sees end-of-stream instead of waiting for bytes that never come.
FetchResult FetchRaw(int port, const std::string& request, bool half_close = false) {
  FetchResult result;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return result;
  }
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return result;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return result;
    }
    sent += static_cast<size_t>(n);
  }
  if (half_close) {
    ::shutdown(fd, SHUT_WR);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      result.timed_out = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      break;
    }
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t line_end = response.find("\r\n");
  if (line_end == std::string::npos || response.rfind("HTTP/1.", 0) != 0) {
    return result;
  }
  result.status = std::atoi(response.c_str() + sizeof("HTTP/1.1") - 1);
  size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return result;
  }
  result.headers = response.substr(0, header_end);
  result.body = response.substr(header_end + 4);
  result.ok = true;
  return result;
}

FetchResult Get(int port, const std::string& path) {
  return FetchRaw(port, "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

FetchResult Post(int port, const std::string& path, const std::string& body) {
  return FetchRaw(port, "POST " + path + " HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                            std::to_string(body.size()) + "\r\n\r\n" + body);
}

// Extracts the first unsigned integer following `key` in a JSON blob; -1 if
// absent. Enough structure awareness for the /healthz assertions without a
// JSON parser dependency.
long long JsonNumber(const std::string& json, const std::string& key) {
  size_t at = json.find("\"" + key + "\": ");
  if (at == std::string::npos) {
    return -1;
  }
  at += key.size() + 4;
  long long value = 0;
  bool any = false;
  while (at < json.size() && json[at] >= '0' && json[at] <= '9') {
    value = value * 10 + (json[at] - '0');
    ++at;
    any = true;
  }
  return any ? value : -1;
}

// --- HTTP server: routing, methods, bodies. --------------------------------

TEST(HttpServerTest, RoutesMethodsAndBodies) {
  HttpServer::Options options;
  options.port = 0;
  HttpServer server(options);
  server.Route("GET", "/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong";
    return response;
  });
  server.Route("POST", "/echo", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.body;
    return response;
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  FetchResult ping = Get(server.port(), "/ping");
  ASSERT_TRUE(ping.ok);
  EXPECT_EQ(ping.status, 200);
  EXPECT_EQ(ping.body, "pong");

  // Unknown path → 404; known path, wrong method → 405.
  EXPECT_EQ(Get(server.port(), "/nope").status, 404);
  EXPECT_EQ(Post(server.port(), "/ping", "x").status, 405);

  // POST body round-trips (including binary-ish bytes).
  std::string payload = "line1\nline2\x01\x02";
  FetchResult echo = Post(server.port(), "/echo", payload);
  ASSERT_TRUE(echo.ok);
  EXPECT_EQ(echo.status, 200);
  EXPECT_EQ(echo.body, payload);

  // Routed requests count as served; the 404/405 pair counts as rejected.
  EXPECT_GE(server.requests_served(), 2u);
  EXPECT_GE(server.requests_rejected(), 2u);
  server.Stop();
  server.Stop();  // Idempotent.
}

TEST(HttpServerTest, MalformedRequestRejected) {
  HttpServer::Options options;
  options.port = 0;
  HttpServer server(options);
  server.Route("GET", "/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong";
    return response;
  });
  std::atomic<int> echoed{0};
  server.Route("POST", "/echo", [&echoed](const HttpRequest& request) {
    echoed.fetch_add(1);
    HttpResponse response;
    response.body = request.body;
    return response;
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  FetchResult bad = FetchRaw(server.port(), "NOT-HTTP\r\n\r\n");
  // Either a 400 response or a dropped connection is acceptable; what is not
  // acceptable is a crash or a hang.
  if (bad.ok) {
    EXPECT_EQ(bad.status, 400);
  }
  // 2^64 + 1: a size_t accumulator would wrap to 1, pass the size limit and
  // serve "x" as the body. It must be refused.
  FetchResult wrapped = FetchRaw(
      server.port(),
      "POST /echo HTTP/1.1\r\nContent-Length: 18446744073709551617\r\n\r\nx");
  EXPECT_FALSE(wrapped.timed_out);
  if (wrapped.ok) {
    EXPECT_EQ(wrapped.status, 400);
  }
  EXPECT_EQ(echoed.load(), 0);
  // The blank line right after the request line ends an empty header block:
  // what follows is body, not headers.
  FetchResult no_headers =
      FetchRaw(server.port(), "GET /ping HTTP/1.1\r\n\r\nContent-Length: x");
  ASSERT_TRUE(no_headers.ok);
  EXPECT_EQ(no_headers.status, 200);
  EXPECT_EQ(no_headers.body, "pong");
  server.Stop();
}

// Seeded mutations of valid requests — truncation, byte flips, duplicated
// headers, huge Content-Length values — must each get a status line or a
// closed connection, never a hang or a crash, and the server must go on
// serving valid requests afterwards.
TEST(HttpServerTest, MutatedRequestsGetAStatusOrAClose) {
  HttpServer::Options options;
  options.port = 0;
  options.max_request_bytes = 4096;
  HttpServer server(options);
  server.Route("GET", "/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong";
    return response;
  });
  server.Route("POST", "/echo", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.body;
    return response;
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::vector<std::string> valid = {
      "GET /ping HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n",
      "POST /echo HTTP/1.1\r\nHost: localhost\r\nContent-Length: 5\r\n\r\nhello",
  };
  const std::vector<std::string> numbers = {
      "18446744073709551615", "18446744073709551616", "18446744073709551617",
      "99999999999999999999999999999999", "4097", "1048577", "-1", "0x10", "1 2", "",
  };
  std::mt19937_64 rng(0x4771);
  for (int i = 0; i < 300; ++i) {
    std::string request = valid[rng() % valid.size()];
    const size_t headers_begin = request.find("\r\n") + 2;
    const size_t headers_end = request.find("\r\n\r\n") + 2;
    switch (rng() % 4) {
      case 0:  // Truncation.
        request.resize(rng() % request.size());
        break;
      case 1:  // Byte flips.
        for (int flips = 1 + static_cast<int>(rng() % 4); flips > 0; --flips) {
          request[rng() % request.size()] = static_cast<char>(rng() & 0xff);
        }
        break;
      case 2: {  // A duplicated header line.
        size_t begin = headers_begin;
        for (size_t skip = rng() % 2; skip > 0 && begin < headers_end; --skip) {
          begin = request.find("\r\n", begin) + 2;
        }
        const size_t end = request.find("\r\n", begin) + 2;
        request.insert(begin, request.substr(begin, end - begin));
        break;
      }
      default:  // A huge or malformed Content-Length, possibly a second one.
        request.insert(headers_begin,
                       "Content-Length: " + numbers[rng() % numbers.size()] + "\r\n");
        break;
    }
    SCOPED_TRACE(testing::Message() << "request " << i << ": " << testing::PrintToString(request));
    FetchResult result = FetchRaw(server.port(), request, /*half_close=*/true);
    ASSERT_FALSE(result.timed_out);
    if (result.ok) {
      EXPECT_TRUE(result.status == 200 || result.status == 400 || result.status == 404 ||
                  result.status == 405 || result.status == 413)
          << result.status;
    }
  }

  FetchResult ping = Get(server.port(), "/ping");
  ASSERT_TRUE(ping.ok);
  EXPECT_EQ(ping.status, 200);
  EXPECT_EQ(ping.body, "pong");
  server.Stop();
}

// --- Prometheus exposition. ------------------------------------------------

TEST(PrometheusTest, CountersGaugesHistogramsRender) {
  telemetry::ClearMetrics();
  telemetry::GetCounter("opstest.counter").Add(7);
  telemetry::GetGauge("opstest.gauge").Set(-3);
  auto& hist = telemetry::GetHistogram("opstest.hist");
  hist.Observe(10);
  hist.Observe(1'000);
  hist.Observe(1'000'000);

  std::string text = telemetry::MetricsPrometheus();
  // Dots sanitize to underscores (Prometheus charset).
  EXPECT_NE(text.find("# TYPE opstest_counter counter\nopstest_counter 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE opstest_gauge gauge\nopstest_gauge -3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE opstest_hist histogram\n"), std::string::npos);
  EXPECT_NE(text.find("opstest_hist_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("opstest_hist_sum 1001010\n"), std::string::npos);
  // The +Inf bucket is cumulative and equals _count.
  EXPECT_NE(text.find("opstest_hist_bucket{le=\"+Inf\"} 3\n"), std::string::npos);

  // Cumulative bucket counts are non-decreasing in le order.
  uint64_t prev = 0;
  size_t at = 0;
  int buckets = 0;
  while ((at = text.find("opstest_hist_bucket{le=\"", at)) != std::string::npos) {
    size_t close = text.find("} ", at);
    ASSERT_NE(close, std::string::npos);
    uint64_t count = std::strtoull(text.c_str() + close + 2, nullptr, 10);
    EXPECT_GE(count, prev) << text;
    prev = count;
    ++buckets;
    at = close;
  }
  EXPECT_GE(buckets, 3);  // The three distinct magnitudes plus +Inf overlap.
  telemetry::ClearMetrics();
}

TEST(PrometheusTest, ScrapeEndpointMatchesRegistry) {
  telemetry::ClearMetrics();
  telemetry::GetCounter("opstest.scrape").Add(42);

  FlightRecorder recorder(4);
  ops::OpsServerOptions options;
  options.port = 0;
  ops::OpsServer server(options, recorder, [] {
    PipelineProgress progress;
    progress.running = true;
    return progress;
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  FetchResult scrape = Get(server.port(), "/metrics");
  ASSERT_TRUE(scrape.ok);
  EXPECT_EQ(scrape.status, 200);
  EXPECT_NE(scrape.headers.find("text/plain"), std::string::npos);
  EXPECT_NE(scrape.body.find("opstest_scrape 42\n"), std::string::npos);
  // The scrape refreshed the trace-ring gauges.
  EXPECT_NE(scrape.body.find("trace_ring_threads"), std::string::npos);
  EXPECT_EQ(server.scrapes(), 1u);
  server.Stop();
  telemetry::ClearMetrics();
}

// --- Flight recorder: ring semantics. --------------------------------------

TEST(FlightRecorderTest, WrapsKeepingNewestOldestFirst) {
  FlightRecorder recorder(4);
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_TRUE(recorder.Snapshot().empty());

  for (uint64_t i = 1; i <= 10; ++i) {
    BlockRecord record;
    record.block_index = i;
    record.transactions = i * 10;
    recorder.Record(record);
  }
  EXPECT_EQ(recorder.total_recorded(), 10u);
  std::vector<BlockRecord> resident = recorder.Snapshot();
  ASSERT_EQ(resident.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(resident[i].block_index, 7 + i) << "oldest-first order";
    EXPECT_EQ(resident[i].transactions, (7 + i) * 10);
  }
}

TEST(FlightRecorderTest, JsonDumpCarriesEveryResidentBlock) {
  FlightRecorder recorder(8);
  for (uint64_t i = 1; i <= 3; ++i) {
    BlockRecord record;
    record.block_index = i;
    record.conflicts = static_cast<int>(i);
    record.bytes_appended = 100 * i;
    record.spec_stale_reads = 10 * i;
    recorder.Record(record);
  }
  std::string json = ops::FlightRecorderJson(recorder);
  EXPECT_NE(json.find("\"total_recorded\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"block\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"block\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"conflicts\": 2"), std::string::npos);
  // The seal and boundary fields are serialized under their field names too.
  EXPECT_NE(json.find("\"bytes_appended\": 300"), std::string::npos);
  EXPECT_NE(json.find("\"spec_stale_reads\": 20"), std::string::npos);
}

// --- Watchdog: idle vs busy vs stalled. ------------------------------------

PipelineProgress MakeProgress(uint64_t submitted, uint64_t committed,
                              std::vector<StageProgress> stages) {
  PipelineProgress progress;
  progress.running = true;
  progress.blocks_submitted = submitted;
  progress.blocks_committed = committed;
  progress.stages = std::move(stages);
  return progress;
}

StageProgress MakeStage(const char* name, uint64_t entered, uint64_t exited,
                        size_t queue_depth = 0) {
  StageProgress stage;
  stage.name = name;
  stage.active = true;
  stage.entered = entered;
  stage.exited = exited;
  stage.queue_depth = queue_depth;
  return stage;
}

TEST(WatchdogTest, WedgedStageFiresOnceNamingDeepestStuckStage) {
  // Frozen sample: exec holds a block (entered 3, exited 2) with input
  // backed up; everything upstream is done. The diagnosis must say "exec".
  PipelineProgress wedged = MakeProgress(
      5, 2,
      {MakeStage("warm", 5, 5), MakeStage("spec", 5, 5), MakeStage("exec", 3, 2, 2),
       MakeStage("commit", 2, 2)});
  ASSERT_TRUE(wedged.WorkInFlight());

  std::atomic<int> fired{0};
  std::string stage_named;
  WatchdogOptions options;
  options.deadline_ms = 80;
  options.poll_ms = 10;
  options.log_to_stderr = false;
  options.on_stall = [&](const StallDiagnosis& diagnosis) {
    stage_named = diagnosis.stage;
    fired.fetch_add(1);
  };
  FlightRecorder recorder(4);
  BlockRecord record;
  record.block_index = 2;
  recorder.Record(record);
  StallWatchdog watchdog([&] { return wedged; }, &recorder, options);

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fired.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(fired.load(), 1);
  EXPECT_EQ(stage_named, "exec");
  std::optional<StallDiagnosis> last_opt = watchdog.last_diagnosis();
  ASSERT_TRUE(last_opt.has_value());
  const StallDiagnosis& last = *last_opt;
  EXPECT_GE(last.stalled_for_ms, options.deadline_ms);
  ASSERT_EQ(last.recent_blocks.size(), 1u);
  EXPECT_EQ(last.recent_blocks[0].block_index, 2u);
  std::string rendered = last.Render();
  EXPECT_NE(rendered.find("exec"), std::string::npos);

  // Fire-once: the same frozen episode must not re-fire on later polls.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(watchdog.stalls_detected(), 1u);
  watchdog.Stop();
}

TEST(WatchdogTest, StuckQueueWithNoStageMidBlockBlamesTheConsumer) {
  // No stage holds a block, but exec's input queue is non-empty and frozen:
  // the consumer is not picking work up.
  PipelineProgress wedged = MakeProgress(
      4, 2,
      {MakeStage("warm", 4, 4), MakeStage("exec", 2, 2, 2), MakeStage("commit", 2, 2)});
  std::atomic<int> fired{0};
  std::string stage_named;
  WatchdogOptions options;
  options.deadline_ms = 60;
  options.poll_ms = 10;
  options.log_to_stderr = false;
  options.on_stall = [&](const StallDiagnosis& diagnosis) {
    stage_named = diagnosis.stage;
    fired.fetch_add(1);
  };
  StallWatchdog watchdog([&] { return wedged; }, nullptr, options);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fired.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(fired.load(), 1);
  EXPECT_EQ(stage_named, "exec");
  watchdog.Stop();
}

TEST(WatchdogTest, BusyPipelineStaysSilent) {
  // Fingerprint changes every sample: never a stall, however long we watch.
  std::atomic<uint64_t> tick{0};
  WatchdogOptions options;
  options.deadline_ms = 50;
  options.poll_ms = 10;
  options.log_to_stderr = false;
  StallWatchdog watchdog(
      [&] {
        uint64_t t = tick.fetch_add(1);
        return MakeProgress(t + 1, t, {MakeStage("exec", t + 1, t)});
      },
      nullptr, options);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(watchdog.stalls_detected(), 0u);
  watchdog.Stop();
}

TEST(WatchdogTest, IdlePipelineStaysSilent) {
  // Frozen counters but no work in flight — an idle node is healthy.
  PipelineProgress idle =
      MakeProgress(3, 3, {MakeStage("warm", 3, 3), MakeStage("exec", 3, 3),
                          MakeStage("commit", 3, 3)});
  ASSERT_FALSE(idle.WorkInFlight());
  WatchdogOptions options;
  options.deadline_ms = 40;
  options.poll_ms = 10;
  options.log_to_stderr = false;
  StallWatchdog watchdog([&] { return idle; }, nullptr, options);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(watchdog.stalls_detected(), 0u);
  watchdog.Stop();
}

TEST(WatchdogTest, ReArmsAfterProgressResumes) {
  // Wedge → fire → progress → wedge again → second fire.
  std::atomic<int> phase{0};
  WatchdogOptions options;
  options.deadline_ms = 50;
  options.poll_ms = 10;
  options.log_to_stderr = false;
  StallWatchdog watchdog(
      [&] {
        int p = phase.load();
        // Phase 0/2: frozen wedge (distinct fingerprints so phase 2 is a new
        // episode). Phase 1: brief progress burst.
        if (p == 1) {
          static std::atomic<uint64_t> burst{100};
          uint64_t t = burst.fetch_add(1);
          return MakeProgress(t + 1, t, {MakeStage("exec", t + 1, t)});
        }
        uint64_t base = p == 0 ? 1 : 50;
        return MakeProgress(base + 1, base, {MakeStage("exec", base + 1, base)});
      },
      nullptr, options);
  auto wait_for_stalls = [&](uint64_t want) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (watchdog.stalls_detected() < want &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return watchdog.stalls_detected();
  };
  ASSERT_GE(wait_for_stalls(1), 1u);
  phase.store(1);  // Progress: re-arm.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  phase.store(2);  // Second wedge.
  EXPECT_GE(wait_for_stalls(2), 2u);
  watchdog.Stop();
}

// --- Live chain runner: endpoints mid-run, watchdog on a real wedge. -------

WorkloadConfig OpsConfig(uint64_t seed, int txs = 48, int users = 300) {
  WorkloadConfig config;
  config.seed = seed;
  config.transactions_per_block = txs;
  config.users = users;
  config.tokens = 6;
  config.pools = 3;
  config.funds = 2;
  return config;
}

TEST(OpsPlaneTest, EndpointsAnswerMidRunAndCountersAreMonotone) {
  WorkloadGenerator gen(OpsConfig(81'000));
  WorldState genesis = gen.MakeGenesis();
  std::vector<Block> blocks;
  for (int i = 0; i < 4; ++i) {
    blocks.push_back(gen.MakeBlock());
  }

  ChainOptions options;
  options.ops_server.port = 0;
  options.exec.os_threads = 4;
  options.query_tier = true;
  // Real (slept) storage latency stretches the run so mid-run scrapes land
  // while blocks are genuinely in flight.
  options.exec.storage.cold_read_ns = 100'000;
  ChainRunner runner(options, genesis);
  ASSERT_NE(runner.ops_server(), nullptr);
  int port = runner.ops_server()->port();
  ASSERT_GT(port, 0);

  std::thread producer([&] {
    for (const Block& block : blocks) {
      ASSERT_TRUE(runner.Submit(block));
    }
  });

  // Scrape while the pipeline runs; committed counter must be monotone.
  long long last_committed = 0;
  int scrapes_ok = 0;
  for (int i = 0; i < 20; ++i) {
    FetchResult health = Get(port, "/healthz");
    if (health.ok && health.status == 200) {
      ++scrapes_ok;
      EXPECT_NE(health.body.find("\"status\": \"ok\""), std::string::npos);
      EXPECT_NE(health.body.find("\"name\": \"exec\""), std::string::npos);
      long long committed = JsonNumber(health.body, "blocks_committed");
      ASSERT_GE(committed, last_committed) << "committed counter went backwards";
      last_committed = committed;
    }
    FetchResult metrics = Get(port, "/metrics");
    if (metrics.ok) {
      EXPECT_EQ(metrics.status, 200);
      EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  producer.join();
  ChainReport report = runner.Finish();
  EXPECT_EQ(report.blocks_committed, blocks.size());
  EXPECT_GT(scrapes_ok, 0) << "no scrape ever landed (vacuous test)";

  // Post-run: the ops plane outlives Finish; the recorder holds every block.
  FetchResult dump = Get(port, "/debug/blocks");
  ASSERT_TRUE(dump.ok);
  EXPECT_EQ(dump.status, 200);
  for (size_t b = 1; b <= blocks.size(); ++b) {
    EXPECT_NE(dump.body.find("\"block\": " + std::to_string(b)), std::string::npos)
        << dump.body;
  }
  // Healthz reflects quiescence (running until destruction, all committed).
  FetchResult final_health = Get(port, "/healthz");
  ASSERT_TRUE(final_health.ok);
  EXPECT_EQ(JsonNumber(final_health.body, "blocks_committed"),
            static_cast<long long>(blocks.size()));

  // POST /debug/trace exports to the requested path.
  std::string trace_path =
      (std::filesystem::temp_directory_path() / "ops_test_trace.json").string();
  std::remove(trace_path.c_str());
  FetchResult trace = Post(port, "/debug/trace", trace_path + "\n");
  ASSERT_TRUE(trace.ok);
  EXPECT_EQ(trace.status, 200);
  EXPECT_TRUE(std::filesystem::exists(trace_path)) << trace.body;
  std::remove(trace_path.c_str());
}

// The flight ring and ChainReport::blocks are the same final records, and
// the records add up to the report: stage busy times, speculation totals and
// durability totals are sums over blocks.
TEST(OpsPlaneTest, FlightRecorderAnatomyIsCoherent) {
  WorkloadGenerator gen(OpsConfig(82'000));
  WorldState genesis = gen.MakeGenesis();
  std::vector<Block> blocks;
  for (int i = 0; i < 5; ++i) {
    blocks.push_back(gen.MakeBlock());
  }
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) /
                                    ("ops_records_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ChainOptions options;
  options.exec.os_threads = 2;
  options.speculate = true;
  options.persist = PersistMode::kKv;
  options.kv.fsync = false;
  options.commit.batch_blocks = 2;
  // The genesis seal alone: a run over the same genesis that commits nothing.
  options.kv_dir = (dir / "genesis").string();
  ChainRunner genesis_only(options, genesis);
  const ChainReport& seal = genesis_only.Finish();
  ASSERT_GT(seal.kv_bytes_appended, 0u);

  options.kv_dir = (dir / "stream").string();
  ChainRunner runner(options, genesis);  // No HTTP, no watchdog: recorder still on.
  ASSERT_EQ(runner.ops_server(), nullptr);
  for (const Block& block : blocks) {
    ASSERT_TRUE(runner.Submit(block));
  }
  const ChainReport& report = runner.Finish();

  std::vector<BlockRecord> ring = runner.flight_recorder().Snapshot();
  ASSERT_EQ(ring.size(), blocks.size());
  ASSERT_EQ(report.blocks.size(), blocks.size());
  const uint64_t expected_batch[] = {1, 1, 2, 2, 3};
  uint64_t warm_ns = 0, spec_ns = 0, exec_ns = 0;
  uint64_t bytes = 0, fsyncs = 0, sync_ns = 0;
  SpecStats spec;
  for (size_t b = 0; b < ring.size(); ++b) {
    SCOPED_TRACE(testing::Message() << "block " << b);
    const BlockRecord& r = ring[b];
    EXPECT_TRUE(r == report.blocks[b]) << "ring and report disagree";
    EXPECT_EQ(r.block_index, b + 1);
    EXPECT_EQ(r.transactions, blocks[b].transactions.size());
    EXPECT_EQ(r.root, report.roots[b]);
    const BlockReport& br = report.block_reports[b];
    EXPECT_EQ(r.conflicts, br.conflicts);
    EXPECT_EQ(r.redo_success, br.redo_success);
    EXPECT_EQ(r.redo_fail, br.redo_fail);
    EXPECT_EQ(r.full_reexecutions, br.full_reexecutions);
    EXPECT_EQ(r.oplog_entries, br.oplog_entries);
    EXPECT_EQ(r.instructions, br.instructions);
    EXPECT_EQ(r.prefetch_hits, br.prefetch_hits);
    EXPECT_EQ(r.prefetch_misses, br.prefetch_misses);
    EXPECT_GT(r.exec_busy_ns, 0u);
    EXPECT_GT(r.commit_apply_ns, 0u);
    EXPECT_GT(r.diff_entries, 0u);
    EXPECT_EQ(r.commit_batch, expected_batch[b]);
    // Seal freight lands on each batch's last block (blocks 2, 4 and 5).
    const bool sealed_here = b == 1 || b == 3 || b == 4;
    EXPECT_EQ(r.commit_persist_ns > 0, sealed_here);
    EXPECT_EQ(r.nodes_written > 0, sealed_here);
    EXPECT_EQ(r.bytes_appended > 0, sealed_here);
    EXPECT_GT(r.queue_to_durable_ns, 0u);

    warm_ns += r.warm_busy_ns;
    spec_ns += r.spec_busy_ns;
    exec_ns += r.exec_busy_ns;
    bytes += r.bytes_appended;
    fsyncs += r.fsyncs;
    sync_ns += r.sync_ns;
    spec.blocks_speculated += r.spec_launched + r.spec_held > 0 ? 1 : 0;
    spec.txs_launched += r.spec_launched;
    spec.txs_held += r.spec_held;
    spec.seeds_clean += r.spec_clean;
    spec.seeds_redo_repaired += r.spec_repaired;
    spec.seeds_dropped += r.spec_dropped;
    spec.stale_reads += r.spec_stale_reads;
    spec.boundary_validate_wall_ns += r.spec_validate_ns;
  }
  EXPECT_EQ(warm_ns, report.warm.busy_ns);
  EXPECT_EQ(spec_ns, report.spec.busy_ns);
  EXPECT_EQ(exec_ns, report.exec.busy_ns);
  EXPECT_GT(report.speculation.txs_launched, 0u) << "speculation never launched (vacuous)";
  EXPECT_EQ(report.speculation.blocks_speculated, spec.blocks_speculated);
  EXPECT_EQ(report.speculation.txs_launched, spec.txs_launched);
  EXPECT_EQ(report.speculation.txs_held, spec.txs_held);
  EXPECT_EQ(report.speculation.seeds_clean, spec.seeds_clean);
  EXPECT_EQ(report.speculation.seeds_redo_repaired, spec.seeds_redo_repaired);
  EXPECT_EQ(report.speculation.seeds_dropped, spec.seeds_dropped);
  EXPECT_EQ(report.speculation.stale_reads, spec.stale_reads);
  EXPECT_EQ(report.speculation.boundary_validate_wall_ns, spec.boundary_validate_wall_ns);
  EXPECT_EQ(report.kv_bytes_appended, seal.kv_bytes_appended + bytes);
  EXPECT_EQ(report.kv_fsyncs, seal.kv_fsyncs + fsyncs);
  EXPECT_EQ(report.kv_sync_ns, seal.kv_sync_ns + sync_ns);
  std::filesystem::remove_all(dir);
}

TEST(OpsPlaneTest, WatchdogNamesWedgedStageOnRealRunner) {
  // A handful of transactions against 20ms (really slept) cold reads wedges
  // the exec stage for seconds; the watchdog's 150ms deadline fires first and
  // must blame "exec".
  WorkloadGenerator gen(OpsConfig(83'000, /*txs=*/6, /*users=*/50));
  WorldState genesis = gen.MakeGenesis();
  Block block = gen.MakeBlock();

  std::atomic<int> fired{0};
  std::string stage_named;
  ChainOptions options;
  options.exec.os_threads = 1;
  options.exec.storage.cold_read_ns = 20'000'000;
  options.ops_server.watchdog = true;
  options.ops_server.watchdog_deadline_ms = 150;
  options.ops_server.watchdog_poll_ms = 20;
  options.ops_server.watchdog_log_to_stderr = false;
  options.ops_server.on_stall = [&](const StallDiagnosis& diagnosis) {
    // Write before publishing: the main thread reads stage_named as soon as
    // it observes fired != 0. on_stall only ever runs on the watchdog thread,
    // so the unsynchronized load of fired here is single-writer-safe.
    if (fired.load() == 0) {
      stage_named = diagnosis.stage;
    }
    fired.fetch_add(1);
  };
  ChainRunner runner(options, genesis);
  ASSERT_NE(runner.ops_server(), nullptr);
  ASSERT_NE(runner.ops_server()->watchdog(), nullptr);
  ASSERT_TRUE(runner.Submit(block));

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fired.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(fired.load(), 1) << "watchdog never fired on a wedged pipeline";
  EXPECT_EQ(stage_named, "exec");
  ChainReport report = runner.Finish();  // The block eventually completes.
  EXPECT_EQ(report.blocks_committed, 1u);
}

TEST(OpsPlaneTest, WatchdogSilentOnHealthyRunner) {
  WorkloadGenerator gen(OpsConfig(84'000));
  WorldState genesis = gen.MakeGenesis();
  ChainOptions options;
  options.exec.os_threads = 4;
  options.ops_server.watchdog = true;
  options.ops_server.watchdog_deadline_ms = 10'000;  // Generous: never hit.
  options.ops_server.watchdog_poll_ms = 20;
  options.ops_server.watchdog_log_to_stderr = false;
  ChainRunner runner(options, genesis);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(runner.Submit(gen.MakeBlock()));
  }
  ChainReport report = runner.Finish();
  EXPECT_EQ(report.blocks_committed, 3u);
  ASSERT_NE(runner.ops_server()->watchdog(), nullptr);
  EXPECT_EQ(runner.ops_server()->watchdog()->stalls_detected(), 0u);
}

// --- Inertness: ops plane off vs hammered is invisible in results. ---------

struct ChainRunResult {
  std::vector<std::string> roots;
  std::vector<BlockReport> reports;
  uint64_t scrapes = 0;
};

ChainRunResult RunChain(const WorldState& genesis, const std::vector<Block>& blocks,
                        int os_threads, bool hammer_ops) {
  ChainOptions options;
  options.exec.os_threads = os_threads;
  options.exec.prefetch_depth = 0;
  if (hammer_ops) {
    options.ops_server.port = 0;
  }
  ChainRunner runner(options, genesis);

  std::atomic<bool> stop_hammer{false};
  std::thread hammer;
  if (hammer_ops) {
    int port = runner.ops_server()->port();
    hammer = std::thread([port, &stop_hammer] {
      int which = 0;
      while (!stop_hammer.load(std::memory_order_relaxed)) {
        switch (which++ % 3) {
          case 0:
            Get(port, "/metrics");
            break;
          case 1:
            Get(port, "/healthz");
            break;
          default:
            Get(port, "/debug/blocks");
            break;
        }
      }
    });
  }
  for (const Block& block : blocks) {
    EXPECT_TRUE(runner.Submit(block));
  }
  ChainReport report = runner.Finish();
  ChainRunResult result;
  if (hammer_ops) {
    // Keep hammering past Finish too (the plane outlives the pipeline), then
    // record the scrape count as the vacuity guard.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop_hammer.store(true);
    hammer.join();
    result.scrapes = runner.ops_server()->scrapes();
  }
  for (const Hash256& root : report.roots) {
    result.roots.push_back(HexEncode(root));
  }
  result.reports = report.block_reports;
  return result;
}

// Deterministic-field comparison, mirroring telemetry_test's contract.
void ExpectSameDeterministicFields(const ChainRunResult& off, const ChainRunResult& on,
                                   int os_threads) {
  SCOPED_TRACE(testing::Message() << "os_threads=" << os_threads);
  ASSERT_EQ(off.roots.size(), on.roots.size());
  for (size_t b = 0; b < off.roots.size(); ++b) {
    EXPECT_EQ(off.roots[b], on.roots[b]) << "block " << b;
  }
  ASSERT_EQ(off.reports.size(), on.reports.size());
  for (size_t b = 0; b < off.reports.size(); ++b) {
    const BlockReport& x = off.reports[b];
    const BlockReport& y = on.reports[b];
    EXPECT_EQ(x.makespan_ns, y.makespan_ns);
    EXPECT_EQ(x.conflicts, y.conflicts);
    EXPECT_EQ(x.redo_success, y.redo_success);
    EXPECT_EQ(x.redo_fail, y.redo_fail);
    EXPECT_EQ(x.full_reexecutions, y.full_reexecutions);
    EXPECT_EQ(x.oplog_entries, y.oplog_entries);
    EXPECT_EQ(x.instructions, y.instructions);
    EXPECT_EQ(x.conflict_keys, y.conflict_keys);
    EXPECT_EQ(x.receipts, y.receipts);
  }
}

TEST(OpsInertnessTest, HammeredOpsPlaneIsInvisibleInResults) {
  WorkloadGenerator gen(OpsConfig(85'000));
  WorldState genesis = gen.MakeGenesis();
  std::vector<Block> blocks;
  for (int i = 0; i < 3; ++i) {
    blocks.push_back(gen.MakeBlock());
  }
  for (int os_threads : {1, 4, 16}) {
    ChainRunResult off = RunChain(genesis, blocks, os_threads, /*hammer_ops=*/false);
    ChainRunResult hammered = RunChain(genesis, blocks, os_threads, /*hammer_ops=*/true);
    ASSERT_GT(hammered.scrapes, 0u) << "hammer thread never landed a scrape (vacuous)";
    ExpectSameDeterministicFields(off, hammered, os_threads);
  }
}

}  // namespace
}  // namespace pevm
