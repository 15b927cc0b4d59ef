// Stall watchdog for the chain pipeline: a sampling thread that reads the
// per-stage progress counters (blocks entered/exited per stage, input-queue
// depths) and distinguishes three conditions:
//
//   idle    — no work in flight (every stage drained, queues empty):
//             silent, however long it lasts. An idle node is healthy.
//   busy    — counters changing: silent.
//   stalled — work in flight AND no counter changed for longer than the
//             deadline: fire. The diagnosis names the deepest stuck stage
//             (the most-downstream stage holding a block it has not finished,
//             else the first stage with queued input it is not picking up),
//             carries the full progress sample, and attaches the last
//             flight-recorder entries — what the pipeline was doing when it
//             wedged. Optionally auto-dumps the Chrome trace and a metrics
//             snapshot to disk, because by the time a human attaches, the
//             interesting history is exactly what the rings still hold.
//
// One stall fires once: the watchdog re-arms only after progress resumes, so
// a wedged pipeline produces one diagnosis, not one per poll. The progress
// source is a closure over relaxed atomics — sampling takes no pipeline lock
// and cannot perturb execution (the §4.8 inertness argument).
#ifndef SRC_OPS_WATCHDOG_H_
#define SRC_OPS_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/ops/flight_recorder.h"

namespace pevm::ops {

// One pipeline stage's progress sample. entered > exited means the stage is
// holding a block mid-work; queue_depth is the stage's *input* queue.
struct StageProgress {
  std::string name;
  bool active = false;  // Stage thread exists in this configuration.
  uint64_t entered = 0;
  uint64_t exited = 0;
  size_t queue_depth = 0;
  size_t queue_high_water = 0;
};

struct PipelineProgress {
  bool running = false;  // Pipeline threads alive (false after Finish/Abort).
  uint64_t blocks_submitted = 0;
  uint64_t blocks_committed = 0;
  std::vector<StageProgress> stages;  // Upstream → downstream order.

  // True when any stage holds a block, any input queue is non-empty, or
  // submitted blocks have not all committed — i.e. silence is NOT idleness.
  bool WorkInFlight() const;

  // Counters-only fingerprint: two equal fingerprints = zero progress
  // between the samples. Queue depths are excluded deliberately — depth can
  // fluctuate (producers filling up behind a stall) while nothing completes.
  std::vector<uint64_t> Fingerprint() const;
};

struct StallDiagnosis {
  std::string stage;  // The wedged stage's name ("exec", "commit", ...).
  uint64_t stalled_for_ms = 0;
  PipelineProgress progress;               // The sample that fired.
  std::vector<BlockRecord> recent_blocks;  // Tail of the flight recorder.

  // Human-readable multi-line rendering (what log_to_stderr prints).
  std::string Render() const;
};

struct WatchdogOptions {
  uint64_t deadline_ms = 10'000;  // No progress for this long (with work
                                  // in flight) = stalled.
  uint64_t poll_ms = 200;         // Sampling period.
  // Auto-dump targets on stall ("" = skip). The trace dump is whatever the
  // per-thread rings still hold; the metrics dump includes the trace-ring
  // gauges refreshed at dump time.
  std::string trace_dump_path;
  std::string metrics_dump_path;
  bool log_to_stderr = true;
  // Test/embedder hook, called on the watchdog thread for each stall.
  std::function<void(const StallDiagnosis&)> on_stall;
};

class StallWatchdog {
 public:
  // `source` is sampled every poll_ms; it must stay callable until Stop()
  // returns (the ChainRunner stops its watchdog before tearing queues down).
  // `recorder` may be null (diagnoses then carry no block records).
  StallWatchdog(std::function<PipelineProgress()> source, const FlightRecorder* recorder,
                const WatchdogOptions& options);
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  // Joins the sampling thread. Idempotent.
  void Stop();

  uint64_t stalls_detected() const { return stalls_.load(std::memory_order_relaxed); }
  std::optional<StallDiagnosis> last_diagnosis() const;

 private:
  void Loop();
  void Fire(const PipelineProgress& progress, uint64_t stalled_for_ms);

  std::function<PipelineProgress()> source_;
  const FlightRecorder* recorder_;
  WatchdogOptions options_;

  mutable std::mutex mu_;  // Guards stop_requested_/last_ and the wakeup cv.
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::optional<StallDiagnosis> last_;
  std::atomic<uint64_t> stalls_{0};
  std::thread thread_;
};

}  // namespace pevm::ops

#endif  // SRC_OPS_WATCHDOG_H_
