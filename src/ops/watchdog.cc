#include "src/ops/watchdog.h"

#include <chrono>
#include <cstdio>

#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace pevm::ops {

bool PipelineProgress::WorkInFlight() const {
  if (blocks_submitted > blocks_committed) {
    return true;
  }
  for (const StageProgress& stage : stages) {
    if (!stage.active) {
      continue;
    }
    if (stage.entered > stage.exited || stage.queue_depth > 0) {
      return true;
    }
  }
  return false;
}

std::vector<uint64_t> PipelineProgress::Fingerprint() const {
  std::vector<uint64_t> fp;
  fp.reserve(stages.size() * 2 + 2);
  fp.push_back(blocks_submitted);
  fp.push_back(blocks_committed);
  for (const StageProgress& stage : stages) {
    fp.push_back(stage.entered);
    fp.push_back(stage.exited);
  }
  return fp;
}

std::string StallDiagnosis::Render() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "PIPELINE STALL: stage '%s' made no progress for %llu ms "
                "(submitted=%llu committed=%llu)\n",
                stage.c_str(), static_cast<unsigned long long>(stalled_for_ms),
                static_cast<unsigned long long>(progress.blocks_submitted),
                static_cast<unsigned long long>(progress.blocks_committed));
  out += buf;
  for (const StageProgress& s : progress.stages) {
    if (!s.active) {
      continue;
    }
    std::snprintf(buf, sizeof(buf),
                  "  stage %-6s entered=%llu exited=%llu in_flight=%llu "
                  "queue_depth=%zu high_water=%zu%s\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.entered),
                  static_cast<unsigned long long>(s.exited),
                  static_cast<unsigned long long>(s.entered - s.exited), s.queue_depth,
                  s.queue_high_water, s.name == stage ? "   <-- WEDGED" : "");
    out += buf;
  }
  if (!recent_blocks.empty()) {
    std::snprintf(buf, sizeof(buf), "  last %zu committed blocks:\n", recent_blocks.size());
    out += buf;
    for (const BlockRecord& a : recent_blocks) {
      std::snprintf(buf, sizeof(buf),
                    "    block %-5llu txs=%-4llu exec=%llu us commit=%llu us "
                    "conflicts=%d redo=%d\n",
                    static_cast<unsigned long long>(a.block_index),
                    static_cast<unsigned long long>(a.transactions),
                    static_cast<unsigned long long>(a.exec_busy_ns / 1000),
                    static_cast<unsigned long long>(a.commit_apply_ns / 1000), a.conflicts,
                    a.redo_success);
      out += buf;
    }
  }
  return out;
}

namespace {

// Most-downstream stage holding a block beats any queue symptom: a stage
// that entered more blocks than it exited is where the pipeline physically
// sits. With every stage between blocks, the first stage with un-picked-up
// input is the one refusing to make progress.
std::string DiagnoseStage(const PipelineProgress& progress) {
  for (auto it = progress.stages.rbegin(); it != progress.stages.rend(); ++it) {
    if (it->active && it->entered > it->exited) {
      return it->name;
    }
  }
  for (const StageProgress& stage : progress.stages) {
    if (stage.active && stage.queue_depth > 0) {
      return stage.name;
    }
  }
  // Submitted blocks unaccounted for by any stage: the intake itself.
  return progress.stages.empty() ? std::string("pipeline") : progress.stages.front().name;
}

}  // namespace

StallWatchdog::StallWatchdog(std::function<PipelineProgress()> source,
                             const FlightRecorder* recorder, const WatchdogOptions& options)
    : source_(std::move(source)), recorder_(recorder), options_(options) {
  if (options_.poll_ms == 0) {
    options_.poll_ms = 50;
  }
  if (options_.deadline_ms < options_.poll_ms) {
    options_.deadline_ms = options_.poll_ms;
  }
  thread_ = std::thread(&StallWatchdog::Loop, this);
}

StallWatchdog::~StallWatchdog() { Stop(); }

void StallWatchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_requested_) {
      return;
    }
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

std::optional<StallDiagnosis> StallWatchdog::last_diagnosis() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_;
}

void StallWatchdog::Loop() {
  PEVM_TRACE_THREAD_NAME("ops-watchdog");
  std::vector<uint64_t> last_fingerprint;
  uint64_t frozen_since_ns = telemetry::NowNs();
  bool fired_this_episode = false;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_ms),
                       [this] { return stop_requested_; })) {
        return;
      }
    }
    PipelineProgress progress = source_();
    if (!progress.running) {
      return;  // Pipeline joined; nothing left to watch.
    }
    const uint64_t now = telemetry::NowNs();
    std::vector<uint64_t> fingerprint = progress.Fingerprint();
    if (fingerprint != last_fingerprint) {
      last_fingerprint = std::move(fingerprint);
      frozen_since_ns = now;
      fired_this_episode = false;  // Progress resumed: re-arm.
      continue;
    }
    if (!progress.WorkInFlight()) {
      frozen_since_ns = now;  // Idle is healthy, however long it lasts.
      continue;
    }
    const uint64_t frozen_ms = (now - frozen_since_ns) / 1'000'000;
    if (frozen_ms >= options_.deadline_ms && !fired_this_episode) {
      fired_this_episode = true;
      Fire(progress, frozen_ms);
    }
  }
}

void StallWatchdog::Fire(const PipelineProgress& progress, uint64_t stalled_for_ms) {
  StallDiagnosis diagnosis;
  diagnosis.stage = DiagnoseStage(progress);
  diagnosis.stalled_for_ms = stalled_for_ms;
  diagnosis.progress = progress;
  if (recorder_ != nullptr) {
    std::vector<BlockRecord> blocks = recorder_->Snapshot();
    const size_t tail = blocks.size() > 8 ? blocks.size() - 8 : 0;
    diagnosis.recent_blocks.assign(blocks.begin() + static_cast<ptrdiff_t>(tail),
                                   blocks.end());
  }
  stalls_.fetch_add(1, std::memory_order_relaxed);
  if (options_.log_to_stderr) {
    std::string rendered = diagnosis.Render();
    std::fwrite(rendered.data(), 1, rendered.size(), stderr);
  }
  if (!options_.dump_prefix.empty()) {
    const std::string trace_path = options_.dump_prefix + "_trace.json";
    if (telemetry::WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "watchdog: dumped trace to %s\n", trace_path.c_str());
    }
    const std::string metrics_path = options_.dump_prefix + "_metrics.json";
    telemetry::UpdateTraceGauges();
    if (telemetry::WriteMetricsJson(metrics_path)) {
      std::fprintf(stderr, "watchdog: dumped metrics to %s\n", metrics_path.c_str());
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_ = diagnosis;
  }
  if (options_.on_stall) {
    options_.on_stall(diagnosis);
  }
}

}  // namespace pevm::ops
