#include "src/exec/thread_pool.h"

#include <algorithm>

#include "src/telemetry/trace.h"

namespace pevm {

ThreadPool::ThreadPool(int threads) {
  int workers = std::max(threads, 1) - 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (workers_.empty()) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  std::lock_guard<std::mutex> job(job_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    running_ = static_cast<int>(workers_.size());
    ++epoch_;
  }
  work_cv_.notify_all();
  size_t i;
  while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < n) {
    fn(i);
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return running_ == 0; });
  fn_ = nullptr;
}

void ThreadPool::WorkerLoop() {
  PEVM_TRACE_THREAD_NAME("pool-worker");
  uint64_t seen = 0;
  for (;;) {
    const std::function<void(size_t)>* fn;
    size_t n;
    {
      // Queue-wait vs run split: the idle span covers the cv wait for the
      // next job, the run span covers this worker's share of the claim loop.
      PEVM_TRACE_SPAN("pool.idle");
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) {
        return;
      }
      seen = epoch_;
      fn = fn_;
      n = n_;
    }
    PEVM_TRACE_SPAN_ARG("pool.run", "n", n);
    size_t i;
    while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < n) {
      (*fn)(i);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--running_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

int ThreadPool::ResolveWidth(int requested) {
  if (requested > 0) {
    return requested;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 16u));
}

}  // namespace pevm
