// A minimal fork-join worker pool for the genuinely parallel read phase and
// the simulated store's warm-up batches (src/state/sim_store.h). ParallelFor
// hands out indices through an atomic counter so stragglers never idle the
// pool, and the calling thread participates in every job, so a 1-thread pool
// degenerates to a plain serial loop.
//
// Determinism contract: the pool only changes *which OS thread* computes an
// index, never the result — callers must keep each index's work independent
// (read shared state, write only slot i of a pre-sized output). Everything
// order-dependent (cache accounting, report counters) belongs in a block-order
// pass after ParallelFor returns; see src/exec/pipeline.cc.
#ifndef SRC_EXEC_THREAD_POOL_H_
#define SRC_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pevm {

class ThreadPool {
 public:
  // Spawns `threads - 1` workers (the caller is the remaining one).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs fn(i) for every i in [0, n) across the pool and blocks until all
  // indices finished. Any thread may call it: a per-pool job mutex runs one
  // job at a time, and concurrent callers queue behind it. Condition: fn must
  // not call ParallelFor on this same pool (the inner call would wait for the
  // job that is running it).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Caller thread + workers.
  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Maps an ExecOptions::os_threads request to a pool width:
  // positive values pass through, 0 means one thread per hardware thread
  // (capped at 16 — beyond the paper's 8c/16t testbed the read phase is
  // memory-bound anyway).
  static int ResolveWidth(int requested);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex job_mu_;  // Held by ParallelFor for the whole job.
  std::mutex mu_;
  std::condition_variable work_cv_;  // Workers wait here for a new job.
  std::condition_variable done_cv_;  // ParallelFor waits here for completion.
  const std::function<void(size_t)>* fn_ = nullptr;
  size_t n_ = 0;
  std::atomic<size_t> next_{0};  // Next unclaimed index of the current job.
  int running_ = 0;              // Workers still inside the current job.
  uint64_t epoch_ = 0;           // Bumped once per job.
  bool stop_ = false;
};

}  // namespace pevm

#endif  // SRC_EXEC_THREAD_POOL_H_
