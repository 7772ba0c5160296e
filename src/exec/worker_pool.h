// Persistent worker-thread pool with lock-free job hand-off.
//
// One coordinator thread dispatches batches of jobs; each job is pinned
// to a worker (the city pins each cell to one worker, so a cell's
// packets never migrate between threads). Jobs travel coordinator ->
// worker over per-worker SPSC rings; completion is a shared countdown
// that the last finishing job signals. The rings are the only shared
// state on the hot path; the mutex/condvar pairs exist purely to park
// idle threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "exec/spsc_ring.h"

namespace rb::exec {

class WorkerPool {
 public:
  struct Job {
    void (*fn)(void* arg, int worker) = nullptr;
    void* arg = nullptr;
    int worker = 0;  // target worker in [0, size())
  };

  explicit WorkerPool(int n_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int size() const { return int(workers_.size()); }

  /// Execute a batch and block until every job completed. Coordinator
  /// thread only. Jobs with out-of-range `worker` are clamped.
  void run(std::span<const Job> jobs);

 private:
  struct WorkerCtx {
    explicit WorkerCtx(std::size_t ring_cap) : jobs(ring_cap) {}
    SpscRing<Job> jobs;
    std::mutex mu;
    std::condition_variable cv;
    std::thread thread;  // started last
  };

  void worker_main(int w);

  std::atomic<int> pending_{0};
  std::atomic<bool> stop_{false};
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::vector<std::unique_ptr<WorkerCtx>> workers_;
};

}  // namespace rb::exec
