// Persistent worker-thread pool with lock-free job hand-off.
//
// One coordinator thread dispatches batches of jobs; each job is pinned
// to a worker (the city pins each cell to one worker, so a cell's
// packets never migrate between threads). Jobs
// travel coordinator -> worker over per-worker SPSC rings; completion
// records travel back over an MPSC drain (per-worker SPSC lanes). The
// rings are the only shared state on the hot path; the mutex/condvar
// pairs exist purely to park idle threads.
//
// Telemetry is sharded: each worker owns a cache-line-padded WorkerStats
// it alone writes; the coordinator merges shards at the barrier (end of
// run()), so there is no contended counter cache line - the same reason
// the paper's DPDK pipeline keeps per-lcore stats.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "exec/mpsc_drain.h"
#include "exec/spsc_ring.h"

namespace rb::exec {

/// Per-worker telemetry shard. Padded so two workers never write the same
/// cache line.
struct alignas(kCacheLine) WorkerStats {
  std::uint64_t jobs = 0;          // jobs executed
  std::uint64_t busy_ns = 0;       // wall time inside jobs
  std::uint64_t dispatches = 0;    // batches this worker took part in
  std::uint64_t park_waits = 0;    // times the thread went to sleep
  std::uint64_t ring_full_spins = 0;  // completion-lane backpressure events

  WorkerStats& operator+=(const WorkerStats& o) {
    jobs += o.jobs;
    busy_ns += o.busy_ns;
    dispatches += o.dispatches;
    park_waits += o.park_waits;
    ring_full_spins += o.ring_full_spins;
    return *this;
  }
};

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

  /// Telemetry shard of one worker. Stable (no concurrent writers) while
  /// no run() is in flight.
  const WorkerStats& stats(int w) const { return workers_[std::size_t(w)]->stats; }
  WorkerStats merged_stats() const;
  void reset_stats();

  /// Wall time the coordinator spent blocked in run() so far (ns).
  std::uint64_t coordinator_wait_ns() const { return coordinator_wait_ns_; }

 private:
  struct Completion {
    std::int32_t worker = 0;
    std::int64_t busy_ns = 0;
  };
  struct WorkerCtx {
    explicit WorkerCtx(std::size_t ring_cap) : jobs(ring_cap) {}
    SpscRing<Job> jobs;
    std::mutex mu;
    std::condition_variable cv;
    WorkerStats stats{};
    std::thread thread;  // started last
  };

  void worker_main(int w);

  MpscDrain<Completion> done_;
  std::atomic<int> pending_{0};
  std::atomic<bool> stop_{false};
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::uint64_t coordinator_wait_ns_ = 0;
  std::vector<std::unique_ptr<WorkerCtx>> workers_;
};

}  // namespace rb::exec
