#include "exec/worker_pool.h"

#include "common/thread_flags.h"

namespace rb::exec {
namespace {

constexpr int kSpinPolls = 4096;  // poll budget before parking

}  // namespace

WorkerPool::WorkerPool(int n_workers) {
  const int n = n_workers < 1 ? 1 : n_workers;
  workers_.reserve(std::size_t(n));
  for (int i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<WorkerCtx>(/*ring_cap=*/1024));
  for (int i = 0; i < n; ++i)
    workers_[std::size_t(i)]->thread =
        std::thread([this, i] { worker_main(i); });
}

WorkerPool::~WorkerPool() {
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->mu);
    w->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void WorkerPool::run(std::span<const Job> jobs) {
  if (jobs.empty()) return;
  // Inline execution keeps single-worker pools (and tiny batches on a
  // degenerate pool) cheap and exactly ordered.
  if (size() == 1) {
    for (const auto& j : jobs) j.fn(j.arg, 0);
    return;
  }

  pending_.store(int(jobs.size()), std::memory_order_release);
  for (const auto& j : jobs) {
    const std::size_t w =
        std::size_t(j.worker < 0 || j.worker >= size() ? 0 : j.worker);
    auto& ctx = *workers_[w];
    // Spin until the lane accepts; the worker drains concurrently so the
    // wait is bounded.
    while (!ctx.jobs.try_push(j)) std::this_thread::yield();
    {
      std::lock_guard<std::mutex> lk(ctx.mu);
      ctx.cv.notify_one();
    }
  }

  std::unique_lock<std::mutex> lk(done_mu_);
  done_cv_.wait(lk, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void WorkerPool::worker_main(int w) {
  rb::mark_exec_worker_thread();
  auto& ctx = *workers_[std::size_t(w)];
  while (true) {
    Job j;
    bool got = false;
    for (int i = 0; i < kSpinPolls; ++i) {
      if (ctx.jobs.try_pop(j)) {
        got = true;
        break;
      }
      if (stop_.load(std::memory_order_acquire)) return;
      if ((i & 63) == 63) std::this_thread::yield();
    }
    if (!got) {
      std::unique_lock<std::mutex> lk(ctx.mu);
      ctx.cv.wait(lk, [&] {
        return !ctx.jobs.empty_approx() ||
               stop_.load(std::memory_order_acquire);
      });
      if (stop_.load(std::memory_order_acquire) && ctx.jobs.empty_approx())
        return;
      continue;
    }

    j.fn(j.arg, w);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(done_mu_);
      done_cv_.notify_one();
    }
  }
}

}  // namespace rb::exec
