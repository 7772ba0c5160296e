// Records which threads ran a city's cell jobs, so a determinism test can
// prove its parallel run really ran on more than one thread.
#pragma once

#include <cstddef>
#include <mutex>
#include <set>
#include <thread>

#include "city/city.h"

namespace rb {

/// Adds an end-slot hook to every cell engine of `c` that records the
/// calling thread. Must outlive every slot `c` runs after construction.
class JobThreads {
 public:
  explicit JobThreads(city::City& c) {
    for (std::size_t i = 0; i < c.num_cells(); ++i)
      c.cell(i).dep->engine.add_end_slot_hook([this](std::int64_t) {
        std::lock_guard<std::mutex> lk(mu_);
        ids_.insert(std::this_thread::get_id());
      });
  }
  JobThreads(const JobThreads&) = delete;
  JobThreads& operator=(const JobThreads&) = delete;

  std::size_t distinct() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ids_.size();
  }

 private:
  mutable std::mutex mu_;
  std::set<std::thread::id> ids_;
};

}  // namespace rb
