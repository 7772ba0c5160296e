// The benchmark's workloads, built through the public Deployment and
// city::build_city APIs, and the per-layer trace taken around calls into
// each layer's public entry points.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "stats.h"

namespace rbperf {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Time the calling thread has been running on a CPU. Time the kernel or
/// the hypervisor gave its CPU to something else does not count.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

enum class Workload { Das5Loaded, RuShare2Loaded, City16Nh };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// Host time per layer, accumulated over traced slots (nanoseconds).
struct Trace {
  std::uint64_t slots = 0;
  double wall_ns = 0;   // whole slot, as the slot loop sees it
  double timed_ns = 0;  // covered by a timed call (union for the city)
  // Single-cell rigs: each phase of SlotEngine's serial slot.
  double air_ns = 0;      // AirModel::begin_slot + resolve_dl
  double traffic_ns = 0;  // TrafficGen::on_slot
  double mb_begin_ns = 0; // MiddleboxRuntime::begin_slot
  double du_begin_ns = 0; // DuModel::begin_slot
  double du_rx_ns = 0;    // DuModel::process_rx
  double pump_dl_ns = 0;  // MiddleboxRuntime::pump, DL phase
  double pump_ul_ns = 0;  // MiddleboxRuntime::pump, UL phase
  double ru_dl_ns = 0;    // RuModel::process_dl
  double ru_ul_ns = 0;    // RuModel::emit_ul
  std::uint64_t pump_calls = 0;
  std::uint64_t pump_useful = 0;  // pump() calls that moved a packet
  // City: per-cell engine jobs from the pre-slot/end-slot hooks.
  double cell_job_ns = 0;
  std::uint64_t cell_jobs = 0;
  double busy_max_ns = 0;   // per slot, the busiest worker's job time
  double imbalance = 0;     // per slot, busiest / mean worker job time
  double dispatch_ns = 0;   // slot start -> last worker's first job
  double barrier_ns = 0;    // last job end -> slot end
};

/// Counters the program keeps, summed over every DU, RU, middlebox
/// runtime and xlink of a rig. Subtract two snapshots for a window.
struct Counters {
  FrameCounts all;   // error_share numerator and denominator
  FrameCounts ru;    // received by RUs
  std::uint64_t ru_tx = 0;   // UL U-plane + PRACH sent by RUs
  FrameCounts core;  // received by middlebox runtimes
  std::uint64_t cache_ops = 0;
  std::uint64_t cache_stale = 0;
  std::uint64_t du_tx = 0;   // C-plane + DL U-plane sent by DUs
  std::uint64_t xlink_frames = 0;

  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
};

/// Packet pools of a rig: the runtimes' own plus the process-wide default
/// pool the DUs and RUs draw from.
struct Pools {
  std::uint64_t in_use = 0;
  double arena_mib = 0;
  std::uint64_t alloc_failures = 0;
};

/// Modelled outcome of a window of slots, in simulated time. Repeats
/// exactly for the same seed and window, whatever the host's speed.
struct SimResult {
  double dl_mbps = 0;
  double ul_mbps = 0;
  FrameCounts frames;

  bool operator==(const SimResult&) const;
};

/// One built topology of a workload with its UEs placed from the seed.
class Rig {
 public:
  Rig() = default;
  Rig(const Rig&) = delete;  // the city's engine hooks capture `this`
  Rig& operator=(const Rig&) = delete;
  virtual ~Rig() = default;

  /// Run slots until every UE is attached (at most `max_slots`).
  bool attach(int max_slots, bool traced);
  /// One slot through the program's own conductor.
  virtual void run_slot() = 0;
  /// One slot with the calls into each layer timed into `t`.
  virtual void run_slot_traced(Trace& t) = 0;
  virtual bool all_attached() const = 0;

  /// Start a simulated-throughput window (resets the air counters).
  virtual void begin_sim() = 0;
  /// Outcome since begin_sim().
  virtual SimResult end_sim() const = 0;

  virtual Counters counters() const = 0;
  virtual Pools pools() const = 0;
  /// Byte-exact state digest: equal strings mean equal simulations.
  virtual std::string fingerprint() const = 0;

 protected:
  FrameCounts sim_start_;
  std::int64_t sim_start_slot_ = 0;
};

/// Build the workload's topology and move each UE to a spot around its
/// RU drawn from `seed`. `city_workers` sets the city
/// conductor's worker threads (0 = serial reference).
std::unique_ptr<Rig> make_rig(Workload w, std::uint64_t seed,
                              int city_workers = 4);

}  // namespace rbperf
