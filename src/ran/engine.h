// SlotEngine: the discrete-time driver of a full deployment.
//
// Per slot:
//   1. traffic hook injects offered load into the DUs,
//   2. DUs schedule and emit C-plane + DL U-plane,
//   3. middleboxes pump (possibly multiple passes for chains),
//   4. RUs absorb DL and report radiated spectrum to the AirModel,
//   5. the AirModel resolves attachment and DL delivery,
//   6. RUs serve cached UL requests (data + PRACH),
//   7. middleboxes pump again,
//   8. DUs consume UL and complete PRACH detections.
//
// One engine runs its phases serially on the calling thread. Parallelism
// lives one level up: the city conductor (src/city) runs many cell
// engines side by side, one worker job per cell per slot.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/timing.h"
#include "ran/air.h"
#include "ran/du.h"
#include "ran/ru.h"

namespace rb {

/// Anything that moves packets between its ports when pumped; the
/// RANBooster middlebox runtime implements this.
class Pumpable {
 public:
  virtual ~Pumpable() = default;
  /// Process pending packets. Returns true if any packet moved. The
  /// engine pumps until quiescent (bounded passes) so chains drain.
  virtual bool pump(std::int64_t slot, std::int64_t slot_start_ns) = 0;
  /// Slot boundary notification (per-slot CPU/latency accounting resets).
  virtual void begin_slot(std::int64_t slot) { (void)slot; }
};

class SlotEngine {
 public:
  explicit SlotEngine(AirModel& air, Scs scs = Scs::kHz30)
      : air_(&air), clock_(scs) {}

  void add_du(DuModel& du) { dus_.push_back(&du); }
  void add_ru(RuModel& ru) { rus_.push_back(&ru); }
  void add_middlebox(Pumpable& mb) { mbs_.push_back(&mb); }

  /// Called at the start of every slot with the slot index - used by the
  /// traffic generators to feed backlog into the DUs.
  void set_traffic_hook(std::function<void(std::int64_t)> hook) {
    traffic_ = std::move(hook);
  }

  /// Register an extra begin-of-slot hook (fault links advance flap
  /// schedules and release reorder holds here). Hooks run after the
  /// traffic hook, before any entity's begin_slot, in registration
  /// order.
  void add_begin_slot_hook(std::function<void(std::int64_t)> hook) {
    begin_hooks_.push_back(std::move(hook));
  }

  // --- conductor (city mode) integration -----------------------------
  /// Pre-slot hooks run at the very top of every slot, before obs spans,
  /// air begin_slot and traffic — i.e. at the exact instant the conductor
  /// hands the shard its slot. The city conductor uses these to drive
  /// guest entities (e.g. a neutral-host DU whose RU lives in another
  /// cell shard) at their virtual offset. Args: (slot, slot_start_ns).
  void add_pre_slot_hook(std::function<void(std::int64_t, std::int64_t)> h) {
    pre_hooks_.push_back(std::move(h));
  }
  /// End-slot hooks run after the slot's work completes, before the clock
  /// advances. The conductor uses these for per-cell slot accounting.
  void add_end_slot_hook(std::function<void(std::int64_t)> h) {
    end_hooks_.push_back(std::move(h));
  }
  /// When an external conductor owns observability (city mode), the
  /// engine must not emit slot spans or commit the process-wide obs
  /// collector itself — the conductor does both once per city slot at
  /// the barrier. Default off (single-engine behaviour unchanged).
  void set_external_obs(bool on) { external_obs_ = on; }

  void run_slots(int n);
  /// Run for a simulated duration.
  void run_ms(double ms);

  std::int64_t current_slot() const { return clock_.total_slots(); }
  std::int64_t elapsed_ns() const { return clock_.elapsed_ns(); }
  const SlotClock& clock() const { return clock_; }

  /// Convenience: run until every UE is attached or `max_slots` elapse.
  /// Returns true if all attached.
  bool run_until_attached(int max_slots = 400);

  /// Checkpoint/restore support: set virtual time to a checkpointed
  /// symbol count. Only meaningful at the slot barrier (between
  /// run_slots calls); mid-slot restore is undefined.
  void restore_clock_symbols(std::int64_t symbols) {
    clock_.set_total_symbols(symbols);
  }

 private:
  void run_one_slot();

  AirModel* air_;
  SlotClock clock_;
  std::vector<DuModel*> dus_;
  std::vector<RuModel*> rus_;
  std::vector<Pumpable*> mbs_;
  std::function<void(std::int64_t)> traffic_;
  std::vector<std::function<void(std::int64_t)>> begin_hooks_;
  std::vector<std::function<void(std::int64_t, std::int64_t)>> pre_hooks_;
  std::vector<std::function<void(std::int64_t)>> end_hooks_;
  bool external_obs_ = false;
};

}  // namespace rb
