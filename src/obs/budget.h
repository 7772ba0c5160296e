// Slot-budget accounting: where one slot's modeled time went, measured
// against the numerology-derived deadline (500 us at 30 kHz SCS).
//
// Built by the collector at the slot barrier from that slot's merged
// trace events, so the totals are a pure function of the event multiset:
// serial and parallel city conductors produce identical budget vectors
// (tests/test_obs.cpp SerialAndParallelProduceIdenticalTracesAndBudgets).
#pragma once

#include <cstdint>

namespace rb::obs {

struct SlotBudget {
  std::int64_t slot = 0;
  std::int64_t t0_ns = 0;        // virtual slot start
  std::int64_t deadline_ns = 0;  // numerology slot duration (or override)

  // Modeled-time attribution (ns), from span durations.
  std::uint64_t busy_ns = 0;     // total middlebox handler time (Packet)
  std::uint64_t a1_ns = 0;       // forward/drop
  std::uint64_t a2_ns = 0;       // replicate
  std::uint64_t a3_ns = 0;       // cache ops
  std::uint64_t a4_ns = 0;       // payload merge/copy/rewrite
  std::uint64_t charge_ns = 0;   // explicit app charges
  std::uint64_t combine_ns = 0;  // app-declared phases (DAS combine, mux)
  std::uint64_t link_ns = 0;     // wire time crossed this slot

  /// Latest packet completion relative to slot start; the deadline
  /// check the paper's critical-path claim hinges on.
  std::int64_t max_completion_ns = 0;
  bool deadline_miss = false;

  std::uint32_t events = 0;      // merged events this slot
  // Range of this slot's events in the collector's retained trace
  // (ev_begin == ev_end when tracing is off or the cap was hit).
  std::uint64_t ev_begin = 0;
  std::uint64_t ev_end = 0;

  /// Fraction of the slot deadline consumed by middlebox processing.
  double budget_pct() const {
    return deadline_ns > 0 ? 100.0 * double(busy_ns) / double(deadline_ns)
                           : 0.0;
  }

  friend bool operator==(const SlotBudget&, const SlotBudget&) = default;
};

}  // namespace rb::obs
