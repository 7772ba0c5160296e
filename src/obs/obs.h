// Observability collector: the process-wide sink every instrumentation
// point writes to.
//
// Hot path: one relaxed atomic load (`obs::enabled()`) and, when on, one
// lock-free push into the calling thread's TraceRing. Disabled, every
// instrumentation site reduces to that single predictable branch, so the
// simulation's modeled results and its wall-clock cost are untouched
// (bench_obs_overhead gates the enabled cost at <5%).
//
// Barrier: Collector::commit_slot() runs once per slot — from SlotEngine,
// or in a city from the conductor after every worker has parked. The
// collector drains all rings, sorts the slot's events into a
// deterministic total order, folds them into per-slot budgets and
// mergeable histograms, and appends them to the retained trace
// (bounded; overflow counted). All derived state is therefore a pure
// function of the event multiset and identical under a serial and a
// parallel city conductor.
//
// Name/track registries are interned once per process and survive
// start()/reset() so pre-cached ids (runtimes, ports, fault links, app
// statics) stay valid across runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/budget.h"
#include "obs/histogram.h"
#include "obs/trace.h"

namespace rb::obs {

struct ObsConfig {
  /// Retain raw events for export (budgets/histograms accrue regardless).
  bool tracing = true;
  /// Per-thread ring capacity (events); applies to rings created after
  /// start(). A ring must hold one slot's worth of one thread's events.
  std::size_t ring_capacity = 1 << 15;
  /// Cap on retained merged events; past it, events are dropped+counted.
  std::size_t max_trace_events = 1 << 20;
  /// Slot deadline override in ns; 0 derives it from the engine's SCS.
  std::int64_t deadline_ns = 0;
};

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// Fast global gate read by every instrumentation site.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Pre-interned name ids, fixed by registration order in the collector
/// constructor so hot paths use compile-time constants.
enum FixedName : std::uint16_t {
  kNSlot = 0,
  kNSymbol,
  kNPacketC,      // C-plane handler invocation
  kNPacketU,      // U-plane handler invocation
  kNPacketOther,  // non-fronthaul handler invocation
  kNParseOk,
  kNParseReject,  // arg = ParseError index
  kNTx,
  kNLink,
  kNA1Forward,
  kNA1Drop,
  kNA2Replicate,
  kNA3Cache,
  kNA4Merge,
  kNA4Copy,
  kNA4Rewrite,
  kNCharge,
  kNFaultLoss,     // i.i.d. loss
  kNFaultBurst,    // Gilbert-Elliott loss
  kNFaultFlap,     // scheduled link-down loss
  kNFaultDelay,    // arg = injected extra ns
  kNFaultCorrupt,  // arg = flipped bits
  kNFaultDup,
  kNFaultReorder,
  kNFixedNameCount
};

/// Track 0 is always the slot engine.
inline constexpr std::uint16_t kTrackEngine = 0;

enum class HistKind : std::uint8_t {
  MbProc,      // per-middlebox handler latency (Packet span durations)
  LinkDelay,   // per-link one-way wire delay (Link span durations)
  Ipg,         // per-link inter-packet arrival gap
  FaultDelay,  // fault-injected extra delay
};

const char* hist_kind_name(HistKind k);

class Collector {
 public:
  static Collector& instance();

  /// Enable collection with a fresh dataset (registries survive).
  void start(const ObsConfig& cfg = {});
  /// Disable collection; accrued data stays readable/exportable.
  void stop();
  /// stop() + discard all accrued data (registries survive).
  void reset();

  const ObsConfig& config() const { return cfg_; }

  /// Intern a span name / track label (idempotent, cold path).
  std::uint16_t intern_name(const std::string& n);
  std::uint16_t intern_track(const std::string& n);
  std::string name_str(std::uint16_t id) const;
  std::string track_str(std::uint16_t id) const;

  /// Hot path: append to the calling thread's ring (registered lazily).
  void emit(const TraceEvent& e);

  /// Slot barrier (coordinator only, workers parked): drain rings, sort,
  /// fold into budgets/histograms, retain the trace.
  void commit_slot(std::int64_t slot, std::int64_t t0,
                   std::int64_t slot_duration_ns);

  // --- post-run accessors (coordinator / tests / exporters) ------------
  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<SlotBudget>& budgets() const { return budgets_; }
  /// Histograms keyed by (kind, track); nullptr when never recorded.
  const LatencyHistogram* hist(HistKind k, std::uint16_t track) const;
  const std::map<std::uint32_t, LatencyHistogram>& hists() const {
    return hists_;
  }
  static HistKind hist_key_kind(std::uint32_t key) {
    return HistKind(key >> 16);
  }
  static std::uint16_t hist_key_track(std::uint32_t key) {
    return std::uint16_t(key & 0xffff);
  }

  std::uint64_t slots_committed() const { return slots_; }
  std::uint64_t deadline_misses() const { return misses_; }
  /// Events lost to ring overflow plus retained-trace cap overflow.
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t total_events() const { return total_events_; }

 private:
  Collector();

  TraceRing& thread_ring();
  LatencyHistogram& hist_slot(HistKind k, std::uint16_t track);

  ObsConfig cfg_{};

  mutable std::mutex reg_mu_;  // name/track/ring registries
  std::unordered_map<std::string, std::uint16_t> name_idx_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint16_t> track_idx_;
  std::vector<std::string> tracks_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::uint64_t ring_dropped_seen_ = 0;

  // Derived state: coordinator-only at the barrier.
  std::vector<TraceEvent> scratch_;
  std::vector<TraceEvent> events_;
  std::vector<SlotBudget> budgets_;
  std::map<std::uint32_t, LatencyHistogram> hists_;
  std::unordered_map<std::uint16_t, std::int64_t> last_arrival_;
  std::uint64_t slots_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t total_events_ = 0;
};

/// Emit helper: the one-liner used by instrumentation sites. Call only
/// after checking obs::enabled() (it re-checks for safety).
inline void emit(Cat cat, std::uint16_t name, std::uint16_t track,
                 std::int64_t ts_ns, std::uint32_t dur_ns,
                 std::uint64_t arg = 0) {
  if (!enabled()) return;
  TraceEvent e;
  e.ts_ns = ts_ns;
  e.arg = arg;
  e.dur_ns = dur_ns;
  e.name = name;
  e.track = track;
  e.cat = cat;
  Collector::instance().emit(e);
}

/// Engine helper: emit the slot span and its 14 symbol sub-spans.
void slot_spans(std::int64_t slot, std::int64_t t0,
                std::int64_t slot_duration_ns);

}  // namespace rb::obs
