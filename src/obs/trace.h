// Low-overhead tracing substrate: fixed-size trace events and the
// lock-free per-worker ring they travel through.
//
// Every instrumentation point in the stack (slot engine, middlebox
// runtime, ports, fault layer, apps) emits 32-byte POD events stamped
// with *virtual* nanoseconds — the simulation's modeled time, not wall
// time. Because modeled time does not depend on which thread ran a cell,
// a serial and a parallel city conductor emit the same event multiset;
// the collector merges the per-thread rings at the slot barrier with a
// total order, so the two runs produce equivalent traces (asserted by
// tests/test_obs.cpp).
//
// The ring mirrors the exec::SpscRing discipline (single producer = the
// owning thread, single consumer = the coordinator at the barrier,
// cache-line-padded Lamport indices) but adds overflow accounting: a
// full ring drops the event and counts it instead of blocking the hot
// path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rb::obs {

inline constexpr std::size_t kCacheLine = 64;

/// Span taxonomy. Categories drive budget attribution and export
/// grouping; fine-grained identity lives in the interned `name` field.
enum class Cat : std::uint8_t {
  Slot,     // one engine slot (dur = numerology slot duration)
  Symbol,   // one OFDM symbol within a slot
  Packet,   // one middlebox handler invocation (dur = modeled cost)
  Parse,    // instant: fronthaul parse outcome (arg = ParseError on reject)
  Action,   // one A1-A4 action inside a handler
  Combine,  // app-declared phase (DAS combine, RU-share mux, ...)
  Tx,       // instant: packet handed to a driver for transmission
  Link,     // one wire traversal (dur = link latency)
  Fault,    // instant: fault-layer perturbation (loss/delay/corrupt/...)
};

const char* cat_name(Cat c);

/// One trace record. 32 bytes, trivially copyable, written lock-free.
struct TraceEvent {
  std::int64_t ts_ns = 0;    // virtual start time
  std::uint64_t arg = 0;     // event-specific payload (bytes, reason, ...)
  std::uint32_t dur_ns = 0;  // span length (0 for instants)
  std::uint16_t name = 0;    // interned name id (obs::FixedName or dynamic)
  std::uint16_t track = 0;   // interned track id (runtime, port, link dir)
  Cat cat = Cat::Slot;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};
static_assert(sizeof(TraceEvent) <= 32, "keep the hot-path record small");

/// Deterministic total order for the barrier merge: virtual time first,
/// then stable structural tie-breaks, so identical event multisets sort
/// to identical sequences regardless of which thread's ring they sat in.
inline bool event_less(const TraceEvent& a, const TraceEvent& b) {
  if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
  if (a.cat != b.cat) return a.cat < b.cat;
  if (a.track != b.track) return a.track < b.track;
  if (a.name != b.name) return a.name < b.name;
  if (a.dur_ns != b.dur_ns) return a.dur_ns < b.dur_ns;
  return a.arg < b.arg;
}

/// Bounded single-producer trace ring. The owning thread pushes; the
/// coordinator drains at the slot barrier. Overflow drops (counted), so
/// a traffic burst can never stall packet processing.
class TraceRing {
 public:
  explicit TraceRing(std::size_t min_capacity = 1 << 15)
      : mask_(round_up_pow2(min_capacity) - 1),
        slots_(round_up_pow2(min_capacity)) {}

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer side. Full ring: drop + count, never block.
  void push(const TraceEvent& e) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    slots_[tail & mask_] = e;
    tail_.store(tail + 1, std::memory_order_release);
  }

  /// Consumer side: pop everything currently visible into `out`.
  void drain(std::vector<TraceEvent>& out) {
    std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    while (head != tail) {
      out.push_back(slots_[head & mask_]);
      ++head;
    }
    head_.store(head, std::memory_order_release);
  }

  /// Events dropped to overflow since construction (producer-written,
  /// read by the collector at the barrier).
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  static constexpr std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p < 2 ? 2 : p;
  }

 private:
  const std::size_t mask_;
  std::vector<TraceEvent> slots_;

  alignas(kCacheLine) std::atomic<std::size_t> head_{0};
  // Producer-owned line: tail index + cached consumer index + drop count.
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};
  std::size_t head_cache_ = 0;
  std::atomic<std::uint64_t> dropped_{0};
  char pad_end_[kCacheLine]{};
};

}  // namespace rb::obs
