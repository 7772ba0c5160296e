// Deterministic fault injection for simulated Ethernet links.
//
// A FaultPlan describes what one direction of a link does to traffic:
// i.i.d. loss, bursty (Gilbert-Elliott) loss, fixed delay plus uniform
// jitter, reordering, duplication, payload bit corruption and scheduled
// link flaps. A FaultyLink attaches one plan per direction to an already
// connected Port pair and perturbs every transmitted packet.
//
// Determinism: each direction owns a splitmix64 PRNG seeded from the
// plan seed, and draws exactly one stream of numbers in packet-send
// order. Every link lives inside one cell, whose engine runs serially,
// so per-link send order is fixed and two runs with the same seed
// replay bit-identically, under a serial or a parallel city conductor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/port.h"

namespace rb {

/// Faults applied to one direction of a link.
struct FaultPlan {
  // Independent per-packet loss probability (applied in the good state).
  double loss = 0.0;

  // Gilbert-Elliott burst loss: per-packet probability of entering the
  // bad state, of leaving it, and of loss while in it. Disabled unless
  // ge_enter_bad > 0.
  double ge_enter_bad = 0.0;
  double ge_exit_bad = 0.2;
  double ge_loss_bad = 0.5;

  // Added one-way latency: delay_ns plus uniform jitter in [0, jitter_ns).
  std::int64_t delay_ns = 0;
  std::int64_t jitter_ns = 0;

  // Per-packet probability of duplicating the packet on the wire.
  double duplicate = 0.0;

  // Per-packet probability of holding the packet back so the next packet
  // (or the next slot boundary) overtakes it.
  double reorder = 0.0;

  // Per-packet probability of flipping `corrupt_bits` random payload bits
  // (anywhere past the Ethernet MAC addresses, so corruption can hit the
  // ethertype, eCPRI header, section fields or IQ samples).
  double corrupt = 0.0;
  int corrupt_bits = 1;

  /// Scheduled link flap: direction is down for slots in [down_slot, up_slot).
  struct Flap {
    std::int64_t down_slot = 0;
    std::int64_t up_slot = 0;
  };
  std::vector<Flap> flaps;

  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  /// True if any fault can ever fire (an all-zero plan is attachable but
  /// idle: the hook still runs, nothing is drawn or perturbed).
  bool active() const {
    return loss > 0 || ge_enter_bad > 0 || delay_ns > 0 || jitter_ns > 0 ||
           duplicate > 0 || reorder > 0 || corrupt > 0 || !flaps.empty();
  }
};

/// Cumulative per-direction fault counters.
struct FaultStats {
  std::uint64_t iid_loss = 0;
  std::uint64_t burst_loss = 0;
  std::uint64_t flap_loss = 0;
  std::uint64_t delayed = 0;
  /// Sum of injected extra delay (ns) over all delayed packets: the
  /// adaptation controller's jitter/latency quality tap (mean injected
  /// one-way delay = delay_ns_total / delayed).
  std::uint64_t delay_ns_total = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t held_released = 0;  // reorder holds released at slot start
  std::uint64_t passed = 0;         // delivered unmodified

  std::uint64_t dropped() const { return iid_loss + burst_loss + flap_loss; }
};

/// splitmix64: tiny, seedable, statistically fine for fault schedules.
class FaultRng {
 public:
  explicit FaultRng(std::uint64_t seed) : s_(seed ? seed : 1) {}

  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform double in [0, 1).
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }

  /// Raw generator state, for checkpoint/restore. set_state() with a
  /// value from state() resumes the stream exactly where it left off.
  std::uint64_t state() const { return s_; }
  void set_state(std::uint64_t s) { s_ = s ? s : 1; }

 private:
  std::uint64_t s_;
};

/// Fault injector for both directions of a connected Port pair. Installs
/// itself as the ports' fault hook on construction and detaches on
/// destruction. Call begin_slot() at every slot boundary (Deployment::
/// add_fault registers this with the SlotEngine) to advance flap state
/// and release reorder-held packets.
class FaultyLink {
 public:
  FaultyLink(std::string name, Port& a, Port& b, FaultPlan a_to_b,
             FaultPlan b_to_a = {});
  ~FaultyLink();

  FaultyLink(const FaultyLink&) = delete;
  FaultyLink& operator=(const FaultyLink&) = delete;

  /// Advance scheduled flaps and flush reorder holds from the previous
  /// slot (released packets keep their original timestamps, so consumers
  /// see them as severely late).
  void begin_slot(std::int64_t slot);

  const std::string& name() const { return name_; }
  const FaultStats& stats_ab() const { return ab_.stats; }
  const FaultStats& stats_ba() const { return ba_.stats; }

  /// Replace a direction's plan mid-run (phased degradation scenarios).
  /// The PRNG stream and cumulative stats carry over, so a run with the
  /// same seed and the same mutation schedule replays bit-identically.
  void set_plan_ab(const FaultPlan& p) { ab_.plan = p; }
  void set_plan_ba(const FaultPlan& p) { ba_.plan = p; }
  const FaultPlan& plan_ab() const { return ab_.plan; }
  const FaultPlan& plan_ba() const { return ba_.plan; }

  /// Render both directions' counters as "<name>.<dir>.<field>=v" lines,
  /// in a fixed order (chaos tests compare these byte-for-byte).
  std::string dump() const;

  /// Checkpoint both directions' mutable state: PRNG stream position,
  /// cumulative stats, Gilbert-Elliott / flap state and any reorder-held
  /// packet. Plans are config (rebuilt by the deployment builder), not
  /// state. Writes into the caller's open section.
  void save_state(state::StateWriter& w) const;
  void load_state(state::StateReader& r);

 private:
  struct Dir final : FaultHook {
    void on_tx(PacketPtr p, std::vector<PacketPtr>& out) override;
    void release_held(std::vector<PacketPtr>& out);

    FaultPlan plan;
    FaultRng rng{1};
    FaultStats stats;
    Port* src = nullptr;  // the port whose TX this direction perturbs
    std::uint16_t obs_track = 0;  // obs track for fault annotations
    bool ge_bad = false;
    bool down = false;
    PacketPtr held;
  };

  static void dump_dir(const Dir& d, const std::string& prefix,
                       std::string& out);

  std::string name_;
  Dir ab_;
  Dir ba_;
};

}  // namespace rb
