// City-scale multi-cell topology: sharded slot engines under a
// virtual-time conductor (DESIGN.md section 4j).
//
// Each cell is a full Deployment slice (DU, RUs, middleboxes, fault
// links, controller) advancing slot-synchronously inside its own shard.
// The conductor owns the global slot barrier: it dispatches one job per
// cell onto an exec::WorkerPool (each cell's engine runs serially inside
// the job; the conductor is the only parallel engine), then — with
// every worker parked — performs all inter-cell work itself in fixed
// creation order:
//
//   1. drain the lock-free SPSC xlink rings (packets captured leaving a
//      shard during the slot are injected into their target shard's port
//      queue, to be processed next slot),
//   2. reconcile neutral-host shares (a guest DU homed in one shard whose
//      slice of a shared RU radiates in another shard's air model),
//   3. commit the process-wide observability collector once.
//
// Because shard jobs touch disjoint state and every cross-shard effect
// happens on the conductor in a fixed order, a serial conductor run and a
// parallel(N) run are bit-identical — the chaos-soak determinism
// guarantee extended city-wide (tests/test_city.cpp).
//
// The one-slot shift that makes packet crossings clean: a guest DU is not
// engine-driven; a pre-slot hook on its home shard steps it at virtual
// slot V = T+1 while the city runs slot T. Its frames for V cross the
// ring at barrier T and are pumped by the host shard during slot T+1 = V
// — exactly on time, with SSB/PRACH periodicity unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mgmt.h"
#include "exec/spsc_ring.h"
#include "exec/worker_pool.h"
#include "net/port.h"
#include "sim/campus.h"
#include "sim/deployment.h"
#include "sim/hitless.h"

namespace rb::city {

/// One bidirectional cross-shard conduit. The two endpoint ports are
/// owned here (outside any deployment: they never queue and hold no
/// state); each captures frames leaving its shard into a lock-free SPSC
/// ring that only the conductor drains, at the barrier, into the far
/// endpoint's peer. Split latency: 500 ns per hop, so a crossing costs
/// the same 1 us as a local fronthaul link.
struct XLink {
  std::string name;
  Port a;  // endpoint living in the guest shard
  Port b;  // endpoint living in the host shard
  exec::SpscRing<PacketPtr> ab;
  exec::SpscRing<PacketPtr> ba;
  std::uint64_t forwarded_ab = 0;  // conductor-owned
  std::uint64_t forwarded_ba = 0;
  std::uint64_t dropped_ab = 0;  // ring full (shard-owned; read at barrier)
  std::uint64_t dropped_ba = 0;

  explicit XLink(std::string n)
      : name(std::move(n)), a(name + ".a"), b(name + ".b"), ab(4096),
        ba(4096) {
    a.set_rx_handler([this](PacketPtr p) {
      if (!ab.try_push(std::move(p))) ++dropped_ab;
    });
    b.set_rx_handler([this](PacketPtr p) {
      if (!ba.try_push(std::move(p))) ++dropped_ba;
    });
  }
};

/// One neutral-host RU share spanning two shards. The guest DU lives in
/// `guest_cell` and schedules against its home air model (where a
/// phantom copy of the shared RU site gives it channel state); the RU it
/// rents a slice of radiates in `host_cell`'s air model, where the guest
/// UE exists for real (`real_ue`, attaching through the actual SSB/PRACH
/// datapath). The conductor bridges the two views at every barrier.
struct NeutralHostShare {
  std::string name;
  int guest_cell = -1;
  int host_cell = -1;
  DuModel* guest_du = nullptr;
  CellId guest_cell_air = -1;   // guest DU's cell in the guest air
  CellId mirror_cell_air = -1;  // same cell registered in the host air
  UeId mirror_ue = -1;          // in the guest air (UL-authoritative)
  UeId real_ue = -1;            // in the host air (DL/attach-authoritative)
  std::uint64_t prach_seen = 0;  // guest DU detections already bridged
};

/// The conductor. Owns every cell shard, the worker pool, the xlinks and
/// the share bridges. `workers <= 0` runs the same per-cell job bodies
/// inline in cell order (the serial reference used by determinism tests).
class City final : public CityMgmtHandler {
 public:
  struct CellShard {
    std::string name;
    std::unique_ptr<Deployment> dep;
    std::unique_ptr<MgmtEndpoint> mgmt;  // over the first runtime, if any
    std::vector<UeId> ues;               // home UEs (builder bookkeeping)
    // Wall-clock job accounting (mgmt "city budget" only; never part of
    // determinism fingerprints or checkpoints).
    std::int64_t last_job_ns = 0;
    std::int64_t max_job_ns = 0;
    std::uint64_t slots_run = 0;
  };

  explicit City(int workers = 0, Scs scs = Scs::kHz30,
                ChannelParams channel = {});
  ~City() override;

  City(const City&) = delete;
  City& operator=(const City&) = delete;

  // --- assembly (CityBuilder calls these) -----------------------------
  CellShard& add_cell(std::string name);
  XLink& add_xlink(std::string name);
  NeutralHostShare& add_share(NeutralHostShare s);
  /// Register a conductor-driven guest DU homed in `cell_idx`: a
  /// pre-slot hook steps it at virtual slot T+1 while the city runs T.
  void add_guest_du(int cell_idx, DuModel& du);
  /// Freeze the topology: per-cell obs ownership, slot accounting, mgmt
  /// endpoints and the static job table. Call once, before running.
  void finalize();

  // --- running & measuring --------------------------------------------
  void run_slots(int n);
  /// Warm up until every UE in every shard attaches (neutral-host mirror
  /// UEs attach via the bridge once their real twin attaches).
  bool attach_all(int max_slots = 800);
  /// Reset every shard's throughput counters, run `slots`, remember the
  /// window for dl_mbps()/ul_mbps().
  void measure(int slots);
  double dl_mbps(int cell_idx, UeId ue) const;
  double ul_mbps(int cell_idx, UeId ue) const;

  std::int64_t current_slot() const { return slot_; }
  Scs scs() const { return scs_; }
  bool parallel() const { return pool_ != nullptr; }
  std::size_t num_cells() const { return cells_.size(); }
  CellShard& cell(std::size_t i) { return *cells_[i]; }
  const CellShard& cell(std::size_t i) const { return *cells_[i]; }
  std::size_t num_xlinks() const { return xlinks_.size(); }
  XLink& xlink(std::size_t i) { return *xlinks_[i]; }
  std::size_t num_shares() const { return shares_.size(); }
  NeutralHostShare& share(std::size_t i) { return *shares_[i]; }

  /// Byte-exact fingerprint of the whole city: every runtime counter,
  /// fault link, controller, DU stat and UE air-interface result in every
  /// shard, plus xlink/bridge totals. Serial and parallel(N) runs of the
  /// same build must produce identical strings.
  std::string fingerprint() const;

  /// Whole-city checkpoint: a city meta section (slot, bridge baselines)
  /// plus one nested per-cell section wrapping rb::checkpoint() of that
  /// shard. Call at the city barrier (between run_slots calls).
  std::vector<std::uint8_t> checkpoint() const;
  /// Restore onto an identically built city (same builder calls).
  RestoreResult restore(const std::vector<std::uint8_t>& blob);

  // CityMgmtHandler: "list" | "budget" | "rings" | "cell <name> <verb>".
  std::string city_mgmt(const std::string& cmd) override;

 private:
  struct CellJob {
    City* c = nullptr;
    int idx = 0;
  };

  static void job_trampoline(void* arg, int worker);
  void run_cell(int idx);
  void run_one_slot();
  void barrier(std::int64_t t0, std::int64_t dur);
  void bridge(NeutralHostShare& s);

  Scs scs_;
  ChannelParams channel_;
  std::int64_t slot_ = 0;
  std::int64_t measure_window_ns_ = 0;
  bool finalized_ = false;
  std::vector<std::unique_ptr<CellShard>> cells_;
  std::vector<std::unique_ptr<XLink>> xlinks_;
  std::vector<std::unique_ptr<NeutralHostShare>> shares_;
  std::unique_ptr<exec::WorkerPool> pool_;
  std::vector<CellJob> jobctx_;
  std::vector<exec::WorkerPool::Job> jobs_;
};

// --- CityBuilder ------------------------------------------------------

/// Template stamped onto every building of the campus by build_city().
struct CityConfig {
  int n_cells = 2;
  int ues_per_cell = 1;
  double dl_mbps = 200.0;
  double ul_mbps = 20.0;
  /// Put a transparent PRB monitor between each cell's DU and RU (the
  /// per-cell middlebox of the template). Off = direct wire.
  bool prbmon = true;
  /// Seeded per-cell fault cocktail on the DU-side fronthaul link.
  bool faults = false;
  /// Per-cell closed-loop adaptation controller watching the fault link
  /// (requires `faults`; supervises through the cell's middlebox).
  bool controller = false;
  /// Cells 0 (host) and 1 (guest) share one 100 MHz RU: the guest DU
  /// lives in shard 1 but rents PRBs 150..255 of shard 0's RU through a
  /// conductor xlink + RU-share middlebox. Requires n_cells >= 2.
  bool neutral_host = false;
  int workers = 0;  // conductor worker threads; 0 = serial reference
  std::uint64_t fault_seed = 0x5eed;
  Scs scs = Scs::kHz30;
  Campus campus{};
};

/// Stamp `cfg.n_cells` per-building cell shards from the template over
/// the campus grid and wire any neutral-host share. The returned city is
/// finalized and ready to run.
std::unique_ptr<City> build_city(const CityConfig& cfg);

}  // namespace rb::city
