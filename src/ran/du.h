// DU (Distributed Unit) model.
//
// Owns the MAC scheduler and the fronthaul endpoint of one cell: emits
// C-plane scheduling messages and BFP-compressed DL U-plane frames, and
// consumes the UL U-plane (data + PRACH) coming back. The middleboxes sit
// between this and the RuModel; neither endpoint knows they exist, which
// is the paper's transparency requirement.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fronthaul/frame.h"
#include "net/packet.h"
#include "net/port.h"
#include "ran/air.h"
#include "ran/scheduler.h"
#include "ran/vendor.h"

namespace rb {

struct DuConfig {
  CellConfig cell{};
  VendorProfile vendor{};
  MacAddr du_mac = MacAddr::du(0);
  MacAddr ru_mac = MacAddr::ru(0);  // logical RU the DU believes it drives
  std::uint8_t du_id = 0;           // used as PRACH section id (Alg. 3)
  /// Max fronthaul one-way delay (link + middlebox) before a packet is
  /// outside the reception window and dropped (paper: "a few tens of us").
  std::int64_t latency_budget_ns = 30'000;
  /// How many recent UL slots stay eligible for U-plane matching. 1 (the
  /// default) keeps the historical same-slot path byte-identical. City
  /// mode sets >1 for neutral-host guest DUs whose UL frames cross a
  /// shard boundary and arrive a couple of conductor slots after the
  /// allocation was scheduled; frames are then matched to their slot by
  /// SlotPoint instead of by arrival slot.
  int ul_match_slots = 1;
};

struct DuStats {
  std::uint64_t cplane_tx = 0;
  std::uint64_t uplane_tx = 0;
  std::uint64_t uplane_rx = 0;
  std::uint64_t late_drops = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t ul_decode_fail = 0;  // payload energy below decode floor
  std::uint64_t prach_detections = 0;
  std::uint64_t pool_exhausted = 0;
};

class DuModel {
 public:
  DuModel(DuConfig cfg, AirModel& air, CellId cell_id, Port& port,
          PacketPool& pool = PacketPool::default_pool());

  /// Scheduling + DL emission for one slot. `slot_start_ns` stamps packets
  /// for deadline accounting.
  void begin_slot(std::int64_t slot, std::int64_t slot_start_ns);

  /// Drain the port: UL data U-plane and PRACH. Call after RUs emitted.
  void process_rx(std::int64_t slot, std::int64_t slot_start_ns);

  /// Release every packet the DU is holding (UL match windows, undrained
  /// port queue). A DU fed across a shard boundary holds buffers owned by
  /// another shard's pool; its owner calls this before that pool dies.
  void drop_pending_rx();

  MacScheduler& scheduler() { return sched_; }
  const DuStats& stats() const { return stats_; }

  /// Failure injection: a failed DU emits nothing and processes nothing
  /// (software crash / server loss), for the resilience experiments.
  void set_failed(bool failed) { failed_ = failed; }
  bool failed() const { return failed_; }
  const FhContext& fh() const { return fh_; }
  const DuConfig& config() const { return cfg_; }

  /// Offered-load injection (the iperf stand-in feeds these).
  void add_dl_traffic(UeId ue, std::int64_t bits) {
    sched_.add_dl_backlog(ue, bits);
  }
  void add_ul_traffic(UeId ue, std::int64_t bits) {
    sched_.add_ul_backlog(ue, bits);
  }

  /// Checkpoint persistent DU state: scheduler, fronthaul sequence
  /// numbers, HARQ error watermarks, stats and the failure flag. Per-slot
  /// section tables and allocations are slot-keyed scratch, rebuilt at the
  /// next begin_slot, so they are not state.
  void save_state(state::StateWriter& w) const;
  void load_state(state::StateReader& r);

  /// Amplitude floor for declaring an UL allocation decodable, as a factor
  /// over the noise RMS.
  static constexpr double kUlDecodeFactor = 1.35;

  /// C-plane messages are released T1a ahead of their slot's airtime
  /// (O-RAN transmit windows), so control never contends with the U-plane
  /// for middlebox processing time.
  static constexpr std::int64_t kCplaneAdvanceNs = 200'000;

 private:
  void emit_cplane_dl(std::int64_t slot, const SlotPoint& at,
                      std::int64_t slot_start_ns);
  void emit_cplane_ul(std::int64_t slot, const SlotPoint& at,
                      std::int64_t slot_start_ns);
  void emit_uplane_dl(std::int64_t slot, const SlotPoint& at,
                      std::int64_t slot_start_ns);
  void emit_prach_cplane(std::int64_t slot, const SlotPoint& at,
                         std::int64_t slot_start_ns);
  void send_frame(std::size_t len, PacketPtr p, std::int64_t slot_start_ns);
  /// Compose the per-port section lists for this slot: one section per
  /// allocation (the DU only transports scheduled PRBs, like real stacks),
  /// plus the SSB window section on SSB symbols. Fronthaul volume is
  /// therefore traffic-dependent, which the CPU-utilization experiments
  /// (Figure 16) rely on.
  void build_sections(std::int64_t slot);

  EthHeader eth_to_ru() const;
  std::uint8_t next_seq(const EaxcId& eaxc);

  DuConfig cfg_;
  AirModel* air_;
  CellId cell_id_;
  Port* port_;
  PacketPool* pool_;
  FhContext fh_;
  MacScheduler sched_;
  DuStats stats_;

  int n_prb_;
  int n_ports_;

  // Cached compressed PRB prototypes (see DESIGN.md: substrate fast path).
  std::vector<std::uint8_t> zero_prb_;
  std::vector<std::vector<std::uint8_t>> signal_prbs_;  // rotating variants

  // Per-port section lists for the current slot. Payload bytes live in
  // payload_store_ (stable across the slot).
  std::vector<std::vector<USectionData>> data_sections_;  // data symbols
  std::vector<std::vector<USectionData>> ssb_sections_;   // SSB symbols
  std::vector<std::vector<std::uint8_t>> payload_store_;
  bool has_dl_sections_ = false;
  // The same lists fragmented at the MTU, once per slot (reused).
  std::vector<MtuSplit> data_frames_;
  std::vector<MtuSplit> ssb_frames_;

  // Receive scratch, reused across slots (not state).
  std::vector<PacketPtr> rx_;
  FhFrame frame_;

  /// Shared decode gate of the same-slot and windowed UL paths: sample
  /// PRB energy from port-0 frames and credit decodable allocations.
  void resolve_ul_allocs(std::int64_t slot,
                         const std::vector<PacketPtr>& pkts,
                         const std::vector<UPlaneMsg>& msgs,
                         const std::vector<UlAlloc>& allocs,
                         std::unordered_set<int>& resolved);

  std::vector<DlAlloc> dl_allocs_;   // published this slot
  std::vector<UlAlloc> ul_allocs_;
  std::unordered_set<int> ul_resolved_;  // alloc indices credited this slot
  std::int64_t ul_alloc_slot_ = -1;

  /// Windowed UL matching (cfg_.ul_match_slots > 1 only): one entry per
  /// recent UL slot, trimmed to the configured depth at begin_slot.
  struct UlWindow {
    std::int64_t slot = -1;
    SlotPoint at{};
    std::vector<UlAlloc> allocs;
    std::unordered_set<int> resolved;
    std::uint32_t ports_seen = 0;
    std::vector<PacketPtr> port0_pkts;
    std::vector<UPlaneMsg> port0_msgs;
    bool fresh = false;  // received packets in the current process_rx call
  };
  std::vector<UlWindow> ul_windows_;

  std::unordered_map<std::uint16_t, std::uint8_t> seq_;
  std::unordered_map<UeId, std::uint64_t> last_dl_errors_;
  std::unordered_map<UeId, std::uint64_t> last_ul_errors_;
  bool failed_ = false;
};

}  // namespace rb
