// RU (Radio Unit) model.
//
// A Cat-A O-RAN radio: dumb converter between fronthaul frames and RF.
// Downlink: validates timing/C-plane coverage and "radiates" - i.e. it
// extracts the per-PRB BFP exponents of the U-plane payload that actually
// reached it and reports the energized spectrum to the AirModel. Uplink:
// honours cached C-plane requests by synthesizing U-plane frames whose IQ
// amplitude comes from the AirModel's physics (UE signals + noise floor),
// including PRACH capture windows addressed via section type 3 freqOffset.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fronthaul/frame.h"
#include "net/packet.h"
#include "net/port.h"
#include "ran/air.h"

namespace rb {

struct RuModelConfig {
  RuSite site{};
  MacAddr ru_mac = MacAddr::ru(0);
  FhContext fh{};  // provisioned out-of-band (M-plane equivalent)
  std::int64_t latency_budget_ns = 30'000;
  int ssb_period_slots = 20;  // SSB symbol window detection
  int ssb_first_symbol = 2;
  int ssb_n_symbols = 4;
};

struct RuStats {
  std::uint64_t cplane_rx = 0;
  std::uint64_t uplane_rx = 0;
  std::uint64_t uplane_tx = 0;
  std::uint64_t late_drops = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t unexpected_port_drops = 0;  // eAxC beyond our antennas
  std::uint64_t uplane_without_cplane = 0;  // radiated spectrum clipped
  std::uint64_t prach_tx = 0;
  std::uint64_t pool_exhausted = 0;
};

class RuModel {
 public:
  RuModel(RuModelConfig cfg, AirModel& air, RuId ru_id, Port& port,
          PacketPool& pool = PacketPool::default_pool());

  /// Drain the port: cache C-plane requests, absorb DL U-plane and report
  /// the radiated spectrum to the AirModel.
  void process_dl(std::int64_t slot, std::int64_t slot_start_ns);

  /// Serve cached UL C-plane requests (data + PRACH) for this slot.
  void emit_ul(std::int64_t slot, std::int64_t slot_start_ns);

  const RuStats& stats() const { return stats_; }
  int n_prb() const { return n_prb_; }

  /// Adaptation-controller actuation: change the BFP mantissa width of
  /// uplink *data* emissions (PRACH keeps the provisioned width). Peers
  /// decode per-packet via udCompHdr, so this needs no re-provisioning.
  /// Effective from the next emitted frame. Returns false for widths the
  /// BFP codec cannot carry.
  bool set_ul_iq_width(int width) {
    if (width < 1 || width > 16) return false;
    // Without udCompHdr on the wire, peers decode at the provisioned
    // width; a silent change would corrupt every section they parse.
    if (!cfg_.fh.uplane_has_comp_hdr && width != cfg_.fh.comp.iq_width)
      return false;
    ul_comp_.iq_width = std::uint8_t(width);
    return true;
  }
  int ul_iq_width() const { return ul_comp_.iq_width; }

  /// Checkpoint persistent RU state: adapted UL compression width, the
  /// payload-synthesis RNG, fronthaul sequence numbers and stats. The
  /// C-plane request cache is slot-keyed scratch and not state.
  void save_state(state::StateWriter& w) const;
  void load_state(state::StateReader& r);

 private:
  struct UlRequest {
    int port = 0;
    int start_prb = 0;
    int n_prb = 0;
    int symbol = 0;  // first UL symbol in the slot
    MacAddr reply_to{};
    EaxcId eaxc{};
  };
  struct PrachRequest {
    EaxcId eaxc{};
    std::uint16_t section_id = 0;
    std::int32_t freq_offset = 0;
    int n_prb = 0;
    MacAddr reply_to{};
  };
  /// One antenna port's slot accumulators. Cleared at each new slot
  /// without freeing, so the steady state allocates nothing.
  struct PortAccum {
    std::vector<PrbInterval> data;
    std::vector<PrbInterval> ssb;
    std::vector<PrbInterval> cplane;  // DL C-plane coverage
  };

  void add_interval(std::vector<PrbInterval>& iv, int start, int count);
  static void normalize(std::vector<PrbInterval>& iv);
  /// Add the energized PRB runs of one DL U-plane section to `acc`.
  void scan_section(const Packet& p, const USection& sec, bool ssb_sym,
                    PortAccum& acc);
  /// Synthesize `n_prb` compressed UL PRBs into ul_payload_.
  void synth_payload(int start_prb, int n_prb, std::int64_t slot);
  Hertz prb0_freq() const;

  RuModelConfig cfg_;
  CompConfig ul_comp_{};  // uplink-data compression (controller-adaptable)
  AirModel* air_;
  RuId ru_id_;
  Port* port_;
  PacketPool* pool_;
  int n_prb_;
  std::uint32_t rng_ = 0xA5A5A5u;

  std::int64_t cache_slot_ = -1;
  std::vector<UlRequest> ul_requests_;
  std::vector<PrachRequest> prach_requests_;
  std::vector<PortAccum> port_accum_;  // indexed by RU port < n_antennas
  std::unordered_map<std::uint16_t, std::uint8_t> seq_;

  // Per-slot scratch, reused across slots (not state).
  std::vector<PacketPtr> rx_;
  FhFrame frame_;
  std::vector<std::uint8_t> ul_payload_;
  MtuSplit ul_split_;

  RuStats stats_;
};

}  // namespace rb
