// Distributed MIMO middlebox (paper section 4.2, Figure 5b).
//
// Combines several small commodity RUs into one virtual RU with the sum of
// their antennas. The DU believes it drives a single N-antenna RU; each
// physical RU believes it talks to a DU with exactly its own antenna
// count. Per frame, the middlebox remaps the eAxC antenna-port id (A4)
// and redirects to the owning RU (A1); uplink leaves with the first RU's
// MAC as its source, so a stage north of it (a DAS) sees one RU. It also
// copies the SSB PRBs from the primary antenna's U-plane packets into the
// packets of the other RUs' first antennas (A4), so coverage does not
// collapse to the primary RU's neighbourhood.
#pragma once

#include <vector>

#include "core/middlebox.h"

namespace rb {

struct DmimoRu {
  MacAddr mac{};
  int n_antennas = 1;
};

struct DmimoConfig {
  MacAddr du_mac = MacAddr::du(0);
  std::vector<DmimoRu> rus;  // cell layers are assigned in order
  // SSB window of the cell (for the SSB copy) and its occasion timing.
  int ssb_start_prb = 0;
  int ssb_n_prb = 20;
  int ssb_period_slots = 20;
  int ssb_first_symbol = 2;
  int ssb_n_symbols = 4;
  bool copy_ssb = true;  // disable to demonstrate the detach failure mode
  /// Partner-liveness window: an RU whose uplink has been quiet for this
  /// many slots longer than the most recently heard partner is considered
  /// down; its layers are suppressed (single/fewer-RU fallback) until it
  /// speaks again. Relative to the loudest partner so an all-quiet phase
  /// (no UL scheduled anywhere) never trips it; healthy RUs answer PRACH
  /// occasions every ssb_period_slots, so the default covers one period
  /// with margin. <= 0 disables the fallback.
  int ru_quiet_slots = 24;
};

class DmimoMiddlebox final : public MiddleboxApp {
 public:
  static constexpr int kNorth = 0;
  static constexpr int kSouth = 1;

  explicit DmimoMiddlebox(DmimoConfig cfg);

  std::string name() const override { return "dmimo"; }
  void on_frame(int in_port, PacketPtr p, FhFrame& frame,
                MbContext& ctx) override;
  /// Header remaps run in the kernel XDP program (Table 1).
  ProcessingLocus locus(const FhFrame&) const override {
    return ProcessingLocus::Kernel;
  }
  std::string on_mgmt(const std::string& cmd) override;
  void on_slot(std::int64_t slot, MbContext& ctx) override;

  /// Total antennas of the virtual RU.
  int total_antennas() const { return total_antennas_; }
  /// Which RU owns a cell layer, and the local port it maps to.
  struct PortMap {
    int ru_index = -1;
    int local_port = 0;
  };
  PortMap map_layer(int cell_layer) const;

  bool ru_down(int ru_index) const {
    return ru_index >= 0 && ru_index < int(ru_down_.size()) &&
           (ru_down_[std::size_t(ru_index)] ||
            forced_down_[std::size_t(ru_index)]);
  }

  /// Adaptation-controller actuation: force an RU's participation gate
  /// closed (treated exactly like a quiet partner: its IQ is suppressed,
  /// C-plane still flows so the link stays observable for recovery).
  /// Refuses to gate the last open RU. `gated == false` reopens.
  bool set_ru_gated(std::size_t ru_index, bool gated);
  bool ru_gated(std::size_t ru_index) const {
    return ru_index < forced_down_.size() && forced_down_[ru_index];
  }
  /// Config slot of the RU with this MAC, or -1.
  int ru_index_of(const MacAddr& mac) const {
    for (std::size_t i = 0; i < cfg_.rus.size(); ++i)
      if (cfg_.rus[i].mac == mac) return int(i);
    return -1;
  }

  /// Checkpoint quiet-partner probe state and participation gates.
  void save_state(state::StateWriter& w) const override;
  void load_state(state::StateReader& r) override;

 private:
  void downlink(PacketPtr p, FhFrame& frame, MbContext& ctx);
  void uplink(PacketPtr p, FhFrame& frame, MbContext& ctx);
  bool is_ssb_symbol(const SlotPoint& at) const;

  DmimoConfig cfg_;
  int total_antennas_ = 0;
  std::vector<int> layer_base_;  // first cell layer of each RU
  // Partner-liveness fallback state.
  std::vector<std::int64_t> last_ul_slot_;  // -1 = never heard
  std::vector<bool> ru_down_;
  std::vector<bool> forced_down_;  // controller-closed participation gates
  // Interned gauge handle (lazy: the owning Telemetry arrives via ctx).
  bool gauges_ready_ = false;
  Telemetry::GaugeId g_rus_live_ = 0;
};

}  // namespace rb
