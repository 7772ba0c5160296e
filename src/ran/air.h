// AirModel: the radio-physics oracle of the simulation.
//
// Division of labour (see DESIGN.md section 2):
//  * DU/RU/middleboxes exchange *real* O-RAN fronthaul packets; structure,
//    timing and IQ payload integrity are validated at the endpoints.
//  * The AirModel owns everything over-the-air: path loss, interference,
//    MIMO rank, SSB-based attachment, PRACH, and delivered bits.
//
// Traffic only flows when both agree: the DU publishes its allocations
// here, but DL bits are credited only for PRBs/layers the RUs *actually
// radiated* (i.e. the energy in the U-plane packets that survived the
// middlebox path), and attachment only succeeds when SSB/PRACH packets
// physically reached the right radios. A middlebox bug therefore shows up
// as lost coverage or throughput, exactly as it would on the testbed.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ran/cell_config.h"
#include "ran/channel.h"
#include "ran/phy_rate.h"
#include "state/serialize.h"

namespace rb {

using CellId = int;
using RuId = int;
using UeId = int;

/// Radio-site description of an RU.
struct RuSite {
  Position pos{};
  int n_antennas = 4;
  Hertz center_freq = GHz(3) + MHz(460);
  Hertz bandwidth = MHz(100);
};

struct UeConfig {
  Position pos{};
  int max_layers = 4;
  int pci_lock = -1;  // attach only to this PCI when >= 0
};

/// Mapping of one cell layer onto one local RU antenna port.
struct LayerMap {
  int cell_layer = 0;
  int ru_port = 0;
};

/// One DL allocation the DU scheduler decided for a slot.
struct DlAlloc {
  UeId ue = -1;
  int start_prb = 0;  // cell grid
  int n_prb = 0;
  int layers = 1;
  double assumed_sinr_db = 0.0;  // per-layer SINR the MCS was picked for
  std::int64_t tbs_bits = 0;
};

/// One UL allocation (uplink is SISO, as in the paper's experiments).
struct UlAlloc {
  UeId ue = -1;
  int start_prb = 0;
  int n_prb = 0;
  double assumed_sinr_db = 0.0;
  std::int64_t tbs_bits = 0;
};

/// PRB interval in some grid.
struct PrbInterval {
  int start = 0;
  int count = 0;
  int end() const { return start + count; }
};

/// What one RU physically radiated in one slot, extracted by the RU model
/// from the U-plane packets that reached it (BFP exponent >= threshold).
struct RadiationReport {
  struct PortReport {
    int port = 0;
    std::vector<PrbInterval> data;     // energized PRBs over data symbols
    std::vector<PrbInterval> ssb_sym;  // energized PRBs during SSB symbols
  };
  std::vector<PortReport> ports;
};

/// Link-quality feedback the DU polls per UE (CQI/RI equivalent).
struct UeReport {
  bool attached = false;
  CellId serving = -1;
  int rank = 1;
  double per_layer_sinr_db = -99.0;  // at the reported rank
};

/// A PRACH transmission visible at an RU during a PRACH occasion.
struct PrachRx {
  UeId ue = -1;
  CellId target_cell = -1;
  Hertz f0 = 0;        // absolute frequency of the UE's PRACH window
  int n_prb = 0;
  double amp_rms = 0;  // int16-scale amplitude at this RU
};

class AirModel {
 public:
  AirModel(ChannelModel channel, Scs scs = Scs::kHz30)
      : channel_(channel), scs_(scs) {}

  /// Cells announcing the same PCI are one identity to a UE (the warm
  /// standby pairing of section 8.1).
  bool same_cell_identity(CellId a, CellId b) const;

  // --- topology -----------------------------------------------------
  CellId add_cell(const CellConfig& cfg);
  RuId add_ru(const RuSite& site);
  UeId add_ue(const UeConfig& cfg);

  /// Declare that `ru` radiates (part of) `cell`'s signal. `prb_offset` is
  /// where the cell's PRB 0 sits in the RU grid (RU sharing); `layers`
  /// maps cell layers to local RU ports (empty = identity map over
  /// min(cell layers, RU antennas) ports).
  void assign_ru(CellId cell, RuId ru, int prb_offset = 0,
                 std::vector<LayerMap> layers = {});

  const CellConfig& cell(CellId id) const { return cells_[std::size_t(id)].cfg; }
  const RuSite& ru(RuId id) const { return rus_[std::size_t(id)].site; }
  std::size_t num_ues() const { return ues_.size(); }

  void set_ue_position(UeId ue, const Position& p);
  const Position& ue_position(UeId ue) const {
    return ues_[std::size_t(ue)].cfg.pos;
  }

  // --- DU-facing ----------------------------------------------------
  void publish_dl_alloc(CellId cell, std::int64_t slot,
                        std::vector<DlAlloc> allocs);
  void publish_ul_alloc(CellId cell, std::int64_t slot,
                        std::vector<UlAlloc> allocs);
  UeReport ue_report(UeId ue) const;
  std::vector<UeId> attached_ues(CellId cell) const;

  /// DU detected PRACH energy for `cell`: complete attachment of every UE
  /// that rached this occasion towards the cell.
  void complete_prach(CellId cell, std::int64_t slot);

  /// Credit UL bits after the DU validated the combined U-plane payload.
  /// Returns the bits actually delivered (0 if the link failed).
  std::int64_t resolve_ul_alloc(CellId cell, std::int64_t slot,
                                const UlAlloc& alloc);

  // --- RU-facing ----------------------------------------------------
  void report_radiation(RuId ru, std::int64_t slot, RadiationReport report);
  /// The radiation `ru` last reported and the slot it holds for (-1 once
  /// begin_slot of a later slot dropped it, or if nothing was reported).
  std::pair<const RadiationReport&, std::int64_t> radiation(RuId ru) const {
    const Ru& r = rus_[std::size_t(ru)];
    return {r.radiation, r.radiation_slot};
  }

  /// RMS amplitude (int16 scale) the RU front-end observes on one PRB of
  /// its own grid in an UL slot: sum of UE transmissions plus noise.
  double ul_rx_amplitude(RuId ru, std::int64_t slot, int ru_grid_prb);

  /// PRACH transmissions in flight at this occasion, as seen by `ru`.
  std::vector<PrachRx> prach_rx(RuId ru, std::int64_t slot) const;

  /// True when `slot` is a PRACH occasion for at least one cell.
  bool is_prach_occasion(std::int64_t slot) const;

  // --- engine-facing ------------------------------------------------
  void begin_slot(std::int64_t slot);
  /// Attachment management + DL delivery for the slot. Call after all RUs
  /// reported radiation.
  void resolve_dl(std::int64_t slot);

  // --- results ------------------------------------------------------
  std::uint64_t dl_bits(UeId ue) const { return ues_[std::size_t(ue)].dl_bits; }
  std::uint64_t ul_bits(UeId ue) const { return ues_[std::size_t(ue)].ul_bits; }
  std::uint64_t dl_errors(UeId ue) const {
    return ues_[std::size_t(ue)].dl_errors;
  }
  /// Allocations that found no radiated signal at all (broken datapath or
  /// passive standby) - kept apart from MCS failures.
  std::uint64_t dl_unradiated(UeId ue) const {
    return ues_[std::size_t(ue)].dl_unradiated;
  }
  std::uint64_t ul_errors(UeId ue) const {
    return ues_[std::size_t(ue)].ul_errors;
  }
  void reset_counters();

  /// Checkpoint all mutable radio state: per-UE attach machine and bit
  /// counters, per-cell published allocations, per-RU radiation/UL-amp
  /// caches and pending PRACH completions. Topology (cells/RUs/UEs and
  /// assignments) is config, rebuilt by the deployment builder.
  void save_state(state::StateWriter& w) const;
  void load_state(state::StateReader& r);

  bool is_attached(UeId ue) const {
    return ues_[std::size_t(ue)].serving >= 0;
  }
  CellId serving_cell(UeId ue) const { return ues_[std::size_t(ue)].serving; }
  int last_rank(UeId ue) const { return ues_[std::size_t(ue)].last_rank; }

  // --- conductor bridge (city mode) ---------------------------------
  // A neutral-host cell is simulated in two shards at once: the guest DU
  // publishes into its home air model while the shared RU radiates in the
  // host shard's air model. The city conductor reconciles the two views
  // at the slot barrier (workers parked) through these accessors/setters;
  // nothing else should call them. See DESIGN.md section 4j.
  const std::vector<DlAlloc>& dl_allocs(CellId cell) const {
    return cells_[std::size_t(cell)].dl_allocs;
  }
  const std::vector<UlAlloc>& ul_allocs(CellId cell) const {
    return cells_[std::size_t(cell)].ul_allocs;
  }
  std::int64_t alloc_slot(CellId cell) const {
    return cells_[std::size_t(cell)].alloc_slot;
  }
  /// Force a UE's attach machine: attached -> Attached/serving (resets
  /// the RLF miss counter), detached -> Idle. Absolute overwrite.
  void sync_ue_attach(UeId ue, bool attached, CellId serving);
  /// Overwrite the DL-side result counters of a mirror UE with the
  /// authoritative values from the shard that radiates its signal.
  void sync_ue_dl(UeId ue, std::uint64_t bits, std::uint64_t errors,
                  std::uint64_t unradiated);
  /// Overwrite the UL-side result counters (authoritative in the guest
  /// DU's home shard, mirrored into the host shard).
  void sync_ue_ul(UeId ue, std::uint64_t bits, std::uint64_t errors);

  /// Noise floor amplitude (int16 scale) on the uplink.
  static constexpr double kNoiseRms = 400.0;
  /// DL transmit amplitude per antenna (int16 scale).
  static constexpr double kDlTxRms = 8000.0;
  /// PRACH correlation/processing gain (dB).
  static constexpr double kPrachGainDb = 18.0;
  /// Amplitude factor over noise required for PRACH detection.
  static constexpr double kPrachDetectFactor = 1.5;
  /// SSB SNR (dB) required to attach / stay attached.
  static constexpr double kAttachThresholdDb = 0.0;
  /// Missed SSB occasions before a UE declares radio-link failure.
  static constexpr int kRlfSsbMisses = 3;

 private:
  struct Assignment {
    RuId ru = -1;
    int prb_offset = 0;
    std::vector<LayerMap> layers;
  };
  struct Cell {
    CellConfig cfg;
    std::vector<Assignment> assigned;
    std::vector<DlAlloc> dl_allocs;  // current slot
    std::vector<UlAlloc> ul_allocs;
    std::int64_t alloc_slot = -1;
  };
  struct Ru {
    RuSite site;
    RadiationReport radiation;  // current slot
    std::int64_t radiation_slot = -1;
    std::vector<double> ul_amp_cache;  // per ru-grid PRB, current slot
    std::int64_t ul_amp_slot = -1;
  };
  enum class UeAttachState : std::uint8_t { Idle, WaitPrach, Attached };
  struct Ue {
    UeConfig cfg;
    UeAttachState state = UeAttachState::Idle;
    CellId serving = -1;
    CellId prach_target = -1;
    int ssb_misses = 0;
    int last_rank = 1;
    double last_sinr_db = -99.0;
    std::uint64_t dl_bits = 0;
    std::uint64_t ul_bits = 0;
    std::uint64_t dl_errors = 0;
    std::uint64_t ul_errors = 0;
    std::uint64_t dl_unradiated = 0;
  };

  /// Total-power DL "SNR-equivalent" (dB) of `cell` at `ue` summing every
  /// radiating mapped antenna; nullopt if nothing radiates.
  std::optional<double> cell_signal_db(const Cell& c, UeId ue,
                                       bool require_radiation,
                                       int* radiating_layers) const;
  /// Interference (linear, noise-normalized) at `ue` on an absolute
  /// frequency range, from other cells' DL allocations this slot.
  double dl_interference_lin(CellId serving, UeId ue, Hertz f_lo,
                             Hertz f_hi) const;
  bool ssb_radiated(const Cell& c, const Assignment& a) const;
  bool intervals_cover(const std::vector<PrbInterval>& iv, int start,
                       int end, double min_cover = 0.9) const;
  std::uint32_t link_seed(RuId ru, UeId ue) const {
    return std::uint32_t(ru * 7919 + ue * 104729 + 13);
  }

  ChannelModel channel_;
  Scs scs_;
  std::vector<Cell> cells_;
  std::vector<Ru> rus_;
  std::vector<Ue> ues_;
};

}  // namespace rb
