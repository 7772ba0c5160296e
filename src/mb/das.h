// Distributed Antenna System middlebox (paper section 4.1, Figure 5a).
//
// Downlink: replicate every C- and U-plane frame from the DU to all DAS
// RUs (actions A1+A2) - the same cell signal radiates everywhere.
// Uplink: cache each RU's U-plane per (symbol, antenna port) (action A3);
// once all RUs delivered, sum their IQ samples element-wise - decompress,
// accumulate, recompress (action A4) - and forward the single combined
// stream to the DU (action A1), dropping the constituents.
//
// Degraded mode: a combine group must never wait forever for a copy that
// was lost on the fronthaul. Each group has a per-symbol deadline - when
// a later arrival is more than `combine_deadline_ns` past the group's
// first copy, or when the pump goes idle (everything that was going to
// arrive this phase has), the group is combined from whatever copies made
// it (das_partial_merges / das_missing_copies). Copies that straggle in
// after their group was flushed, or that carry a stale slot, are dropped
// and counted (das_late_copies). A combine merges one copy per active
// member and counts each copy it leaves out under one reason: a second
// copy from a member that already contributed (das_duplicate_copies),
// a copy from an ejected member (das_ejected_copies) or one from a MAC
// outside the distribution set (das_unknown_source_copies).
#pragma once

#include <vector>

#include "core/middlebox.h"

namespace rb {

struct DasConfig {
  MacAddr du_mac = MacAddr::du(0);
  std::vector<MacAddr> ru_macs;  // the DAS distribution set
  Scs scs = Scs::kHz30;          // for stale-slot detection on uplink
  /// Per-symbol combine deadline: a group older than this (relative to
  /// the newest uplink arrival) is combined partially. 0 disables the
  /// watermark; the pump-idle flush still bounds every group to its slot
  /// phase.
  std::int64_t combine_deadline_ns = 150000;
};

class DasMiddlebox final : public MiddleboxApp {
 public:
  /// Port convention: index 0 = north (DU side), 1 = south (RU side).
  static constexpr int kNorth = 0;
  static constexpr int kSouth = 1;

  explicit DasMiddlebox(DasConfig cfg)
      : cfg_(std::move(cfg)), active_(cfg_.ru_macs.size(), true) {}

  std::string name() const override { return "das"; }
  void on_frame(int in_port, PacketPtr p, FhFrame& frame,
                MbContext& ctx) override;
  /// DAS does IQ (de)compression: userspace under the XDP split (Table 1).
  ProcessingLocus locus(const FhFrame&) const override {
    return ProcessingLocus::Userspace;
  }
  std::string on_mgmt(const std::string& cmd) override;
  void on_slot(std::int64_t slot, MbContext& ctx) override;
  void on_pump_idle(std::int64_t slot, MbContext& ctx) override;

  const DasConfig& config() const { return cfg_; }

  /// Adaptation-controller actuation: shrink/grow the uplink combine set.
  /// An inactive member keeps receiving downlink (its floor keeps DL
  /// coverage and the link stays observable for recovery), but its uplink
  /// copies are no longer waited for or merged - a member whose copies
  /// arrive past the DU latency budget would otherwise make every merged
  /// uplink late. Refuses to deactivate the last active member.
  bool set_member_active(const MacAddr& mac, bool active);
  bool member_active(const MacAddr& mac) const;
  std::size_t active_members() const;

  /// Checkpoint combine-set membership and open/flushed combine groups
  /// (packets of open groups live in the runtime's PacketCache).
  void save_state(state::StateWriter& w) const override;
  void load_state(state::StateReader& r) override;

 private:
  /// An uplink combine group awaiting more RU copies.
  struct Pending {
    std::uint64_t key = 0;
    std::int64_t first_rx_ns = 0;
  };

  void downlink(PacketPtr p, FhFrame& frame, MbContext& ctx);
  void uplink(PacketPtr p, FhFrame& frame, MbContext& ctx);
  /// Combine whatever copies a group has (dedup by RU) and forward the
  /// sum north; counts full vs partial merges.
  void combine_group(std::uint64_t key, MbContext& ctx);
  bool group_done(std::uint64_t key) const;
  /// Index of `mac` in the distribution set, or -1.
  int member_index(const MacAddr& mac) const;

  DasConfig cfg_;
  std::vector<bool> active_;         // combine-set membership per ru_macs[i]
  std::vector<Pending> pending_;     // open groups, oldest first
  std::vector<std::uint64_t> done_;  // groups already flushed this slot
};

}  // namespace rb
