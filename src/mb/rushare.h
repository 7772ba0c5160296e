// RU sharing middlebox (paper section 4.3, Appendix A.1, Algorithms 2+3).
//
// Lets several DUs (different operators) drive one RU. Downlink: C-plane
// requests are widened to the RU's whole spectrum (first request wins,
// A4), U-plane payloads of all requesting DUs are cached (A3) and muxed
// into one RU-grid packet, copying each DU's PRBs to its spectrum slice
// (A4, aligned or misaligned per Figure 6). Uplink: the RU's whole-grid
// U-plane is replicated per requesting DU (A2) and each replica carries
// only that DU's slice (A4). PRACH control/occasion frames are combined
// and demultiplexed by section id == DU id, with the Appendix A.1.2
// freqOffset translation between the DU and RU grids.
#pragma once

#include <vector>

#include "core/middlebox.h"

namespace rb {

struct ShareDu {
  MacAddr mac{};
  std::uint8_t du_id = 0;
  int prb_offset = 0;   // where the DU's PRB 0 sits in the RU grid
  int n_prb = 106;      // the DU's carrier size
  Hertz center_freq = 0;
};

struct RuShareConfig {
  std::vector<ShareDu> dus;
  /// Source MACs accepted on the south port: the RU itself, or the member
  /// RUs of a DAS stage chained south of the share (its merged UL carries
  /// a member's source MAC). DL is addressed to the first; a frame from
  /// any other MAC is quarantined.
  std::vector<MacAddr> ru_macs = {MacAddr::ru(0)};
  int ru_n_prb = 273;
  Hertz ru_center_freq = GHz(3) + MHz(460);
  Scs scs = Scs::kHz30;
  /// Sub-carrier misalignment between DU and RU grids. 0 = aligned (the
  /// Appendix A.1.1 optimization); 1..11 forces the decompress-shift-
  /// recompress path.
  int shift_sc = 0;
};

class RuShareMiddlebox final : public MiddleboxApp {
 public:
  /// Port convention: 0 = south (RU); 1 + i = north of DU i.
  static constexpr int kSouth = 0;
  static int north_port(int du_index) { return 1 + du_index; }

  explicit RuShareMiddlebox(RuShareConfig cfg) : cfg_(std::move(cfg)) {}

  std::string name() const override { return "rushare"; }
  void on_frame(int in_port, PacketPtr p, FhFrame& frame,
                MbContext& ctx) override;
  ProcessingLocus locus(const FhFrame&) const override {
    return ProcessingLocus::Userspace;  // Table 1
  }
  std::string on_mgmt(const std::string& cmd) override;

  const RuShareConfig& config() const { return cfg_; }

 private:
  /// Semantic validation of a parsed frame: source MAC must belong to the
  /// port's owner and all sections must stay inside the owner's PRB grid,
  /// so a corrupted-but-parseable frame never leaks across tenant slices.
  /// Counts rushare_quarantine_{src_mac,geometry} and returns true when
  /// the frame must be dropped.
  bool quarantine(int in_port, const FhFrame& frame, MbContext& ctx) const;
  void du_cplane(int du, PacketPtr p, FhFrame& frame, MbContext& ctx);
  void du_uplane(int du, PacketPtr p, FhFrame& frame, MbContext& ctx);
  void du_prach_cplane(int du, PacketPtr p, FhFrame& frame, MbContext& ctx);
  void ru_uplane(PacketPtr p, FhFrame& frame, MbContext& ctx);
  void ru_prach_uplane(PacketPtr p, FhFrame& frame, MbContext& ctx);

  /// Count the distinct DUs among cached entries.
  static int distinct_dus(const std::vector<CachedPacket>& entries);
  /// Copy one DU's slice between grids (aligned or misaligned).
  bool copy_slice(MbContext& ctx, std::span<const std::uint8_t> src,
                  int src_prb, std::span<std::uint8_t> dst, int dst_prb,
                  int n_prb, const CompConfig& comp);

  RuShareConfig cfg_;
};

}  // namespace rb
