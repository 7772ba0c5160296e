// End-to-end RU sharing (paper 4.3 / 6.2.3, Figure 10b): two 40 MHz DUs
// share one 100 MHz RU; each cell's throughput equals a dedicated-RU
// baseline. PRACH attach flows through the Algorithm 3 combine/demux with
// the Appendix A.1 frequency translation. The chain suite covers RU
// sharing chained with DAS (6.3.2, Figure 12).
#include <gtest/gtest.h>

#include "sim/deployment.h"

namespace rb {
namespace {

CellConfig cell40(Hertz center, std::uint16_t pci) {
  CellConfig c;
  c.bandwidth = MHz(40);
  c.center_freq = center;
  c.max_layers = 4;
  c.pci = pci;
  return c;
}

/// Dedicated 40 MHz RU baseline.
void baseline40(double* dl, double* ul) {
  Deployment d;
  auto du = d.add_du(cell40(GHz(3) + MHz(430), 1), srsran_profile(), 0);
  RuSite s;
  s.pos = d.plan.ru_position(0, 1);
  s.n_antennas = 4;
  s.bandwidth = MHz(40);
  s.center_freq = GHz(3) + MHz(430);
  auto ru = d.add_ru(s, 0, du.du->fh());
  d.connect_direct(du, ru);
  const UeId ue = d.add_ue(d.plan.near_ru(0, 1, 5.0), &du, 500.0, 50.0);
  ASSERT_TRUE(d.attach_all(400));
  d.measure(400);
  *dl = d.dl_mbps(ue);
  *ul = d.ul_mbps(ue);
}

struct ShareRig {
  Deployment d;
  Deployment::DuHandle du_a, du_b;
  Deployment::RuHandle ru;
  MiddleboxRuntime* rt = nullptr;
  UeId ue_a = -1, ue_b = -1;

  /// 100 MHz RU at 3.46 GHz shared by 40 MHz cells. Aligned grids: the
  /// RU has 273 PRBs; cell A sits at PRB 10, cell B at PRB 150 (both
  /// centered per the Appendix A.1.1 formula).
  explicit ShareRig(int shift_sc = 0) {
    const Hertz ru_center = GHz(3) + MHz(460);
    RuSite s;
    s.pos = d.plan.ru_position(0, 1);
    s.n_antennas = 4;
    s.bandwidth = MHz(100);
    s.center_freq = ru_center;

    const Hertz ca = aligned_du_center_frequency(ru_center, 273, 106, 10,
                                                 Scs::kHz30);
    const Hertz cb = aligned_du_center_frequency(ru_center, 273, 106, 150,
                                                 Scs::kHz30);
    du_a = d.add_du(cell40(ca, 1), srsran_profile(), 0);
    du_b = d.add_du(cell40(cb, 2), srsran_profile(), 1);
    ru = d.add_ru(s, 0, du_a.du->fh());
    rt = &d.add_rushare({&du_a, &du_b}, ru, DriverKind::Dpdk, shift_sc);
    // Forced association by PCI (paper 6.2.3).
    ue_a = d.add_ue(d.plan.near_ru(0, 1, 5.0), &du_a, 500.0, 50.0, 1);
    ue_b = d.add_ue(d.plan.near_ru(0, 1, -5.0), &du_b, 500.0, 50.0, 2);
  }
};

TEST(E2eRuShare, BothUesAttachThroughSharedRu) {
  ShareRig rig;
  ASSERT_TRUE(rig.d.attach_all(600));
  EXPECT_EQ(rig.d.air.serving_cell(rig.ue_a), rig.du_a.cell);
  EXPECT_EQ(rig.d.air.serving_cell(rig.ue_b), rig.du_b.cell);
  EXPECT_GT(rig.rt->telemetry().counter("rushare_prach_combined"), 0u);
  EXPECT_GT(rig.rt->telemetry().counter("rushare_prach_demuxed"), 0u);
}

TEST(E2eRuShare, SharedThroughputMatchesDedicatedBaseline) {
  double base_dl = 0, base_ul = 0;
  baseline40(&base_dl, &base_ul);
  // Paper: ~330 Mbps DL / ~25 Mbps UL per 40 MHz cell.
  EXPECT_NEAR(base_dl, 330.0, 330.0 * 0.12);
  EXPECT_NEAR(base_ul, 25.0, 25.0 * 0.25);

  ShareRig rig;
  ASSERT_TRUE(rig.d.attach_all(600));
  rig.d.measure(400);
  EXPECT_NEAR(rig.d.dl_mbps(rig.ue_a), base_dl, base_dl * 0.10);
  EXPECT_NEAR(rig.d.dl_mbps(rig.ue_b), base_dl, base_dl * 0.10);
  EXPECT_NEAR(rig.d.ul_mbps(rig.ue_a), base_ul, base_ul * 0.20);
  EXPECT_NEAR(rig.d.ul_mbps(rig.ue_b), base_ul, base_ul * 0.20);
  EXPECT_GT(rig.rt->telemetry().counter("rushare_dl_muxed"), 0u);
  EXPECT_GT(rig.rt->telemetry().counter("rushare_ul_demuxed"), 0u);
  EXPECT_EQ(rig.rt->telemetry().counter("rushare_mux_failures"), 0u);
}

TEST(E2eRuShare, MisalignedGridsStillWorkViaRecompression) {
  // Figure 6 right: half-PRB misalignment forces the decompress-shift-
  // recompress path; traffic still flows, at higher per-packet cost.
  ShareRig aligned(0), misaligned(6);
  ASSERT_TRUE(aligned.d.attach_all(600));
  ASSERT_TRUE(misaligned.d.attach_all(600));
  aligned.d.measure(200);
  misaligned.d.measure(200);
  EXPECT_GT(misaligned.d.dl_mbps(misaligned.ue_a),
            0.8 * aligned.d.dl_mbps(aligned.ue_a));
  // The misaligned path must have done codec work; the aligned one none.
  EXPECT_GT(misaligned.rt->last_slot_max_latency_ns(), 0);
}

/// Figure 12 (paper 6.3.2): RU sharing chained with DAS. Two 40 MHz MNO
/// cells share four 100 MHz RUs on one floor; the DAS stage carries the
/// shared grid to every RU. Built only through Deployment.
struct ChainRig {
  Deployment d;
  Deployment::DuHandle du_a, du_b;
  std::vector<Deployment::RuHandle> rus;
  Deployment::ShareChain chain;
  UeId ue_a = -1, ue_b = -1;

  ChainRig() {
    const Hertz ru_center = GHz(3) + MHz(460);
    const Hertz ca = aligned_du_center_frequency(ru_center, 273, 106, 10,
                                                 Scs::kHz30);
    const Hertz cb = aligned_du_center_frequency(ru_center, 273, 106, 150,
                                                 Scs::kHz30);
    du_a = d.add_du(cell40(ca, 1), srsran_profile(), 0);
    du_b = d.add_du(cell40(cb, 2), srsran_profile(), 1);
    for (int i = 0; i < 4; ++i) {
      RuSite s;
      s.pos = d.plan.ru_position(0, i);
      s.n_antennas = 4;
      s.bandwidth = MHz(100);
      s.center_freq = ru_center;
      rus.push_back(d.add_ru(s, std::uint8_t(i), du_a.du->fh()));
    }
    std::vector<Deployment::RuHandle*> ptrs;
    for (auto& r : rus) ptrs.push_back(&r);
    chain = d.add_rushare({&du_a, &du_b}, ptrs);
    ue_a = d.add_ue(d.plan.near_ru(0, 0, 2.0), &du_a, 500.0, 50.0, 1);
    ue_b = d.add_ue(d.plan.near_ru(0, 3, 2.0), &du_b, 500.0, 50.0, 2);
  }
};

TEST(E2eRuShareChain, BothMnosCarryTrafficThroughDas) {
  ChainRig rig;
  ASSERT_TRUE(rig.d.attach_all(900));
  EXPECT_EQ(rig.d.air.serving_cell(rig.ue_a), rig.du_a.cell);
  EXPECT_EQ(rig.d.air.serving_cell(rig.ue_b), rig.du_b.cell);
  rig.d.measure(400);
  EXPECT_GE(rig.d.dl_mbps(rig.ue_a), 200.0);
  EXPECT_GE(rig.d.dl_mbps(rig.ue_b), 200.0);
  EXPECT_GT(rig.d.ul_mbps(rig.ue_a), 0.0);
  EXPECT_GT(rig.d.ul_mbps(rig.ue_b), 0.0);
  // Merged UL leaves the DAS stage with a member RU's source MAC, which
  // the share accepts.
  const Telemetry& share_tm = rig.chain.share->telemetry();
  EXPECT_EQ(share_tm.counter("rushare_quarantine_src_mac"), 0u);
  EXPECT_GT(share_tm.counter("rushare_ul_demuxed"), 0u);
  EXPECT_GT(rig.chain.das->telemetry().counter("das_merges"), 0u);
}

TEST(E2eRuShareChain, ForeignSourceMacOnSouthPortIsQuarantined) {
  ChainRig rig;
  ASSERT_TRUE(rig.d.attach_all(900));
  Telemetry& tm = rig.chain.share->telemetry();
  ASSERT_EQ(tm.counter("rushare_quarantine_src_mac"), 0u);

  // A well-formed UL U-plane frame from a MAC that is no member RU,
  // arriving on the share's south port from the DAS stage's side.
  const FhContext& fh = rig.chain.share->config().fh;
  const int n_prb = 10;
  std::vector<std::uint8_t> payload(fh.comp.prb_bytes() * n_prb);
  UPlaneMsg hdr;
  hdr.direction = Direction::Uplink;
  USectionData sec;
  sec.start_prb = 0;
  sec.num_prb = n_prb;
  sec.payload = payload;
  EthHeader eth;
  eth.src = MacAddr::mb(9);
  eth.dst = rig.du_a.du->config().du_mac;
  PacketPtr p = PacketPool::default_pool().alloc();
  ASSERT_TRUE(p);
  const std::size_t len = build_uplane_frame(p->raw(), eth, EaxcId{}, 0, hdr,
                                             std::span(&sec, 1), fh);
  ASSERT_GT(len, 0u);
  p->set_len(len);

  const std::uint64_t rx_a = rig.du_a.port->stats().rx_packets;
  const std::uint64_t rx_b = rig.du_b.port->stats().rx_packets;
  ASSERT_TRUE(rig.chain.das->port(DasMiddlebox::kNorth).send(std::move(p)));
  rig.chain.share->pump(rig.d.engine.current_slot(),
                        rig.d.engine.elapsed_ns());
  EXPECT_EQ(tm.counter("rushare_quarantine_src_mac"), 1u);
  EXPECT_EQ(rig.du_a.port->stats().rx_packets, rx_a);
  EXPECT_EQ(rig.du_b.port->stats().rx_packets, rx_b);
}

}  // namespace
}  // namespace rb
