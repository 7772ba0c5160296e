// Unit tests for the AirModel: attachment state machine, radiation-gated
// delivery, interference, UL amplitudes and PRACH - driven directly
// (no packets), complementing the e2e suites. The RuRadiation tests feed
// an RuModel hand-built fronthaul frames and check the radiation report
// it derives from the BFP exponents and the DL C-plane coverage.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>

#include "fronthaul/frame.h"
#include "net/packet.h"
#include "net/port.h"
#include "ran/air.h"
#include "ran/ru.h"

namespace rb {
namespace {

ChannelParams quiet_channel() {
  ChannelParams p;
  p.shadowing_sigma_db = 0.0;
  return p;
}

struct AirRig {
  AirModel air{ChannelModel(quiet_channel())};
  CellId cell;
  RuId ru;
  UeId ue;

  AirRig() {
    CellConfig c;
    c.bandwidth = MHz(100);
    c.max_layers = 4;
    c.pci = 1;
    c.finalize();
    cell = air.add_cell(c);
    RuSite s;
    s.pos = {10, 10, 0};
    s.n_antennas = 4;
    s.bandwidth = MHz(100);
    s.center_freq = c.center_freq;
    ru = air.add_ru(s);
    air.assign_ru(cell, ru, 0);
    UeConfig u;
    u.pos = {15, 10, 0};  // 5 m
    ue = air.add_ue(u);
  }

  /// Report full-grid radiation on all four ports (incl. SSB window).
  void radiate_all(std::int64_t slot) {
    RadiationReport rep;
    for (int p = 0; p < 4; ++p) {
      RadiationReport::PortReport pr;
      pr.port = p;
      pr.data = {{0, 273}};
      pr.ssb_sym = {{0, 273}};
      rep.ports.push_back(pr);
    }
    air.report_radiation(ru, slot, rep);
  }

  void attach() {
    // SSB occasion -> WaitPrach -> PRACH occasion -> complete.
    air.begin_slot(0);
    radiate_all(0);
    air.resolve_dl(0);
    air.complete_prach(cell, 19);
  }
};

TEST(Air, AttachRequiresSsbRadiation) {
  AirRig rig;
  rig.air.begin_slot(0);
  rig.air.resolve_dl(0);  // SSB occasion, but nothing radiated
  rig.air.complete_prach(rig.cell, 19);
  EXPECT_FALSE(rig.air.is_attached(rig.ue));

  rig.air.begin_slot(20);
  rig.radiate_all(20);
  rig.air.resolve_dl(20);  // now the UE hears the SSB -> WaitPrach
  rig.air.complete_prach(rig.cell, 39);
  EXPECT_TRUE(rig.air.is_attached(rig.ue));
  EXPECT_EQ(rig.air.serving_cell(rig.ue), rig.cell);
}

TEST(Air, PciLockRestrictsCellChoice) {
  AirRig rig;
  UeConfig u;
  u.pos = {15, 10, 0};
  u.pci_lock = 99;  // no such PCI
  const UeId locked = rig.air.add_ue(u);
  rig.air.begin_slot(0);
  rig.radiate_all(0);
  rig.air.resolve_dl(0);
  rig.air.complete_prach(rig.cell, 19);
  EXPECT_FALSE(rig.air.is_attached(locked));
}

TEST(Air, RlfAfterMissedSsbOccasions) {
  AirRig rig;
  rig.attach();
  ASSERT_TRUE(rig.air.is_attached(rig.ue));
  // SSB occasions pass with no radiation at all.
  for (int k = 1; k <= AirModel::kRlfSsbMisses; ++k) {
    const std::int64_t slot = 20 * k;
    rig.air.begin_slot(slot);
    rig.air.resolve_dl(slot);
  }
  EXPECT_FALSE(rig.air.is_attached(rig.ue));
}

TEST(Air, DeliveryGatedOnRadiatedCoverage) {
  AirRig rig;
  rig.attach();
  DlAlloc al;
  al.ue = rig.ue;
  al.start_prb = 0;
  al.n_prb = 100;
  al.layers = 4;
  al.assumed_sinr_db = 5.0;
  al.tbs_bits = 1000;

  // Radiation missing entirely: error, no bits.
  rig.air.begin_slot(100);
  rig.air.publish_dl_alloc(rig.cell, 100, {al});
  rig.air.resolve_dl(100);
  EXPECT_EQ(rig.air.dl_bits(rig.ue), 0u);
  EXPECT_EQ(rig.air.dl_unradiated(rig.ue), 1u);
  EXPECT_EQ(rig.air.dl_errors(rig.ue), 0u);  // not an MCS failure

  // Radiation covering the allocation: delivered.
  rig.air.begin_slot(101);
  rig.air.publish_dl_alloc(rig.cell, 101, {al});
  rig.radiate_all(101);
  rig.air.resolve_dl(101);
  EXPECT_EQ(rig.air.dl_bits(rig.ue), 1000u);
}

TEST(Air, PartialPortRadiationScalesLayers) {
  AirRig rig;
  rig.attach();
  DlAlloc al;
  al.ue = rig.ue;
  al.start_prb = 0;
  al.n_prb = 100;
  al.layers = 4;
  al.assumed_sinr_db = 0.0;
  al.tbs_bits = 1000;
  // Only two of four ports radiate (e.g. a broken dMIMO branch).
  RadiationReport rep;
  for (int p = 0; p < 2; ++p) {
    RadiationReport::PortReport pr;
    pr.port = p;
    pr.data = {{0, 273}};
    rep.ports.push_back(pr);
  }
  rig.air.begin_slot(50);
  rig.air.publish_dl_alloc(rig.cell, 50, {al});
  rig.air.report_radiation(rig.ru, 50, rep);
  rig.air.resolve_dl(50);
  EXPECT_EQ(rig.air.dl_bits(rig.ue), 500u);  // 2/4 layers usable
}

TEST(Air, CochannelInterferenceReducesThroughputDecision) {
  AirRig rig;
  // Second co-channel cell on another RU, far-ish away.
  CellConfig c2;
  c2.bandwidth = MHz(100);
  c2.pci = 2;
  c2.finalize();
  const CellId cell2 = rig.air.add_cell(c2);
  RuSite s2;
  s2.pos = {30, 10, 0};
  s2.n_antennas = 4;
  s2.bandwidth = MHz(100);
  s2.center_freq = c2.center_freq;
  const RuId ru2 = rig.air.add_ru(s2);
  rig.air.assign_ru(cell2, ru2, 0);
  rig.attach();

  DlAlloc al;
  al.ue = rig.ue;
  al.start_prb = 0;
  al.n_prb = 100;
  al.layers = 1;
  al.tbs_bits = 1000;

  // Clean slot: compute an assumed SINR that just passes.
  rig.air.begin_slot(200);
  rig.air.publish_dl_alloc(rig.cell, 200, {al});
  rig.radiate_all(200);
  rig.air.resolve_dl(200);
  const double clean_sinr = 26.0 + 6.02;  // 4 antennas, no interference

  // Interfered slot: the other cell transmits on the same PRBs.
  DlAlloc othr;
  othr.ue = -1;
  othr.start_prb = 0;
  othr.n_prb = 100;
  othr.layers = 4;
  al.assumed_sinr_db = clean_sinr - 1.0;  // would pass when clean
  rig.air.begin_slot(201);
  rig.air.publish_dl_alloc(rig.cell, 201, {al});
  rig.air.publish_dl_alloc(cell2, 201, {othr});
  rig.radiate_all(201);
  const auto errors_before = rig.air.dl_errors(rig.ue);
  rig.air.resolve_dl(201);
  EXPECT_GT(rig.air.dl_errors(rig.ue), errors_before)
      << "co-channel interference must fail an MCS chosen for clean air";
}

TEST(Air, UlAmplitudeReflectsAllocations) {
  AirRig rig;
  rig.attach();
  UlAlloc al;
  al.ue = rig.ue;
  al.start_prb = 50;
  al.n_prb = 20;
  rig.air.begin_slot(300);
  rig.air.publish_ul_alloc(rig.cell, 300, {al});
  const double idle = rig.air.ul_rx_amplitude(rig.ru, 300, 10);
  const double busy = rig.air.ul_rx_amplitude(rig.ru, 300, 60);
  EXPECT_NEAR(idle, AirModel::kNoiseRms, 1.0);
  EXPECT_GT(busy, 2.0 * AirModel::kNoiseRms);
}

TEST(Air, UlResolveCreditsOnceAndChecksSinr) {
  AirRig rig;
  rig.attach();
  UlAlloc al;
  al.ue = rig.ue;
  al.start_prb = 0;
  al.n_prb = 50;
  al.assumed_sinr_db = 5.0;  // well under the 13.2 dB at 5 m
  al.tbs_bits = 777;
  EXPECT_EQ(rig.air.resolve_ul_alloc(rig.cell, 300, al), 777);
  EXPECT_EQ(rig.air.ul_bits(rig.ue), 777u);
  al.assumed_sinr_db = 40.0;  // impossible MCS
  EXPECT_EQ(rig.air.resolve_ul_alloc(rig.cell, 301, al), 0);
}

TEST(Air, PrachVisibleOnlyDuringOccasionAndWait) {
  AirRig rig;
  // Before any SSB: idle UE, no PRACH.
  EXPECT_TRUE(rig.air.prach_rx(rig.ru, 19).empty());
  rig.air.begin_slot(0);
  rig.radiate_all(0);
  rig.air.resolve_dl(0);  // -> WaitPrach
  EXPECT_TRUE(rig.air.is_prach_occasion(19));
  EXPECT_FALSE(rig.air.is_prach_occasion(18));
  const auto txs = rig.air.prach_rx(rig.ru, 19);
  ASSERT_EQ(txs.size(), 1u);
  EXPECT_EQ(txs[0].ue, rig.ue);
  EXPECT_EQ(txs[0].target_cell, rig.cell);
  EXPECT_GT(txs[0].amp_rms,
            AirModel::kPrachDetectFactor * AirModel::kNoiseRms);
  // Wrong slot: nothing.
  EXPECT_TRUE(rig.air.prach_rx(rig.ru, 20).empty());
}

TEST(Air, ResetCountersClearsThroughput) {
  AirRig rig;
  rig.attach();
  UlAlloc al;
  al.ue = rig.ue;
  al.n_prb = 10;
  al.tbs_bits = 10;
  al.assumed_sinr_db = 0.0;
  rig.air.resolve_ul_alloc(rig.cell, 1, al);
  ASSERT_GT(rig.air.ul_bits(rig.ue), 0u);
  rig.air.reset_counters();
  EXPECT_EQ(rig.air.ul_bits(rig.ue), 0u);
  EXPECT_EQ(rig.air.dl_errors(rig.ue), 0u);
  EXPECT_TRUE(rig.air.is_attached(rig.ue));  // attachment survives
}

// --- RuModel radiation report -----------------------------------------

/// One RU with two antenna ports on a 100 MHz (273 PRB) grid, fed through
/// a wired port from a hand-driven "DU" side.
struct RuRig {
  static constexpr int kWidth = 9;  // threshold exponent 3
  static constexpr std::uint8_t kHot = 5;
  static constexpr std::uint8_t kCold = 1;

  PacketPool pool{64};
  AirModel air{ChannelModel(quiet_channel())};
  Port du_side{"du"};
  Port ru_side{"ru"};
  FhContext fh;
  RuId ru_id;
  std::unique_ptr<RuModel> ru;

  RuRig() {
    fh.comp.iq_width = kWidth;
    RuModelConfig cfg;
    cfg.site.n_antennas = 2;
    cfg.site.bandwidth = MHz(100);
    cfg.fh = fh;
    ru_id = air.add_ru(cfg.site);
    Port::connect(du_side, ru_side, 0);
    ru = std::make_unique<RuModel>(cfg, air, ru_id, ru_side, pool);
  }

  static std::int64_t slot_start(std::int64_t slot) {
    return slot * slot_duration_ns(Scs::kHz30);
  }
  /// Arrival time of a frame for `symbol` of `slot`, `late_ns` past the
  /// RU's reception window when positive.
  static std::int64_t arrival(std::int64_t slot, int symbol,
                              std::int64_t late_ns = 0) {
    const std::int64_t nominal =
        slot_start(slot) + symbol * symbol_duration_ns(Scs::kHz30);
    const std::int64_t budget = RuModelConfig{}.latency_budget_ns;
    return late_ns > 0 ? nominal + budget + late_ns : nominal + 1'000;
  }
  static SlotPoint at(std::int64_t slot, int symbol) {
    SlotPoint p;
    p.slot = std::uint8_t(slot % 2);
    p.subframe = std::uint8_t((slot / 2) % 10);
    p.frame = std::uint8_t(slot / 20);
    p.symbol = std::uint8_t(symbol);
    return p;
  }
  EthHeader eth() const {
    EthHeader e;
    e.dst = MacAddr::ru(0);
    e.src = MacAddr::du(0);
    e.vlan_id = fh.vlan_id;
    return e;
  }

  void send(PacketPtr p, std::size_t len, std::int64_t rx_time) {
    ASSERT_GT(len, 0u);
    p->set_len(len);
    p->rx_time_ns = rx_time;
    ASSERT_TRUE(du_side.send(std::move(p)));
  }

  /// DL C-plane on `port` scheduling the given PRB ranges (count 0 means
  /// the whole carrier, as numPrbc does on the wire).
  void cplane(std::int64_t slot, int port,
              std::initializer_list<PrbInterval> secs) {
    CPlaneMsg m;
    m.direction = Direction::Downlink;
    m.at = at(slot, 0);
    m.comp = fh.comp;
    std::uint16_t id = 0;
    for (const PrbInterval& r : secs) {
      CSection s;
      s.section_id = id++;
      s.start_prb = std::uint16_t(r.start);
      s.num_prb = std::uint16_t(r.count);
      s.num_symbol = 14;
      m.sections.push_back(s);
    }
    PacketPtr p = pool.alloc();
    ASSERT_TRUE(p);
    const std::size_t len = build_cplane_frame(
        p->raw(), eth(), EaxcId{0, 0, 0, std::uint8_t(port)}, 0, m, fh);
    send(std::move(p), len, arrival(slot, 0));
  }

  /// One U-plane section: `n` PRBs from `start`, energized where they
  /// fall in a `hot` range (only the exponent byte matters to the RU).
  struct USec {
    int start = 0;
    int n = 0;
    std::initializer_list<PrbInterval> hot;  // offsets within the section
  };

  /// DL U-plane on `port` for `symbol`, with `truncate` bytes cut off the
  /// end of the built frame.
  void uplane(std::int64_t slot, int port, int symbol,
              std::initializer_list<USec> secs, std::int64_t late_ns = 0,
              std::size_t truncate = 0) {
    const std::size_t prb_sz = fh.comp.prb_bytes();
    std::vector<std::vector<std::uint8_t>> payloads;
    payloads.reserve(secs.size());  // `data` holds spans into them
    std::vector<USectionData> data;
    for (const USec& u : secs) {
      auto& pl = payloads.emplace_back(std::size_t(u.n) * prb_sz, 0);
      for (int k = 0; k < u.n; ++k) {
        bool hot = false;
        for (const PrbInterval& h : u.hot) hot |= k >= h.start && k < h.end();
        pl[std::size_t(k) * prb_sz] = hot ? kHot : kCold;
      }
      USectionData d;
      d.section_id = std::uint16_t(data.size());
      d.start_prb = std::uint16_t(u.start);
      d.num_prb = u.n;
      d.payload = pl;
      data.push_back(d);
    }
    UPlaneMsg hdr;
    hdr.direction = Direction::Downlink;
    hdr.at = at(slot, symbol);
    PacketPtr p = pool.alloc();
    ASSERT_TRUE(p);
    const std::size_t len =
        build_uplane_frame(p->raw(), eth(), EaxcId{0, 0, 0, std::uint8_t(port)},
                           0, hdr, data, fh);
    ASSERT_GT(len, truncate);
    send(std::move(p), len - truncate, arrival(slot, symbol, late_ns));
  }

  void process(std::int64_t slot) {
    air.begin_slot(slot);
    ru->process_dl(slot, slot_start(slot));
  }

  /// The reported port `port` for `slot`, or nullptr if it is absent.
  const RadiationReport::PortReport* port_report(std::int64_t slot,
                                                 int port) const {
    auto [rep, at_slot] = air.radiation(ru_id);
    if (at_slot != slot) return nullptr;
    for (const auto& pr : rep.ports)
      if (pr.port == port) return &pr;
    return nullptr;
  }
  bool reported(std::int64_t slot) const {
    auto [rep, at_slot] = air.radiation(ru_id);
    return at_slot == slot && !rep.ports.empty();
  }
};

::testing::AssertionResult IntervalsAre(
    const std::vector<PrbInterval>& got,
    std::initializer_list<PrbInterval> want) {
  bool same = got.size() == want.size();
  std::size_t i = 0;
  for (const PrbInterval& w : want) {
    if (!same) break;
    same = got[i].start == w.start && got[i].count == w.count;
    ++i;
  }
  if (same) return ::testing::AssertionSuccess();
  auto r = ::testing::AssertionFailure() << "got";
  for (const auto& g : got) r << " {" << g.start << "," << g.count << "}";
  r << ", want";
  for (const PrbInterval& w : want)
    r << " {" << w.start << "," << w.count << "}";
  return r;
}

TEST(RuRadiation, MergesOverlappingAndAbuttingRunsPerPort) {
  RuRig rig;
  const std::int64_t slot = 3;  // not an SSB slot
  rig.cplane(slot, 0, {{0, 100}});
  rig.cplane(slot, 1, {{0, 50}});
  // Port 0: PRBs 2-5 and 10-11 on symbol 3; 4-7 (overlap) and 12-13
  // (abut) on symbol 4, in a frame carrying two sections.
  rig.uplane(slot, 0, 3, {{0, 20, {{2, 4}, {10, 2}}}});
  rig.uplane(slot, 0, 4, {{0, 10, {{4, 4}}}, {10, 10, {{2, 2}}}});
  // Port 1: hot run reaching the end of its section (30-34), then an
  // abutting all-hot section (35-39) delivered in a second process_dl
  // call of the same slot, which must accumulate.
  rig.uplane(slot, 1, 3, {{30, 5, {{0, 5}}}});
  rig.process(slot);
  rig.uplane(slot, 1, 5, {{35, 5, {{0, 5}}}});
  rig.ru->process_dl(slot, RuRig::slot_start(slot));

  const auto* p0 = rig.port_report(slot, 0);
  const auto* p1 = rig.port_report(slot, 1);
  ASSERT_NE(p0, nullptr);
  ASSERT_NE(p1, nullptr);
  EXPECT_TRUE(IntervalsAre(p0->data, {{2, 6}, {10, 4}}));
  EXPECT_TRUE(IntervalsAre(p1->data, {{30, 10}}));
  EXPECT_TRUE(p0->ssb_sym.empty());
  EXPECT_TRUE(p1->ssb_sym.empty());
  EXPECT_EQ(rig.air.radiation(rig.ru_id).first.ports.size(), 2u);
  const RuStats& st = rig.ru->stats();
  EXPECT_EQ(st.cplane_rx, 2u);
  EXPECT_EQ(st.uplane_rx, 4u);
  EXPECT_EQ(st.parse_errors, 0u);
  EXPECT_EQ(st.late_drops, 0u);
  EXPECT_EQ(st.unexpected_port_drops, 0u);
  EXPECT_EQ(st.uplane_without_cplane, 0u);
}

TEST(RuRadiation, ClipsDataToCplaneCoverage) {
  RuRig rig;
  const std::int64_t slot = 5;
  rig.cplane(slot, 0, {{10, 20}, {50, 10}});
  rig.uplane(slot, 0, 1, {{0, 40, {{0, 40}}}});
  rig.uplane(slot, 0, 2, {{55, 15, {{0, 15}}}});
  rig.process(slot);
  const auto* p0 = rig.port_report(slot, 0);
  ASSERT_NE(p0, nullptr);
  EXPECT_TRUE(IntervalsAre(p0->data, {{10, 20}, {55, 5}}));
  EXPECT_EQ(rig.port_report(slot, 1), nullptr);
  EXPECT_EQ(rig.ru->stats().uplane_without_cplane, 0u);
}

TEST(RuRadiation, UplaneWithoutCplaneIsNotRadiated) {
  RuRig rig;
  const std::int64_t slot = 7;
  rig.cplane(slot, 1, {{0, 0}});  // coverage on the other port only
  rig.uplane(slot, 0, 1, {{0, 30, {{0, 30}}}});
  rig.process(slot);
  EXPECT_FALSE(rig.reported(slot));
  EXPECT_EQ(rig.ru->stats().uplane_rx, 1u);
  EXPECT_EQ(rig.ru->stats().uplane_without_cplane, 1u);
}

TEST(RuRadiation, SsbSymbolsReportedOnlyInSsbSlots) {
  RuRig rig;
  // Default SSB window: every 20th slot, symbols 2..5.
  for (std::int64_t slot : {20, 21}) {
    rig.cplane(slot, 0, {{0, 0}});  // whole carrier
    rig.uplane(slot, 0, 2, {{100, 20, {{0, 20}}}});
    rig.uplane(slot, 0, 5, {{120, 4, {{0, 4}}}});
    rig.uplane(slot, 0, 7, {{0, 10, {{0, 10}}}});
    rig.process(slot);
    const auto* p0 = rig.port_report(slot, 0);
    ASSERT_NE(p0, nullptr) << "slot " << slot;
    EXPECT_TRUE(IntervalsAre(p0->data, {{0, 10}, {100, 24}})) << slot;
    if (slot == 20)
      EXPECT_TRUE(IntervalsAre(p0->ssb_sym, {{100, 24}}));
    else
      EXPECT_TRUE(p0->ssb_sym.empty());
  }
}

TEST(RuRadiation, PortBeyondAntennasIsDroppedAndNotReported) {
  RuRig rig;
  const std::int64_t slot = 9;
  rig.cplane(slot, 3, {{0, 50}});
  rig.uplane(slot, 3, 1, {{0, 50, {{0, 50}}}});
  rig.process(slot);
  EXPECT_FALSE(rig.reported(slot));
  const RuStats& st = rig.ru->stats();
  EXPECT_EQ(st.cplane_rx, 1u);
  EXPECT_EQ(st.uplane_rx, 0u);
  // Both the DL C-plane and the DL U-plane to port 3 count as drops.
  EXPECT_EQ(st.unexpected_port_drops, 2u);
  EXPECT_EQ(st.uplane_without_cplane, 0u);
}

TEST(RuRadiation, LateFrameIsDropped) {
  RuRig rig;
  const std::int64_t slot = 11;
  rig.cplane(slot, 0, {{0, 50}});
  rig.uplane(slot, 0, 4, {{0, 50, {{0, 50}}}}, /*late_ns=*/1);
  rig.process(slot);
  EXPECT_FALSE(rig.reported(slot));
  EXPECT_EQ(rig.ru->stats().late_drops, 1u);
  EXPECT_EQ(rig.ru->stats().uplane_rx, 0u);
}

TEST(RuRadiation, TruncatedFrameIsAParseError) {
  RuRig rig;
  const std::int64_t slot = 13;
  rig.cplane(slot, 0, {{0, 50}});
  rig.uplane(slot, 0, 4, {{0, 50, {{0, 50}}}}, 0, /*truncate=*/10);
  rig.process(slot);
  EXPECT_FALSE(rig.reported(slot));
  EXPECT_EQ(rig.ru->stats().parse_errors, 1u);
  EXPECT_EQ(rig.ru->stats().uplane_rx, 0u);
}

}  // namespace
}  // namespace rb
