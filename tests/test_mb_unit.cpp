// Handler-level unit tests for the reference middleboxes: drive them with
// hand-built frames through a bare runtime (no DU/RU/engine), checking the
// emitted packets byte-for-byte. Complements the e2e suites.
#include <gtest/gtest.h>

#include "iq/prb.h"
#include "mb/das.h"
#include "mb/dmimo.h"
#include "mb/failover.h"
#include "mb/prbmon.h"
#include "mb/rushare.h"

namespace rb {
namespace {

FhContext ctx100() {
  FhContext c;
  c.carrier_prbs = 273;
  return c;
}

std::vector<std::uint8_t> payload_prbs(int n_prb, std::int16_t amp,
                                       const CompConfig& comp) {
  std::vector<IqSample> samples(std::size_t(n_prb) * kScPerPrb,
                                IqSample{amp, std::int16_t(-amp)});
  std::vector<std::uint8_t> out(comp.prb_bytes() * std::size_t(n_prb));
  compress_prbs(IqConstSpan(samples.data(), samples.size()), comp, out);
  return out;
}

PacketPtr uplane_pkt(const FhContext& ctx, Direction dir, const SlotPoint& at,
                     const EaxcId& eaxc, int start_prb, int n_prb,
                     std::int16_t amp, const MacAddr& src,
                     const MacAddr& dst = {}) {
  auto payload = payload_prbs(n_prb, amp, ctx.comp);
  UPlaneMsg hdr;
  hdr.direction = dir;
  hdr.at = at;
  USectionData sec;
  sec.start_prb = std::uint16_t(start_prb);
  sec.num_prb = n_prb;
  sec.payload = payload;
  EthHeader eth;
  eth.src = src;
  eth.dst = dst;
  auto p = PacketPool::default_pool().alloc();
  const std::size_t len = build_uplane_frame(p->raw(), eth, eaxc, 0, hdr,
                                             std::span(&sec, 1), ctx);
  p->set_len(len);
  return p;
}

/// Bare two-port runtime harness around an app.
struct Harness {
  MiddleboxRuntime rt;
  std::vector<std::unique_ptr<Port>> ext;    // external peers
  std::vector<std::unique_ptr<Port>> inner;  // runtime-side ports

  Harness(MiddleboxApp& app, int n_ports, const FhContext& ctx)
      : rt(make_cfg(ctx), app) {
    for (int i = 0; i < n_ports; ++i) {
      inner.push_back(std::make_unique<Port>("p" + std::to_string(i)));
      ext.push_back(std::make_unique<Port>("x" + std::to_string(i)));
      Port::connect(*ext.back(), *inner.back(), 0);
      rt.add_port("p" + std::to_string(i), *inner.back());
    }
  }
  static MiddleboxRuntime::Config make_cfg(const FhContext& ctx) {
    MiddleboxRuntime::Config c;
    c.fh = ctx;
    return c;
  }
  std::vector<PacketPtr> drain(int port) {
    std::vector<PacketPtr> out;
    ext[std::size_t(port)]->rx_burst(out, 128);
    return out;
  }
};

TEST(DasUnit, DownlinkReplicatesToEveryRu) {
  const FhContext ctx = ctx100();
  DasConfig cfg;
  cfg.du_mac = MacAddr::du(0);
  cfg.ru_macs = {MacAddr::ru(0), MacAddr::ru(1), MacAddr::ru(2)};
  DasMiddlebox app(cfg);
  Harness h(app, 2, ctx);

  h.ext[0]->send(uplane_pkt(ctx, Direction::Downlink, {0, 0, 0, 3},
                            {0, 0, 0, 1}, 10, 8, 9000, cfg.du_mac));
  h.rt.pump(0, 0);
  auto out = h.drain(DasMiddlebox::kSouth);
  ASSERT_EQ(out.size(), 3u);
  // One replica per RU, each addressed to its RU, payload identical.
  std::set<std::string> dsts;
  for (auto& p : out) {
    auto f = parse_frame(p->data(), ctx);
    ASSERT_TRUE(f.has_value());
    dsts.insert(f->eth.dst.str());
    EXPECT_EQ(f->uplane().sections[0].start_prb, 10);
  }
  EXPECT_EQ(dsts.size(), 3u);
}

TEST(DasUnit, UplinkMergeSumsConstituents) {
  const FhContext ctx = ctx100();
  DasConfig cfg;
  cfg.du_mac = MacAddr::du(0);
  cfg.ru_macs = {MacAddr::ru(0), MacAddr::ru(1)};
  DasMiddlebox app(cfg);
  Harness h(app, 2, ctx);

  // Radio time (frame 1, subframe 2, slot 0) = absolute slot 24 at kHz30;
  // the combiner's stale-copy gate needs the pump slot to match.
  const SlotPoint at{1, 2, 0, 0};
  const std::int64_t slot = 24;
  const EaxcId eaxc{0, 0, 0, 0};
  h.ext[1]->send(uplane_pkt(ctx, Direction::Uplink, at, eaxc, 0, 4, 1000,
                            MacAddr::ru(0)));
  h.rt.pump(slot, 0);
  EXPECT_TRUE(h.drain(DasMiddlebox::kNorth).empty());  // still caching

  h.ext[1]->send(uplane_pkt(ctx, Direction::Uplink, at, eaxc, 0, 4, 500,
                            MacAddr::ru(1)));
  h.rt.pump(slot, 0);
  auto out = h.drain(DasMiddlebox::kNorth);
  ASSERT_EQ(out.size(), 1u);
  auto f = parse_frame(out[0]->data(), ctx);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->eth.dst, cfg.du_mac);
  const auto& sec = f->uplane().sections[0];
  std::vector<IqSample> merged(std::size_t(sec.num_prb) * kScPerPrb);
  ASSERT_TRUE(decompress_prbs(
      out[0]->data().subspan(sec.payload_offset, sec.payload_len),
      sec.num_prb, sec.comp, IqSpan(merged.data(), merged.size())));
  // 1000 + 500 = 1500, within one BFP quantization step.
  for (const auto& s : merged) EXPECT_NEAR(s.i, 1500, 8);
  EXPECT_EQ(h.rt.telemetry().counter("das_merges"), 1u);
}

TEST(DasUnit, MismatchedGeometryCountsFailure) {
  const FhContext ctx = ctx100();
  DasConfig cfg;
  cfg.du_mac = MacAddr::du(0);
  cfg.ru_macs = {MacAddr::ru(0), MacAddr::ru(1)};
  DasMiddlebox app(cfg);
  Harness h(app, 2, ctx);
  const SlotPoint at{1, 2, 0, 0};  // absolute slot 24 at kHz30
  const EaxcId eaxc{0, 0, 0, 0};
  h.ext[1]->send(uplane_pkt(ctx, Direction::Uplink, at, eaxc, 0, 4, 1000,
                            MacAddr::ru(0)));
  h.ext[1]->send(uplane_pkt(ctx, Direction::Uplink, at, eaxc, 0, 6, 500,
                            MacAddr::ru(1)));  // different n_prb
  h.rt.pump(24, 0);
  EXPECT_TRUE(h.drain(DasMiddlebox::kNorth).empty());
  EXPECT_EQ(h.rt.telemetry().counter("das_merge_failures"), 1u);
}

TEST(DasUnit, NonMemberCopyCountsAsUnknownSourceNotDuplicate) {
  const FhContext ctx = ctx100();
  DasConfig cfg;
  cfg.du_mac = MacAddr::du(0);
  cfg.ru_macs = {MacAddr::ru(0), MacAddr::ru(1)};
  DasMiddlebox app(cfg);
  Harness h(app, 2, ctx);
  const SlotPoint at{1, 2, 0, 0};  // absolute slot 24 at kHz30
  const EaxcId eaxc{0, 0, 0, 0};
  h.ext[1]->send(uplane_pkt(ctx, Direction::Uplink, at, eaxc, 0, 4, 1000,
                            MacAddr::ru(0)));
  h.ext[1]->send(uplane_pkt(ctx, Direction::Uplink, at, eaxc, 0, 4, 700,
                            MacAddr::ru(7)));  // no member of the DAS
  h.ext[1]->send(uplane_pkt(ctx, Direction::Uplink, at, eaxc, 0, 4, 500,
                            MacAddr::ru(1)));
  h.rt.pump(24, 0);
  EXPECT_EQ(h.drain(DasMiddlebox::kNorth).size(), 1u);
  const Telemetry& tm = h.rt.telemetry();
  EXPECT_EQ(tm.counter("das_merges"), 1u);
  EXPECT_EQ(tm.counter("das_unknown_source_copies"), 1u);
  EXPECT_EQ(tm.counter("das_duplicate_copies"), 0u);
  EXPECT_EQ(tm.counter("das_ejected_copies"), 0u);
}

TEST(DmimoUnit, LayerMapCoversAllAntennas) {
  DmimoConfig cfg;
  cfg.rus = {{MacAddr::ru(0), 2}, {MacAddr::ru(1), 1}, {MacAddr::ru(2), 1}};
  DmimoMiddlebox app(cfg);
  EXPECT_EQ(app.total_antennas(), 4);
  EXPECT_EQ(app.map_layer(0).ru_index, 0);
  EXPECT_EQ(app.map_layer(1).ru_index, 0);
  EXPECT_EQ(app.map_layer(1).local_port, 1);
  EXPECT_EQ(app.map_layer(2).ru_index, 1);
  EXPECT_EQ(app.map_layer(2).local_port, 0);
  EXPECT_EQ(app.map_layer(3).ru_index, 2);
  EXPECT_EQ(app.map_layer(9).ru_index, -1);
}

TEST(DmimoUnit, DownlinkRemapsPortAndSteers) {
  const FhContext ctx = ctx100();
  DmimoConfig cfg;
  cfg.du_mac = MacAddr::du(0);
  cfg.rus = {{MacAddr::ru(0), 2}, {MacAddr::ru(1), 2}};
  DmimoMiddlebox app(cfg);
  Harness h(app, 2, ctx);

  // Layer 3 -> RU 1 local port 1.
  h.ext[0]->send(uplane_pkt(ctx, Direction::Downlink, {0, 0, 0, 5},
                            {0, 0, 0, 3}, 0, 4, 9000, cfg.du_mac));
  h.rt.pump(0, 0);
  auto out = h.drain(DmimoMiddlebox::kSouth);
  ASSERT_EQ(out.size(), 1u);
  auto f = parse_frame(out[0]->data(), ctx);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->eth.dst, MacAddr::ru(1));
  EXPECT_EQ(f->ecpri.eaxc.ru_port, 1);
}

TEST(DmimoUnit, UplinkRemapsBackByLayerBase) {
  const FhContext ctx = ctx100();
  DmimoConfig cfg;
  cfg.du_mac = MacAddr::du(0);
  cfg.rus = {{MacAddr::ru(0), 2}, {MacAddr::ru(1), 2}};
  DmimoMiddlebox app(cfg);
  Harness h(app, 2, ctx);

  h.ext[1]->send(uplane_pkt(ctx, Direction::Uplink, {0, 0, 0, 0},
                            {0, 0, 0, 1}, 0, 4, 900, MacAddr::ru(1)));
  h.rt.pump(0, 0);
  auto out = h.drain(DmimoMiddlebox::kNorth);
  ASSERT_EQ(out.size(), 1u);
  auto f = parse_frame(out[0]->data(), ctx);
  EXPECT_EQ(f->ecpri.eaxc.ru_port, 3);  // base 2 + local 1
  EXPECT_EQ(f->eth.dst, cfg.du_mac);
  EXPECT_EQ(f->eth.src, MacAddr::ru(0));  // the group's identity north
}

TEST(PrbMonUnit, ThresholdsConfigurableViaMgmt) {
  PrbMonConfig cfg;
  PrbMonitorMiddlebox app(cfg);
  EXPECT_EQ(app.on_mgmt("thresholds"), "thr_dl=0 thr_ul=2");
  EXPECT_EQ(app.on_mgmt("set-thr ul 3"), "ok");
  EXPECT_EQ(app.on_mgmt("thresholds"), "thr_dl=0 thr_ul=3");
  EXPECT_EQ(app.on_mgmt("set-thr sideways 1"), "unknown direction");
}

TEST(FailoverUnit, MgmtManualSwitch) {
  FailoverConfig cfg;
  FailoverMiddlebox app(cfg);
  EXPECT_EQ(app.on_mgmt("active"), "primary");
  EXPECT_EQ(app.on_mgmt("switch"), "ok");
  EXPECT_EQ(app.on_mgmt("active"), "standby");
}

TEST(RuShareUnit, WidensOnlyFirstCplanePerSymbolRange) {
  const FhContext du_ctx = [] {
    FhContext c;
    c.carrier_prbs = 106;
    return c;
  }();
  RuShareConfig cfg;
  cfg.ru_macs = {MacAddr::ru(0)};
  cfg.ru_n_prb = 273;
  cfg.ru_center_freq = GHz(3) + MHz(460);
  cfg.dus = {{MacAddr::du(0), 0, 10, 106, GHz(3) + MHz(433)},
             {MacAddr::du(1), 1, 150, 106, GHz(3) + MHz(484)}};
  RuShareMiddlebox app(cfg);
  // Port 0 = south; 1, 2 = DUs.
  Harness h(app, 3, ctx100());

  auto cplane = [&](std::uint8_t du) {
    CPlaneMsg m;
    m.direction = Direction::Downlink;
    m.at = {0, 0, 0, 0};
    CSection s;
    s.num_prb = 106;
    s.num_symbol = 14;
    m.sections.push_back(s);
    auto p = PacketPool::default_pool().alloc();
    EthHeader eth;
    eth.src = MacAddr::du(du);
    const std::size_t len =
        build_cplane_frame(p->raw(), eth, EaxcId{}, 0, m, du_ctx);
    p->set_len(len);
    return p;
  };
  h.ext[1]->send(cplane(0));
  h.rt.pump(0, 0);
  auto out = h.drain(RuShareMiddlebox::kSouth);
  ASSERT_EQ(out.size(), 1u);  // widened request forwarded
  auto f = parse_frame(out[0]->data(), ctx100());
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->cplane().sections[0].effective_prbs(273), 273);
  EXPECT_EQ(f->eth.dst, cfg.ru_macs.front());

  h.ext[2]->send(cplane(1));  // same symbols: absorbed
  h.rt.pump(0, 0);
  EXPECT_TRUE(h.drain(RuShareMiddlebox::kSouth).empty());
}

}  // namespace
}  // namespace rb
