// Unit + property tests for the fronthaul protocol codecs: Ethernet,
// eCPRI, C-plane (types 1 and 3), U-plane, and the in-place rewrite
// helpers. Includes truncation-robustness sweeps.
#include <gtest/gtest.h>

#include <random>

#include "fronthaul/frame.h"
#include "iq/prb.h"

namespace rb {
namespace {

FhContext ctx273() {
  FhContext c;
  c.carrier_prbs = 273;
  return c;
}

TEST(EthHeader, RoundTripWithVlan) {
  EthHeader h;
  h.dst = MacAddr::ru(3);
  h.src = MacAddr::du(1);
  h.has_vlan = true;
  h.pcp = 7;
  h.vlan_id = 6;
  std::array<std::uint8_t, 32> buf{};
  BufWriter w(buf);
  h.encode(w);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.written(), h.wire_size());
  BufReader r(std::span<const std::uint8_t>(buf.data(), w.written()));
  auto back = EthHeader::parse(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);
}

TEST(EthHeader, RoundTripWithoutVlan) {
  EthHeader h;
  h.dst = MacAddr::broadcast();
  h.src = MacAddr::mb(9);
  h.has_vlan = false;
  std::array<std::uint8_t, 32> buf{};
  BufWriter w(buf);
  h.encode(w);
  BufReader r(std::span<const std::uint8_t>(buf.data(), w.written()));
  auto back = EthHeader::parse(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);
}

TEST(MacAddr, ParseAndFormat) {
  const MacAddr m = MacAddr::parse("02:d0:00:00:00:07");
  EXPECT_EQ(m, MacAddr::du(7));
  EXPECT_EQ(m.str(), "02:d0:00:00:00:07");
  EXPECT_EQ(MacAddr::parse("garbage"), MacAddr{});
  EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
  EXPECT_FALSE(m.is_broadcast());
}

TEST(EaxcId, PackUnpackAllFields) {
  for (std::uint8_t du : {0, 1, 15}) {
    for (std::uint8_t port : {0, 3, 15}) {
      EaxcId id{du, std::uint8_t(du ^ 1), std::uint8_t(port / 2), port};
      EXPECT_EQ(EaxcId::unpack(id.packed()), id);
    }
  }
}

TEST(EcpriHeader, RoundTrip) {
  EcpriHeader h;
  h.msg_type = EcpriMsgType::RtControl;
  h.payload_size = 1234;
  h.eaxc = EaxcId{1, 2, 3, 4};
  h.seq_id = 99;
  h.sub_seq_id = 17;
  h.e_bit = false;
  std::array<std::uint8_t, 16> buf{};
  BufWriter w(buf);
  h.encode(w);
  EXPECT_EQ(w.written(), EcpriHeader::kWireSize);
  BufReader r(std::span<const std::uint8_t>(buf.data(), w.written()));
  auto back = EcpriHeader::parse(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);
}

TEST(EcpriHeader, RejectsWrongVersion) {
  std::array<std::uint8_t, 8> buf{0x20, 0, 0, 0, 0, 0, 0, 0};  // version 2
  BufReader r(buf);
  EXPECT_FALSE(EcpriHeader::parse(r).has_value());
}

CPlaneMsg sample_type1() {
  CPlaneMsg m;
  m.direction = Direction::Downlink;
  m.at = {17, 3, 1, 2};
  m.section_type = SectionType::Type1;
  m.comp = CompConfig{CompMethod::BlockFloatingPoint, 9};
  CSection s;
  s.section_id = 42;
  s.start_prb = 100;
  s.num_prb = 106;
  s.num_symbol = 14;
  s.re_mask = 0xfff;
  s.beam_id = 77;
  m.sections.push_back(s);
  s.section_id = 43;
  s.start_prb = 5;
  s.num_prb = 20;
  m.sections.push_back(s);
  return m;
}

TEST(CPlane, Type1RoundTrip) {
  const CPlaneMsg m = sample_type1();
  std::array<std::uint8_t, 256> buf{};
  BufWriter w(buf);
  ASSERT_TRUE(m.encode(w));
  BufReader r(std::span<const std::uint8_t>(buf.data(), w.written()));
  auto back = CPlaneMsg::parse(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(CPlane, Type3RoundTripWithNegativeFreqOffset) {
  CPlaneMsg m;
  m.direction = Direction::Uplink;
  m.filter_index = 1;
  m.at = {200, 9, 1, 0};
  m.section_type = SectionType::Type3;
  m.time_offset = 484;
  m.frame_structure = 0xb1;
  m.cp_length = 0;
  m.comp = CompConfig{CompMethod::BlockFloatingPoint, 9};
  CSection s;
  s.section_id = 2;
  s.num_prb = 12;
  s.num_symbol = 12;
  s.freq_offset = -3344;  // below-center windows are negative
  m.sections.push_back(s);
  s.section_id = 3;
  s.freq_offset = 0x7ffff0;  // large positive 24-bit value
  m.sections.push_back(s);

  std::array<std::uint8_t, 256> buf{};
  BufWriter w(buf);
  ASSERT_TRUE(m.encode(w));
  BufReader r(std::span<const std::uint8_t>(buf.data(), w.written()));
  auto back = CPlaneMsg::parse(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(CPlane, EffectivePrbsZeroMeansWholeCarrier) {
  CSection s;
  s.num_prb = 0;
  EXPECT_EQ(s.effective_prbs(273), 273);
  s.num_prb = 106;
  EXPECT_EQ(s.effective_prbs(273), 106);
}

std::vector<std::uint8_t> compressed_payload(int n_prb, const CompConfig& c,
                                             std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(-8000, 8000);
  std::vector<IqSample> samples(std::size_t(n_prb) * kScPerPrb);
  for (auto& s : samples) {
    s.i = std::int16_t(dist(rng));
    s.q = std::int16_t(dist(rng));
  }
  std::vector<std::uint8_t> out(c.prb_bytes() * std::size_t(n_prb));
  compress_prbs(IqConstSpan(samples.data(), samples.size()), c, out);
  return out;
}

TEST(Frame, UplaneBuildParseRoundTrip) {
  FhContext ctx = ctx273();
  EthHeader eth;
  eth.dst = MacAddr::ru(0);
  eth.src = MacAddr::du(0);
  auto payload = compressed_payload(50, ctx.comp, 1);

  UPlaneMsg hdr;
  hdr.direction = Direction::Downlink;
  hdr.at = {9, 5, 0, 7};
  USectionData sec;
  sec.section_id = 11;
  sec.start_prb = 60;
  sec.num_prb = 50;
  sec.payload = payload;

  std::vector<std::uint8_t> buf(9216);
  std::vector<USection> placed;
  const std::size_t len = build_uplane_frame(
      buf, eth, EaxcId{0, 0, 0, 2}, 5, hdr, std::span(&sec, 1), ctx, &placed);
  ASSERT_GT(len, 0u);
  buf.resize(len);
  ASSERT_EQ(placed.size(), 1u);

  auto frame = parse_frame(buf, ctx);
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(frame->is_uplane());
  EXPECT_EQ(frame->eth.dst, eth.dst);
  EXPECT_EQ(frame->ecpri.eaxc.ru_port, 2);
  EXPECT_EQ(frame->ecpri.seq_id, 5);
  const auto& u = frame->uplane();
  EXPECT_EQ(u.at, hdr.at);
  ASSERT_EQ(u.sections.size(), 1u);
  EXPECT_EQ(u.sections[0].start_prb, 60);
  EXPECT_EQ(u.sections[0].num_prb, 50);
  EXPECT_EQ(u.sections[0].payload_offset, placed[0].payload_offset);
  // Payload bytes visible through the parsed offsets equal the input.
  auto view = std::span<const std::uint8_t>(buf).subspan(
      u.sections[0].payload_offset, u.sections[0].payload_len);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), payload.begin()));
}

TEST(Frame, WholeCarrierSectionUsesZeroShorthand) {
  FhContext ctx = ctx273();
  auto payload = compressed_payload(273, ctx.comp, 2);
  UPlaneMsg hdr;
  hdr.direction = Direction::Uplink;
  USectionData sec;
  sec.num_prb = 273;
  sec.payload = payload;
  std::vector<std::uint8_t> buf(9216);
  const std::size_t len =
      build_uplane_frame(buf, EthHeader{}, EaxcId{}, 0, hdr,
                         std::span(&sec, 1), ctx);
  ASSERT_GT(len, 0u);
  buf.resize(len);
  auto frame = parse_frame(buf, ctx);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->uplane().sections.size(), 1u);
  EXPECT_EQ(frame->uplane().sections[0].num_prb, 273);
}

TEST(Frame, OversizeSectionSplitsAt255) {
  // 256..272-PRB sections are inexpressible in the 8-bit numPrbu and must
  // fragment (the regression behind first-D-slot losses).
  FhContext ctx = ctx273();
  auto payload = compressed_payload(261, ctx.comp, 3);
  UPlaneMsg hdr;
  hdr.direction = Direction::Downlink;
  USectionData sec;
  sec.start_prb = 0;
  sec.num_prb = 261;
  sec.payload = payload;
  std::vector<std::uint8_t> buf(9216);
  const std::size_t len =
      build_uplane_frame(buf, EthHeader{}, EaxcId{}, 0, hdr,
                         std::span(&sec, 1), ctx);
  ASSERT_GT(len, 0u);
  buf.resize(len);
  auto frame = parse_frame(buf, ctx);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->uplane().sections.size(), 2u);
  EXPECT_EQ(frame->uplane().sections[0].num_prb, 255);
  EXPECT_EQ(frame->uplane().sections[1].num_prb, 6);
  EXPECT_EQ(frame->uplane().sections[1].start_prb, 255);
}

TEST(Frame, CplaneBuildParseRoundTrip) {
  FhContext ctx = ctx273();
  const CPlaneMsg m = sample_type1();
  std::vector<std::uint8_t> buf(512);
  const std::size_t len = build_cplane_frame(
      buf, EthHeader{}, EaxcId{0, 0, 0, 1}, 17, m, ctx);
  ASSERT_GT(len, 0u);
  buf.resize(len);
  auto frame = parse_frame(buf, ctx);
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(frame->is_cplane());
  EXPECT_EQ(frame->cplane(), m);
  EXPECT_EQ(frame->ecpri.seq_id, 17);
}

TEST(Frame, RewriteEthAddrsInPlace) {
  FhContext ctx = ctx273();
  std::vector<std::uint8_t> buf(512);
  const std::size_t len = build_cplane_frame(buf, EthHeader{}, EaxcId{}, 0,
                                             sample_type1(), ctx);
  buf.resize(len);
  ASSERT_TRUE(rewrite_eth_addrs(buf, MacAddr::ru(9), MacAddr::mb(1)));
  auto frame = parse_frame(buf, ctx);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->eth.dst, MacAddr::ru(9));
  EXPECT_EQ(frame->eth.src, MacAddr::mb(1));
}

TEST(Frame, RewriteEaxcInPlace) {
  FhContext ctx = ctx273();
  std::vector<std::uint8_t> buf(512);
  const std::size_t len = build_cplane_frame(buf, EthHeader{}, EaxcId{}, 0,
                                             sample_type1(), ctx);
  buf.resize(len);
  ASSERT_TRUE(rewrite_eaxc(buf, EaxcId{0, 0, 0, 3}));
  auto frame = parse_frame(buf, ctx);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->ecpri.eaxc.ru_port, 3);
  // The rest of the message is untouched.
  EXPECT_EQ(frame->cplane(), sample_type1());
}

TEST(Frame, RejectsNonEcpriEthertype) {
  std::vector<std::uint8_t> buf(64, 0);
  buf[12] = 0x08;  // IPv4
  buf[13] = 0x00;
  EXPECT_FALSE(parse_frame(buf, ctx273()).has_value());
}

/// Property: no prefix truncation of a valid frame crashes the parser,
/// and almost all truncations are rejected.
TEST(Frame, TruncationFuzz) {
  FhContext ctx = ctx273();
  auto payload = compressed_payload(40, ctx.comp, 4);
  UPlaneMsg hdr;
  hdr.direction = Direction::Downlink;
  USectionData sec;
  sec.num_prb = 40;
  sec.payload = payload;
  std::vector<std::uint8_t> buf(9216);
  const std::size_t len = build_uplane_frame(
      buf, EthHeader{}, EaxcId{}, 0, hdr, std::span(&sec, 1), ctx);
  buf.resize(len);
  for (std::size_t cut = 0; cut < len; ++cut) {
    auto r = parse_frame(std::span<const std::uint8_t>(buf.data(), cut), ctx);
    EXPECT_FALSE(r.has_value()) << "accepted truncation at " << cut;
  }
}

/// Every rejected truncation reports a typed reason, and the reason
/// matches the layer the cut landed in.
TEST(Frame, TruncationSetsTypedReason) {
  FhContext ctx = ctx273();
  auto payload = compressed_payload(40, ctx.comp, 4);
  UPlaneMsg hdr;
  hdr.direction = Direction::Downlink;
  USectionData sec;
  sec.num_prb = 40;
  sec.payload = payload;
  std::vector<std::uint8_t> buf(9216);
  const std::size_t len = build_uplane_frame(
      buf, EthHeader{}, EaxcId{}, 0, hdr, std::span(&sec, 1), ctx);
  buf.resize(len);
  for (std::size_t cut = 0; cut < len; ++cut) {
    ParseError err = ParseError::None;
    auto r = parse_frame(std::span<const std::uint8_t>(buf.data(), cut), ctx,
                         &err);
    ASSERT_FALSE(r.has_value()) << "accepted truncation at " << cut;
    EXPECT_NE(err, ParseError::None) << "untyped rejection at " << cut;
    EXPECT_NE(parse_error_name(err), nullptr);
    if (cut < 14) EXPECT_EQ(err, ParseError::TruncatedEth) << "at " << cut;
  }
}

TEST(Frame, UnknownEcpriTypeSetsTypedReason) {
  FhContext ctx = ctx273();
  auto payload = compressed_payload(10, ctx.comp, 2);
  UPlaneMsg hdr;
  USectionData sec;
  sec.num_prb = 10;
  sec.payload = payload;
  std::vector<std::uint8_t> buf(9216);
  const std::size_t len = build_uplane_frame(
      buf, EthHeader{}, EaxcId{}, 0, hdr, std::span(&sec, 1), ctx);
  buf.resize(len);
  // eCPRI starts after the 18-byte VLAN-tagged Ethernet header.
  buf[19] = 0x7f;  // eCPRI message type, right after the version byte
  ParseError err = ParseError::None;
  EXPECT_FALSE(parse_frame(buf, ctx, &err).has_value());
  EXPECT_EQ(err, ParseError::UnknownEcpriType);

  buf[18] = 0x40;  // bogus eCPRI version nibble
  err = ParseError::None;
  EXPECT_FALSE(parse_frame(buf, ctx, &err).has_value());
  EXPECT_EQ(err, ParseError::BadEcpriVersion);
}

TEST(Frame, SectionBeyondCarrierGridRejected) {
  FhContext ctx = ctx273();
  auto payload = compressed_payload(40, ctx.comp, 3);
  UPlaneMsg hdr;
  hdr.direction = Direction::Uplink;
  USectionData sec;
  sec.start_prb = 260;  // 260 + 40 > 273: off the carrier grid
  sec.num_prb = 40;
  sec.payload = payload;
  std::vector<std::uint8_t> buf(9216);
  const std::size_t len = build_uplane_frame(
      buf, EthHeader{}, EaxcId{}, 0, hdr, std::span(&sec, 1), ctx);
  ASSERT_GT(len, 0u);
  buf.resize(len);
  ParseError err = ParseError::None;
  EXPECT_FALSE(parse_frame(buf, ctx, &err).has_value());
  EXPECT_EQ(err, ParseError::BadSectionGeometry);
}

/// Property: a random bit flip either still parses or reports a typed
/// reason - never an untyped rejection, never a crash or overread.
TEST(Frame, ByteFlipFuzzAlwaysTypesRejections) {
  FhContext ctx = ctx273();
  auto payload = compressed_payload(10, ctx.comp, 5);
  UPlaneMsg hdr;
  USectionData sec;
  sec.num_prb = 10;
  sec.payload = payload;
  std::vector<std::uint8_t> buf(9216);
  const std::size_t len = build_uplane_frame(
      buf, EthHeader{}, EaxcId{}, 0, hdr, std::span(&sec, 1), ctx);
  buf.resize(len);
  std::mt19937 rng(7);
  int rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    auto copy = buf;
    copy[rng() % copy.size()] ^= std::uint8_t(1u << (rng() % 8));
    ParseError err = ParseError::None;
    auto r = parse_frame(copy, ctx, &err);
    if (!r.has_value()) {
      ++rejected;
      EXPECT_NE(err, ParseError::None);
      EXPECT_LT(std::size_t(err), std::size_t(ParseError::kCount));
    }
  }
  EXPECT_GT(rejected, 0);  // flips in length/type fields do get caught
}

TEST(Frame, MixedWidthSectionsRoundTripPerPacketCompHdr) {
  // ISSUE 6 satellite: a frame can carry sections at different BFP widths
  // (one link running controller-degraded width 7 next to a nominal-width
  // section). Each section's udCompHdr and payload sizing must follow its
  // own override, and the parser must recover both widths per section.
  FhContext ctx = ctx273();
  ASSERT_EQ(ctx.comp.iq_width, 9);
  CompConfig narrow;
  narrow.iq_width = 7;
  auto pay9 = compressed_payload(40, ctx.comp, 6);
  auto pay7 = compressed_payload(40, narrow, 7);
  ASSERT_LT(pay7.size(), pay9.size());

  UPlaneMsg hdr;
  hdr.direction = Direction::Uplink;
  hdr.at = {3, 1, 0, 4};
  std::vector<USectionData> secs(2);
  secs[0].section_id = 1;
  secs[0].start_prb = 0;
  secs[0].num_prb = 40;
  secs[0].payload = pay9;  // comp unset: context default (width 9)
  secs[1].section_id = 2;
  secs[1].start_prb = 40;
  secs[1].num_prb = 40;
  secs[1].payload = pay7;
  secs[1].comp = narrow;  // per-packet override (width 7)

  std::vector<std::uint8_t> buf(9216);
  std::vector<USection> placed;
  const std::size_t len = build_uplane_frame(buf, EthHeader{}, EaxcId{}, 0,
                                             hdr, secs, ctx, &placed);
  ASSERT_GT(len, 0u);
  buf.resize(len);
  ASSERT_EQ(placed.size(), 2u);
  EXPECT_EQ(placed[0].comp.iq_width, 9);
  EXPECT_EQ(placed[1].comp.iq_width, 7);

  auto frame = parse_frame(buf, ctx);
  ASSERT_TRUE(frame.has_value());
  const auto& u = frame->uplane();
  ASSERT_EQ(u.sections.size(), 2u);
  EXPECT_EQ(u.sections[0].comp.iq_width, 9);
  EXPECT_EQ(u.sections[1].comp.iq_width, 7);
  EXPECT_EQ(u.sections[0].payload_len, 40 * ctx.comp.prb_bytes());
  EXPECT_EQ(u.sections[1].payload_len, 40 * narrow.prb_bytes());
  auto view7 = std::span<const std::uint8_t>(buf).subspan(
      u.sections[1].payload_offset, u.sections[1].payload_len);
  EXPECT_TRUE(std::equal(view7.begin(), view7.end(), pay7.begin()));
}

TEST(Frame, MtuSplitHonorsPerSectionWidth) {
  // Fragmentation budgets must use each section's own width: a width-16
  // whole-carrier section overflows a jumbo frame and splits, while the
  // same PRB count at width 7 fits in one fragment.
  FhContext ctx = ctx273();
  CompConfig wide;
  wide.iq_width = 16;
  auto pay_wide = compressed_payload(273, wide, 8);
  USectionData sec;
  sec.num_prb = 273;
  sec.payload = pay_wide;
  sec.comp = wide;
  MtuSplit frags;
  split_sections_for_mtu(std::span(&sec, 1), ctx, frags);
  EXPECT_GT(frags.frames(), 1u);
  std::size_t total_prbs = 0;
  for (std::size_t f = 0; f < frags.frames(); ++f)
    for (const auto& s : frags.frame(f)) {
      EXPECT_TRUE(s.comp.has_value());
      EXPECT_EQ(s.comp->iq_width, 16);
      total_prbs += std::size_t(s.num_prb);
    }
  EXPECT_EQ(total_prbs, 273u);

  CompConfig narrow;
  narrow.iq_width = 7;
  auto pay_narrow = compressed_payload(273, narrow, 9);
  sec.payload = pay_narrow;
  sec.comp = narrow;
  split_sections_for_mtu(std::span(&sec, 1), ctx, frags);
  EXPECT_EQ(frags.frames(), 1u);
}

TEST(Frame, ByteFlipFuzzDoesNotCrash) {
  FhContext ctx = ctx273();
  auto payload = compressed_payload(10, ctx.comp, 5);
  UPlaneMsg hdr;
  USectionData sec;
  sec.num_prb = 10;
  sec.payload = payload;
  std::vector<std::uint8_t> buf(9216);
  const std::size_t len = build_uplane_frame(
      buf, EthHeader{}, EaxcId{}, 0, hdr, std::span(&sec, 1), ctx);
  buf.resize(len);
  std::mt19937 rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    auto copy = buf;
    copy[rng() % copy.size()] ^= std::uint8_t(1u << (rng() % 8));
    (void)parse_frame(copy, ctx);  // must not crash or overread
  }
}

}  // namespace
}  // namespace rb
