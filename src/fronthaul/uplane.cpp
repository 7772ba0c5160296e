#include "fronthaul/uplane.h"

#include <algorithm>

namespace rb {

bool encode_uplane(BufWriter& w, const UPlaneMsg& hdr,
                   std::span<const USectionData> sections,
                   const FhContext& ctx, std::size_t base_offset,
                   std::vector<USection>* out_sections) {
  w.u8(std::uint8_t((std::uint8_t(hdr.direction) << 7) |
                    ((hdr.payload_version & 0x7) << 4) |
                    (hdr.filter_index & 0xf)));
  w.u8(hdr.at.frame);
  w.u16(std::uint16_t(((hdr.at.subframe & 0xf) << 12) |
                      ((hdr.at.slot & 0x3f) << 6) | (hdr.at.symbol & 0x3f)));
  for (const auto& s : sections) {
    const CompConfig& comp = s.effective_comp(ctx);
    const std::size_t prb_sz = comp.prb_bytes();
    // numPrbu is 8 bits: 0 is the "whole carrier" shorthand; a section
    // covering 256..(carrier-1) PRBs cannot be expressed and must be
    // split into <=255-PRB chunks, exactly as real stacks fragment.
    int emitted = 0;
    while (emitted < s.num_prb) {
      const bool whole = emitted == 0 && s.num_prb == ctx.carrier_prbs;
      const int chunk = whole ? s.num_prb
                              : std::min(255, s.num_prb - emitted);
      std::uint32_t w24 = (std::uint32_t(s.section_id & 0xfff) << 12) |
                          ((s.start_prb + emitted) & 0x3ff);
      w.u24(w24);
      w.u8(std::uint8_t(whole ? 0 : chunk));
      if (ctx.uplane_has_comp_hdr) {
        w.u8(comp.ud_comp_hdr());
        w.u8(0);  // reserved (udCompLen not used for BFP)
      }
      std::size_t payload_at = base_offset + w.written();
      auto chunk_payload =
          s.payload.subspan(std::size_t(emitted) * prb_sz,
                            std::size_t(chunk) * prb_sz);
      w.bytes(chunk_payload);
      if (out_sections) {
        USection v;
        v.section_id = s.section_id;
        v.start_prb = std::uint16_t(s.start_prb + emitted);
        v.num_prb = chunk;
        v.comp = comp;
        v.payload_offset = payload_at;
        v.payload_len = chunk_payload.size();
        out_sections->push_back(v);
      }
      emitted += chunk;
    }
  }
  return w.ok();
}

void split_sections_for_mtu(std::span<const USectionData> sections,
                            const FhContext& ctx, MtuSplit& out,
                            std::size_t max_frame_bytes) {
  const std::size_t sec_hdr = 4u + (ctx.uplane_has_comp_hdr ? 2u : 0u);
  out.parts.clear();
  out.ends.clear();
  std::size_t used = 0;
  auto emit = [&](const USectionData& s) {
    const std::size_t need = sec_hdr + s.payload.size();
    if (used > 0 && used + need > max_frame_bytes) {
      out.ends.push_back(out.parts.size());
      used = 0;
    }
    out.parts.push_back(s);
    used += need;
  };
  for (const auto& s : sections) {
    const std::size_t prb_sz = s.effective_comp(ctx).prb_bytes();
    const std::size_t whole = sec_hdr + s.payload.size();
    if (whole <= max_frame_bytes) {
      emit(s);
      continue;
    }
    // Split an oversize section by PRBs.
    const int per_chunk =
        std::max<int>(1, int((max_frame_bytes - sec_hdr) / prb_sz));
    for (int off = 0; off < s.num_prb; off += per_chunk) {
      const int n = std::min(per_chunk, s.num_prb - off);
      USectionData part = s;
      part.start_prb = std::uint16_t(s.start_prb + off);
      part.num_prb = n;
      part.payload = s.payload.subspan(std::size_t(off) * prb_sz,
                                       std::size_t(n) * prb_sz);
      emit(part);
    }
  }
  if (!out.parts.empty()) out.ends.push_back(out.parts.size());
}

std::optional<UPlaneMsg> parse_uplane(BufReader& r, const FhContext& ctx,
                                      std::size_t base_offset,
                                      ParseError* err) {
  UPlaneMsg m;
  if (!parse_uplane_into(r, ctx, base_offset, m, err)) return std::nullopt;
  return m;
}

bool parse_uplane_into(BufReader& r, const FhContext& ctx,
                       std::size_t base_offset, UPlaneMsg& m,
                       ParseError* err) {
  const auto fail = [&](ParseError e) {
    if (err) *err = e;
    return false;
  };
  // `m` may be a reused message: every header field is assigned below.
  m.sections.clear();
  std::uint8_t b0 = r.u8();
  m.direction = (b0 & 0x80) ? Direction::Downlink : Direction::Uplink;
  m.payload_version = std::uint8_t((b0 >> 4) & 0x7);
  m.filter_index = std::uint8_t(b0 & 0xf);
  m.at.frame = r.u8();
  std::uint16_t ssf = r.u16();
  m.at.subframe = std::uint8_t((ssf >> 12) & 0xf);
  m.at.slot = std::uint8_t((ssf >> 6) & 0x3f);
  m.at.symbol = std::uint8_t(ssf & 0x3f);
  if (!r.ok()) return fail(ParseError::TruncatedUplane);

  // A corrupt startPrbu/numPrbu can claim a PRB range no real grid has;
  // cap at the widest FR1 carrier (273 PRBs) or the context's own grid,
  // whichever is larger, so honest frames always pass.
  const int max_prbs = std::max(ctx.carrier_prbs, 273);

  // Sections run to the end of the eCPRI payload.
  while (r.remaining() > 0) {
    USection s;
    std::uint32_t w24 = r.u24();
    s.section_id = std::uint16_t((w24 >> 12) & 0xfff);
    s.rb = (w24 >> 11) & 1;
    s.sym_inc = (w24 >> 10) & 1;
    s.start_prb = std::uint16_t(w24 & 0x3ff);
    std::uint8_t np = r.u8();
    s.num_prb = np == 0 ? ctx.carrier_prbs : np;
    s.comp = ctx.comp;
    if (ctx.uplane_has_comp_hdr) {
      s.comp = CompConfig::from_ud_comp_hdr(r.u8());
      r.skip(1);
    }
    if (!r.ok()) return fail(ParseError::TruncatedUSection);
    if (s.start_prb + s.num_prb > max_prbs)
      return fail(ParseError::BadSectionGeometry);
    s.payload_len = std::size_t(s.num_prb) * s.comp.prb_bytes();
    s.payload_offset = base_offset + r.pos();
    if (r.remaining() < s.payload_len)
      return fail(ParseError::TruncatedUSection);
    r.skip(s.payload_len);
    m.sections.push_back(s);
  }
  return true;
}

}  // namespace rb
