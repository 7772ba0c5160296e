#include "mb/rushare.h"

#include <algorithm>
#include <sstream>

#include "obs/obs.h"

namespace rb {
namespace {

/// Cache-key aux discriminators.
constexpr std::uint8_t kAuxCplaneDl = 0;
constexpr std::uint8_t kAuxCplaneUl = 1;
constexpr std::uint8_t kAuxUplaneDl = 2;
constexpr std::uint8_t kAuxPrach = 3;

}  // namespace

int RuShareMiddlebox::distinct_dus(const std::vector<CachedPacket>& entries) {
  std::uint32_t mask = 0;
  for (const auto& e : entries) mask |= 1u << e.in_port;
  int n = 0;
  for (std::uint32_t m = mask; m; m &= m - 1) ++n;
  return n;
}

namespace {

/// Bitmask of slot symbols a C-plane message schedules.
std::uint16_t cplane_symbol_mask(const CPlaneMsg& c) {
  std::uint16_t mask = 0;
  int n_sym = 1;
  for (const auto& s : c.sections) n_sym = std::max(n_sym, int(s.num_symbol));
  for (int s = 0; s < n_sym && c.at.symbol + s < 16; ++s)
    mask = std::uint16_t(mask | (1u << (c.at.symbol + s)));
  return mask;
}

/// DUs (bitmask over in_port) whose cached C-plane covers `symbol`.
std::uint32_t requesters_for_symbol(const std::vector<CachedPacket>& cplanes,
                                    int symbol) {
  std::uint32_t dus = 0;
  for (const auto& e : cplanes) {
    if (cplane_symbol_mask(e.frame.cplane()) & (1u << symbol))
      dus |= 1u << e.in_port;
  }
  return dus;
}

int popcount32(std::uint32_t m) {
  int n = 0;
  for (; m; m &= m - 1) ++n;
  return n;
}

/// Every section must address PRBs inside `grid`. C-plane num_prb == 0
/// means "whole carrier" (the widening encoding); a zero-PRB U-plane
/// section carries no IQ and is garbage.
bool sections_fit(const FhFrame& frame, int grid) {
  if (frame.is_cplane()) {
    for (const auto& s : frame.cplane().sections) {
      if (s.start_prb >= grid) return false;
      if (s.num_prb != 0 && s.start_prb + s.num_prb > grid) return false;
    }
    return true;
  }
  if (frame.is_uplane()) {
    for (const auto& s : frame.uplane().sections) {
      if (s.num_prb == 0 || s.start_prb + s.num_prb > grid) return false;
    }
    return true;
  }
  return false;
}

}  // namespace

bool RuShareMiddlebox::quarantine(int in_port, const FhFrame& frame,
                                  MbContext& ctx) const {
  // A corrupted frame can still parse cleanly; in a multi-operator box it
  // must never leak into another tenant's slice. Two semantic gates: the
  // source MAC must belong to the port's owner, and every section must stay
  // inside the owner's PRB grid.
  if (in_port == kSouth) {
    if (std::find(cfg_.ru_macs.begin(), cfg_.ru_macs.end(), frame.eth.src) ==
        cfg_.ru_macs.end()) {
      ctx.telemetry().inc("rushare_quarantine_src_mac");
      return true;
    }
    if (!sections_fit(frame, cfg_.ru_n_prb)) {
      ctx.telemetry().inc("rushare_quarantine_geometry");
      return true;
    }
    return false;
  }
  const int du = in_port - 1;
  if (du < 0 || du >= int(cfg_.dus.size())) return false;  // dropped anyway
  const auto& ducfg = cfg_.dus[std::size_t(du)];
  if (frame.eth.src != ducfg.mac) {
    ctx.telemetry().inc("rushare_quarantine_src_mac");
    return true;
  }
  // PRACH (type-3) sections address the RU grid after freq translation and
  // are matched by id, not PRB range; only validate type-1 and U-plane.
  const bool prach =
      frame.is_cplane() && frame.cplane().section_type == SectionType::Type3;
  if (!prach && !sections_fit(frame, ducfg.n_prb)) {
    ctx.telemetry().inc("rushare_quarantine_geometry");
    return true;
  }
  return false;
}

bool RuShareMiddlebox::copy_slice(MbContext& ctx,
                                  std::span<const std::uint8_t> src,
                                  int src_prb, std::span<std::uint8_t> dst,
                                  int dst_prb, int n_prb,
                                  const CompConfig& comp) {
  if (cfg_.shift_sc == 0)
    return ctx.copy_prbs(src, src_prb, dst, dst_prb, n_prb, comp);
  return ctx.copy_prbs_misaligned(src, src_prb, dst, dst_prb, n_prb,
                                  cfg_.shift_sc, comp);
}

void RuShareMiddlebox::on_frame(int in_port, PacketPtr p, FhFrame& frame,
                                MbContext& ctx) {
  // Branch on the burst classify-table row: plane/PRACH/type-3 facts were
  // computed once in the parse pass instead of re-probing the variant.
  const FrameInfo& fi = ctx.frame_info();
  const bool cplane = fi.cplane;
  const bool prach = fi.prach;
  const bool type3 = fi.type3;
  if (quarantine(in_port, frame, ctx)) {
    ctx.drop(std::move(p));
    return;
  }
  if (in_port == kSouth) {
    if (cplane) {
      ctx.drop(std::move(p));  // the RU never originates C-plane
      return;
    }
    if (prach)
      ru_prach_uplane(std::move(p), frame, ctx);
    else
      ru_uplane(std::move(p), frame, ctx);
    return;
  }
  const int du = in_port - 1;
  if (du < 0 || du >= int(cfg_.dus.size())) {
    ctx.drop(std::move(p));
    return;
  }
  if (cplane) {
    if (type3)
      du_prach_cplane(du, std::move(p), frame, ctx);
    else
      du_cplane(du, std::move(p), frame, ctx);
  } else {
    du_uplane(du, std::move(p), frame, ctx);
  }
}

void RuShareMiddlebox::du_cplane(int du, PacketPtr p, FhFrame& frame,
                                 MbContext& ctx) {
  const auto& c = frame.cplane();
  const std::uint8_t aux =
      c.direction == Direction::Downlink ? kAuxCplaneDl : kAuxCplaneUl;
  const std::uint64_t k =
      PacketCache::slot_key(c.at, frame.ecpri.eaxc, true, aux);
  // Algorithm 2 line 4: only the first request per symbol range goes to
  // the RU (widened); later requests for already-covered symbols are
  // absorbed. A request covering new symbols (e.g. one DU's data slot vs
  // another's SSB-only slot) is forwarded for those symbols.
  std::uint16_t covered = 0;
  for (const auto& e : ctx.cache().peek(k))
    covered |= cplane_symbol_mask(e.frame.cplane());
  const bool first = (cplane_symbol_mask(c) & ~covered) != 0;

  if (first) {
    // Algorithm 2 line 4-6: widen the request to the RU's whole spectrum
    // so any later DU's PRBs are already covered, and steer it to the RU.
    CPlaneMsg widened = c;
    for (auto& s : widened.sections) {
      s.start_prb = 0;
      s.num_prb = std::uint16_t(cfg_.ru_n_prb > 255 ? 0 : cfg_.ru_n_prb);
    }
    PacketPtr out = ctx.alloc_packet();
    if (out) {
      EthHeader eth = frame.eth;
      eth.dst = cfg_.ru_macs.front();
      const std::size_t len =
          build_cplane_frame(out->raw(), eth, frame.ecpri.eaxc,
                             frame.ecpri.seq_id, widened, ctx.fh());
      if (len > 0) {
        out->set_len(len);
        out->rx_time_ns = p->rx_time_ns;
        ctx.charge(64.0 * widened.sections.size());  // header rewrite work
        ctx.forward(std::move(out), kSouth);
        ctx.telemetry().inc("rushare_cplane_widened");
      }
    }
  }
  // Cache every C-plane (Algorithm 2 line 2) to remember who requested.
  ctx.charge_cache_op();
  ctx.cache().put(k, CachedPacket{std::move(p), frame, du});
}

void RuShareMiddlebox::du_uplane(int du, PacketPtr p, FhFrame& frame,
                                 MbContext& ctx) {
  const auto& u = frame.uplane();
  if (u.direction != Direction::Downlink || u.sections.empty()) {
    ctx.drop(std::move(p));
    return;
  }
  const std::uint64_t uk =
      PacketCache::key(u.at, frame.ecpri.eaxc, false, kAuxUplaneDl);
  ctx.charge_cache_op();
  ctx.cache().put(uk, CachedPacket{std::move(p), frame, du});

  // DUs whose C-plane schedules *this symbol* (Algorithm 2 line 9); mux
  // fires once they all delivered their U-plane for it.
  const std::uint64_t ck =
      PacketCache::slot_key(u.at, frame.ecpri.eaxc, true, kAuxCplaneDl);
  const std::uint32_t requesters =
      requesters_for_symbol(ctx.cache().peek(ck), u.at.symbol);
  auto* entries = ctx.cache().find(uk);
  if (!entries || requesters == 0 ||
      distinct_dus(*entries) < popcount32(requesters))
    return;

  // Mux: every DU's sections, remapped into the RU grid at its slice
  // offset. Section geometry is preserved so the RU radiates exactly the
  // scheduled PRBs.
  auto batch = ctx.cache().take(uk);
  ctx.charge_cache_op();
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<USectionData> out_secs;
  bool ok = true;
  for (auto& e : batch) {
    const auto& ducfg = cfg_.dus[std::size_t(e.in_port)];
    for (const auto& sec : e.frame.uplane().sections) {
      const std::size_t prb_sz = sec.comp.prb_bytes();
      payloads.emplace_back(
          std::size_t(sec.num_prb + (cfg_.shift_sc ? 1 : 0)) * prb_sz, 0);
      auto& buf = payloads.back();
      ok = ok && copy_slice(ctx,
                            e.pkt->bytes(sec.payload_offset, sec.payload_len),
                            0, buf, 0, sec.num_prb, sec.comp);
      if (!ok) break;
      USectionData os;
      os.section_id = std::uint16_t((e.in_port << 8) | sec.section_id);
      os.start_prb =
          std::uint16_t(ducfg.prb_offset + sec.start_prb);
      os.num_prb = sec.num_prb + (cfg_.shift_sc ? 1 : 0);
      os.payload = buf;
      // The slice keeps the DU's own compression (which may have been
      // adapted away from the south port's default); without the override
      // encode_uplane would size the copy at the egress width.
      os.comp = sec.comp;
      out_secs.push_back(os);
    }
    if (!ok) break;
  }
  if (!ok || out_secs.empty()) {
    ctx.telemetry().inc("rushare_mux_failures");
    for (auto& e : batch) ctx.drop(std::move(e.pkt));
    return;
  }
  UPlaneMsg hdr;
  hdr.direction = Direction::Downlink;
  hdr.at = batch.front().frame.uplane().at;
  PacketPtr out = ctx.alloc_packet();
  if (!out) {
    for (auto& e : batch) ctx.drop(std::move(e.pkt));
    return;
  }
  EthHeader eth = batch.front().frame.eth;
  eth.dst = cfg_.ru_macs.front();
  const std::size_t len = build_uplane_frame(
      out->raw(), eth, batch.front().frame.ecpri.eaxc,
      batch.front().frame.ecpri.seq_id, hdr,
      std::span(out_secs.data(), out_secs.size()), ctx.fh());
  if (len == 0) {
    ctx.telemetry().inc("rushare_mux_failures");
  } else {
    out->set_len(len);
    out->rx_time_ns = batch.front().pkt->rx_time_ns;
    ctx.forward(std::move(out), kSouth);
    ctx.telemetry().inc("rushare_dl_muxed");
  }
  for (auto& e : batch) ctx.drop(std::move(e.pkt));  // Algorithm 2 line 15
}

void RuShareMiddlebox::ru_uplane(PacketPtr p, FhFrame& frame, MbContext& ctx) {
  const auto& u = frame.uplane();
  if (u.sections.empty()) {
    ctx.drop(std::move(p));
    return;
  }
  const auto& sec = u.sections[0];
  // Demultiplex per requesting DU (Algorithm 2 lines 16-23).
  const std::uint64_t ck =
      PacketCache::slot_key(u.at, frame.ecpri.eaxc, true, kAuxCplaneUl);
  const auto& requests = ctx.cache().peek(ck);
  if (requests.empty()) {
    ctx.telemetry().inc("rushare_ul_orphans");
    ctx.drop(std::move(p));
    return;
  }
  std::uint32_t served = 0;
  for (const auto& req : requests) {
    if (served & (1u << req.in_port)) continue;
    served |= 1u << req.in_port;
    const auto& ducfg = cfg_.dus[std::size_t(req.in_port)];
    // The RU answered with its whole grid; carve this DU's slice.
    if (ducfg.prb_offset < sec.start_prb ||
        ducfg.prb_offset + ducfg.n_prb > sec.start_prb + sec.num_prb) {
      ctx.telemetry().inc("rushare_ul_slice_oob");
      continue;
    }
    const CompConfig comp = sec.comp;
    const std::size_t prb_sz = comp.prb_bytes();
    std::vector<std::uint8_t> payload(std::size_t(ducfg.n_prb) * prb_sz);
    if (!copy_slice(ctx,
                    p->bytes(sec.payload_offset, sec.payload_len),
                    ducfg.prb_offset - sec.start_prb, payload, 0, ducfg.n_prb,
                    comp)) {
      ctx.telemetry().inc("rushare_demux_failures");
      continue;
    }
    UPlaneMsg hdr;
    hdr.direction = Direction::Uplink;
    hdr.at = u.at;
    USectionData out_sec;
    out_sec.section_id = 0;
    out_sec.start_prb = 0;
    out_sec.num_prb = ducfg.n_prb;
    out_sec.payload = payload;
    // Demuxed bytes stay in the RU's compression; the north port may be
    // running a different adapted width.
    out_sec.comp = comp;
    PacketPtr out = ctx.alloc_packet();
    if (!out) continue;
    EthHeader eth = frame.eth;
    eth.dst = ducfg.mac;
    const std::size_t len = build_uplane_frame(
        out->raw(), eth, frame.ecpri.eaxc, frame.ecpri.seq_id, hdr,
        std::span(&out_sec, 1), ctx.fh(north_port(req.in_port)));
    if (len == 0) continue;
    out->set_len(len);
    out->rx_time_ns = p->rx_time_ns;
    ctx.forward(std::move(out), north_port(req.in_port));
    ctx.telemetry().inc("rushare_ul_demuxed");
  }
  ctx.drop(std::move(p));
}

void RuShareMiddlebox::du_prach_cplane(int du, PacketPtr p, FhFrame& frame,
                                       MbContext& ctx) {
  const auto& c = frame.cplane();
  const std::uint64_t k =
      PacketCache::slot_key(c.at, frame.ecpri.eaxc, true, kAuxPrach);
  ctx.charge_cache_op();
  ctx.cache().put(k, CachedPacket{std::move(p), frame, du});
  auto* entries = ctx.cache().find(k);
  if (!entries || distinct_dus(*entries) < int(cfg_.dus.size())) return;

  // Algorithm 3: append every DU's sections into one type-3 message with
  // the freqOffset translated into the RU grid and section id == DU id.
  static const std::uint16_t kSpanName =
      obs::Collector::instance().intern_name("rushare.mux");
  const double c0 = ctx.cost_ns();
  CPlaneMsg combined = entries->front().frame.cplane();
  combined.sections.clear();
  std::uint32_t done = 0;
  for (const auto& e : *entries) {
    if (done & (1u << e.in_port)) continue;
    done |= 1u << e.in_port;
    const auto& ducfg = cfg_.dus[std::size_t(e.in_port)];
    for (CSection s : e.frame.cplane().sections) {
      s.section_id = ducfg.du_id;
      s.freq_offset = translate_freq_offset(
          s.freq_offset, ducfg.center_freq, cfg_.ru_center_freq, cfg_.scs);
      combined.sections.push_back(s);
    }
  }
  PacketPtr out = ctx.alloc_packet();
  if (!out) return;
  EthHeader eth = entries->front().frame.eth;
  eth.dst = cfg_.ru_macs.front();
  const std::size_t len = build_cplane_frame(
      out->raw(), eth, entries->front().frame.ecpri.eaxc,
      entries->front().frame.ecpri.seq_id, combined, ctx.fh());
  if (len == 0) return;
  out->set_len(len);
  out->rx_time_ns = entries->front().pkt->rx_time_ns;
  ctx.charge(64.0 * combined.sections.size());
  ctx.forward(std::move(out), kSouth);
  ctx.trace_span(kSpanName, c0, combined.sections.size());
  ctx.telemetry().inc("rushare_prach_combined");
}

void RuShareMiddlebox::ru_prach_uplane(PacketPtr p, FhFrame& frame,
                                       MbContext& ctx) {
  const auto& u = frame.uplane();
  // Demultiplex sections to their DUs by section id (Algorithm 3).
  for (const auto& sec : u.sections) {
    const ShareDu* target = nullptr;
    for (const auto& d : cfg_.dus)
      if (d.du_id == sec.section_id) target = &d;
    if (!target) {
      ctx.telemetry().inc("rushare_prach_unknown_section");
      continue;
    }
    const std::size_t prb_sz = sec.comp.prb_bytes();
    std::vector<std::uint8_t> payload(std::size_t(sec.num_prb) * prb_sz);
    if (!ctx.copy_prbs(p->bytes(sec.payload_offset, sec.payload_len),
                       0, payload, 0, sec.num_prb, sec.comp))
      continue;
    UPlaneMsg hdr;
    hdr.direction = Direction::Uplink;
    hdr.filter_index = 1;
    hdr.at = u.at;
    USectionData out_sec;
    out_sec.section_id = sec.section_id;
    out_sec.start_prb = sec.start_prb;
    out_sec.num_prb = sec.num_prb;
    out_sec.payload = payload;
    PacketPtr out = ctx.alloc_packet();
    if (!out) continue;
    EthHeader eth = frame.eth;
    eth.dst = target->mac;
    const int du_index = int(target - cfg_.dus.data());
    const std::size_t len = build_uplane_frame(
        out->raw(), eth, frame.ecpri.eaxc, frame.ecpri.seq_id, hdr,
        std::span(&out_sec, 1), ctx.fh(north_port(du_index)));
    if (len == 0) continue;
    out->set_len(len);
    out->rx_time_ns = p->rx_time_ns;
    ctx.forward(std::move(out), north_port(du_index));
    ctx.telemetry().inc("rushare_prach_demuxed");
  }
  ctx.drop(std::move(p));
}

std::string RuShareMiddlebox::on_mgmt(const std::string& cmd) {
  std::istringstream is(cmd);
  std::string verb;
  is >> verb;
  if (verb == "tenants") {
    std::ostringstream os;
    for (const auto& d : cfg_.dus)
      os << "du" << int(d.du_id) << " " << d.mac.str() << " offset "
         << d.prb_offset << " prbs " << d.n_prb << "\n";
    return os.str();
  }
  return "unknown command";
}

}  // namespace rb
