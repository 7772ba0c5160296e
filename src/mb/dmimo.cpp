#include "mb/dmimo.h"

#include <algorithm>
#include <sstream>

namespace rb {

DmimoMiddlebox::DmimoMiddlebox(DmimoConfig cfg) : cfg_(std::move(cfg)) {
  for (const auto& ru : cfg_.rus) {
    layer_base_.push_back(total_antennas_);
    total_antennas_ += ru.n_antennas;
  }
  last_ul_slot_.assign(cfg_.rus.size(), -1);
  ru_down_.assign(cfg_.rus.size(), false);
  forced_down_.assign(cfg_.rus.size(), false);
}

bool DmimoMiddlebox::set_ru_gated(std::size_t ru_index, bool gated) {
  if (ru_index >= forced_down_.size()) return false;
  if (forced_down_[ru_index] == gated) return true;
  if (gated) {
    std::size_t open = 0;
    for (std::size_t i = 0; i < forced_down_.size(); ++i)
      if (!forced_down_[i]) ++open;
    if (open <= 1) return false;  // keep one RU radiating
  }
  forced_down_[ru_index] = gated;
  return true;
}

void DmimoMiddlebox::on_slot(std::int64_t slot, MbContext& ctx) {
  (void)slot;
  if (cfg_.ru_quiet_slots <= 0) return;
  // An RU is down when its uplink has been quiet for the whole window
  // while some partner kept talking; the loudest partner is live by
  // construction, so service never collapses to zero RUs.
  std::int64_t max_seen = -1;
  for (std::int64_t v : last_ul_slot_) max_seen = std::max(max_seen, v);
  int live = 0;
  for (std::size_t i = 0; i < ru_down_.size(); ++i) {
    const std::int64_t seen = last_ul_slot_[i];
    const bool quiet =
        max_seen >= 0 && max_seen - (seen < 0 ? -1 : seen) >
                             std::int64_t(cfg_.ru_quiet_slots);
    if (quiet && !ru_down_[i]) {
      ru_down_[i] = true;
      ctx.telemetry().inc("dmimo_ru_fallbacks");
    } else if (!quiet && ru_down_[i]) {
      ru_down_[i] = false;
      ctx.telemetry().inc("dmimo_ru_recoveries");
    }
    if (!ru_down_[i] && !forced_down_[i]) ++live;
  }
  if (!gauges_ready_) {
    g_rus_live_ = ctx.telemetry().intern_gauge("dmimo_rus_live");
    gauges_ready_ = true;
  }
  ctx.telemetry().set_gauge(g_rus_live_, live);
}

DmimoMiddlebox::PortMap DmimoMiddlebox::map_layer(int cell_layer) const {
  for (std::size_t i = 0; i < cfg_.rus.size(); ++i) {
    const int base = layer_base_[i];
    if (cell_layer >= base && cell_layer < base + cfg_.rus[i].n_antennas)
      return {int(i), cell_layer - base};
  }
  return {};
}

bool DmimoMiddlebox::is_ssb_symbol(const SlotPoint& at) const {
  // SSB occasions repeat every period; our cells place them in the first
  // slot of the period (slot and subframe both 0 modulo the period).
  const int spsf = slots_per_subframe(Scs::kHz30);
  const std::int64_t abs_slot =
      (std::int64_t(at.frame) * 10 + at.subframe) * spsf + at.slot;
  if (abs_slot % cfg_.ssb_period_slots != 0) return false;
  return at.symbol >= cfg_.ssb_first_symbol &&
         at.symbol < cfg_.ssb_first_symbol + cfg_.ssb_n_symbols;
}

void DmimoMiddlebox::on_frame(int in_port, PacketPtr p, FhFrame& frame,
                              MbContext& ctx) {
  if (in_port == kNorth)
    downlink(std::move(p), frame, ctx);
  else
    uplink(std::move(p), frame, ctx);
}

void DmimoMiddlebox::downlink(PacketPtr p, FhFrame& frame, MbContext& ctx) {
  const FrameInfo& fi = ctx.frame_info();  // burst classify-table row
  const EaxcId eaxc = fi.eaxc;

  // PRACH control: replicate to every RU (down ones included - control
  // frames are the probe that lets a recovered RU answer again) so
  // whichever radio is nearest a joining UE captures its preamble.
  if (fi.prach) {
    for (std::size_t i = 0; i + 1 < cfg_.rus.size(); ++i) {
      PacketPtr copy = ctx.replicate(*p);
      if (copy) ctx.forward(std::move(copy), kSouth, cfg_.rus[i].mac);
    }
    if (!cfg_.rus.empty())
      ctx.forward(std::move(p), kSouth, cfg_.rus.back().mac);
    else
      ctx.drop(std::move(p));
    return;
  }

  const PortMap m = map_layer(eaxc.ru_port);
  if (m.ru_index < 0) {
    ctx.telemetry().inc("dmimo_unmapped_layer");
    ctx.drop(std::move(p));
    return;
  }
  // Fewer-RU fallback: the partner's uplink is quiet; stop shipping IQ
  // payloads to a radio that stopped serving - the surviving RUs carry
  // the cell. C-plane still goes through: uplink is C-plane driven, so
  // scheduling requests are exactly the probe that detects recovery.
  const bool is_up = !fi.cplane;
  if (ru_down(m.ru_index) && is_up) {
    ctx.telemetry().inc("dmimo_fallback_drops");
    ctx.drop(std::move(p));
    return;
  }

  // SSB copy: the primary antenna's U-plane carries the SSB; graft its
  // PRBs into the packet that becomes antenna 0 of every other RU.
  if (cfg_.copy_ssb && is_up && is_ssb_symbol(fi.at)) {
    const auto& u = frame.uplane();
    if (eaxc.ru_port == 0) {
      // Cache the primary antenna's SSB-symbol packet (A3).
      ctx.charge_cache_op();
      ctx.cache().put(PacketCache::key(u.at, eaxc, false, /*aux=*/0x3),
                      CachedPacket{ctx.replicate(*p), frame, kNorth});
    } else if (m.local_port == 0) {
      // This packet becomes some RU's antenna 0: graft the SSB window.
      // Both frames carry a section covering the SSB grid position (the
      // non-primary ports transport it zero-filled for this purpose).
      auto find_ssb_section = [this](const UPlaneMsg& msg) -> const USection* {
        for (const auto& s : msg.sections) {
          if (cfg_.ssb_start_prb >= s.start_prb &&
              cfg_.ssb_start_prb + cfg_.ssb_n_prb <= s.start_prb + s.num_prb)
            return &s;
        }
        return nullptr;
      };
      EaxcId primary{0, 0, 0, 0};
      const auto& cached = ctx.cache().peek(
          PacketCache::key(u.at, primary, false, /*aux=*/0x3));
      const USection* src_sec =
          (!cached.empty() && cached.front().pkt)
              ? find_ssb_section(cached.front().frame.uplane())
              : nullptr;
      const USection* dst_sec = find_ssb_section(u);
      if (src_sec && dst_sec) {
        ctx.copy_prbs(
            cached.front().pkt->bytes(src_sec->payload_offset,
                                      src_sec->payload_len),
            cfg_.ssb_start_prb - src_sec->start_prb,
            p->raw().subspan(dst_sec->payload_offset, dst_sec->payload_len),
            cfg_.ssb_start_prb - dst_sec->start_prb, cfg_.ssb_n_prb,
            dst_sec->comp);
        ctx.telemetry().inc("dmimo_ssb_copies");
      } else {
        ctx.telemetry().inc("dmimo_ssb_copy_misses");
      }
    }
  }

  // Remap the antenna port to the RU-local numbering (A4) and steer (A1).
  if (m.local_port != eaxc.ru_port) {
    EaxcId remapped = eaxc;
    remapped.ru_port = std::uint8_t(m.local_port);
    ctx.rewrite_eaxc(*p, remapped);
    ctx.telemetry().inc("dmimo_dl_remaps");
  }
  ctx.forward(std::move(p), kSouth, cfg_.rus[std::size_t(m.ru_index)].mac);
}

void DmimoMiddlebox::uplink(PacketPtr p, FhFrame& frame, MbContext& ctx) {
  // Identify the source RU and remap its local port to the cell layer.
  const int ru_index = ru_index_of(frame.eth.src);
  if (ru_index < 0) {
    ctx.telemetry().inc("dmimo_unknown_ru");
    ctx.drop(std::move(p));
    return;
  }
  last_ul_slot_[std::size_t(ru_index)] = ctx.slot();
  const EaxcId eaxc = frame.ecpri.eaxc;
  if (eaxc.du_port == 0) {
    const int cell_layer = layer_base_[std::size_t(ru_index)] + eaxc.ru_port;
    if (cell_layer != eaxc.ru_port) {
      EaxcId remapped = eaxc;
      remapped.ru_port = std::uint8_t(cell_layer);
      ctx.rewrite_eaxc(*p, remapped);
      ctx.telemetry().inc("dmimo_ul_remaps");
    }
  }
  // North, the group presents itself as one RU: its first RU's MAC.
  ctx.forward(std::move(p), kNorth, cfg_.du_mac, cfg_.rus.front().mac);
}

std::string DmimoMiddlebox::on_mgmt(const std::string& cmd) {
  std::istringstream is(cmd);
  std::string verb;
  is >> verb;
  if (verb == "layout") {
    std::ostringstream os;
    for (std::size_t i = 0; i < cfg_.rus.size(); ++i)
      os << "ru" << i << " " << cfg_.rus[i].mac.str() << " layers "
         << layer_base_[i] << ".."
         << layer_base_[i] + cfg_.rus[i].n_antennas - 1 << "\n";
    return os.str();
  }
  if (verb == "ssb-copy") {
    std::string v;
    is >> v;
    cfg_.copy_ssb = v == "on";
    return "ok";
  }
  if (verb == "liveness") {
    std::ostringstream os;
    for (std::size_t i = 0; i < cfg_.rus.size(); ++i)
      os << "ru" << i << " last_ul_slot=" << last_ul_slot_[i]
         << (ru_down_[i] ? " DOWN" : " up") << "\n";
    return os.str();
  }
  if (verb == "gate-ru") {
    std::size_t i = 0;
    std::string state;
    if (is >> i >> state && (state == "on" || state == "off"))
      return set_ru_gated(i, state == "off") ? "ok" : "refused";
    return "usage: gate-ru <index> on|off (on = participating)";
  }
  if (verb == "set-quiet-slots") {
    int v = 0;
    if (is >> v) {
      cfg_.ru_quiet_slots = v;
      return "ok";
    }
    return "usage: set-quiet-slots <slots>";
  }
  return "unknown command";
}


void DmimoMiddlebox::save_state(state::StateWriter& w) const {
  w.u32(std::uint32_t(last_ul_slot_.size()));
  for (std::int64_t s : last_ul_slot_) w.i64(s);
  for (bool d : ru_down_) w.b(d);
  for (bool f : forced_down_) w.b(f);
}

void DmimoMiddlebox::load_state(state::StateReader& r) {
  if (r.count(8) != last_ul_slot_.size()) {
    r.fail(state::StateError::kMismatch);
    return;
  }
  for (std::int64_t& s : last_ul_slot_) s = r.i64();
  for (std::size_t i = 0; i < ru_down_.size(); ++i) ru_down_[i] = r.b();
  for (std::size_t i = 0; i < forced_down_.size(); ++i)
    forced_down_[i] = r.b();
}

}  // namespace rb
