#include "ran/du.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "iq/prb.h"

namespace rb {
namespace {

/// Deterministic uniform IQ fill at a target RMS (int16 scale).
void fill_uniform(IqSpan out, double rms, std::uint32_t& state) {
  const double peak = rms * 1.732;  // uniform distribution peak
  const std::int32_t a = std::int32_t(peak);
  for (auto& s : out) {
    state = state * 1664525u + 1013904223u;
    s.i = sat16(std::int32_t(state >> 16) % (2 * a + 1) - a);
    state = state * 1664525u + 1013904223u;
    s.q = sat16(std::int32_t(state >> 16) % (2 * a + 1) - a);
  }
}

}  // namespace

DuModel::DuModel(DuConfig cfg, AirModel& air, CellId cell_id, Port& port,
                 PacketPool& pool)
    : cfg_(std::move(cfg)),
      air_(&air),
      cell_id_(cell_id),
      port_(&port),
      pool_(&pool),
      sched_(cfg_.cell.n_prb(),
             SchedulerParams{.efficiency = cfg_.vendor.efficiency}) {
  fh_.comp = CompConfig{CompMethod::BlockFloatingPoint, cfg_.vendor.iq_width};
  fh_.carrier_prbs = cfg_.cell.n_prb();
  fh_.uplane_has_comp_hdr = cfg_.vendor.uplane_has_comp_hdr;
  fh_.vlan_id = cfg_.vendor.vlan_id;
  n_prb_ = cfg_.cell.n_prb();
  n_ports_ = cfg_.cell.max_layers;

  // Precompute compressed PRB prototypes.
  const std::size_t prb_sz = fh_.comp.prb_bytes();
  zero_prb_.assign(prb_sz, 0);  // BFP of all-zeros is all-zero bytes
  std::uint32_t rng = 0xC0FFEEu + std::uint32_t(cfg_.du_id);
  for (int v = 0; v < 8; ++v) {
    PrbSamples samples{};
    fill_uniform(IqSpan(samples.data(), samples.size()), AirModel::kDlTxRms,
                 rng);
    std::vector<std::uint8_t> bytes(prb_sz);
    auto r = bfp_compress_prb(IqConstSpan(samples.data(), samples.size()),
                              fh_.comp.iq_width, bytes);
    (void)r;
    signal_prbs_.push_back(std::move(bytes));
  }
  data_sections_.resize(std::size_t(n_ports_));
  ssb_sections_.resize(std::size_t(n_ports_));
  data_frames_.resize(std::size_t(n_ports_));
  ssb_frames_.resize(std::size_t(n_ports_));
}

EthHeader DuModel::eth_to_ru() const {
  EthHeader eth;
  eth.dst = cfg_.ru_mac;
  eth.src = cfg_.du_mac;
  eth.has_vlan = true;
  eth.vlan_id = fh_.vlan_id;
  eth.pcp = 7;  // fronthaul rides the highest priority class
  return eth;
}

std::uint8_t DuModel::next_seq(const EaxcId& eaxc) {
  return seq_[eaxc.packed()]++;
}

void DuModel::send_frame(std::size_t len, PacketPtr p,
                         std::int64_t emit_time_ns) {
  if (len == 0) {
    ++stats_.parse_errors;
    return;
  }
  p->set_len(len);
  p->rx_time_ns = emit_time_ns;
  port_->send(std::move(p));
}

void DuModel::build_sections(std::int64_t slot) {
  const std::size_t prb_sz = fh_.comp.prb_bytes();
  payload_store_.clear();
  has_dl_sections_ = false;
  const bool ssb_slot = slot % cfg_.cell.ssb.period_slots == 0;

  // Payload filler: `hot` sections carry signal-level IQ, idle ones zeros.
  auto make_payload = [&](int start_prb, int n_prb, bool hot) {
    payload_store_.emplace_back(std::size_t(n_prb) * prb_sz, 0);
    auto& buf = payload_store_.back();
    if (hot) {
      for (int k = 0; k < n_prb; ++k) {
        const auto& proto = signal_prbs_[std::size_t(
            (start_prb + k + slot) % std::int64_t(signal_prbs_.size()))];
        std::copy(proto.begin(), proto.end(),
                  buf.begin() + std::ptrdiff_t(k) * std::ptrdiff_t(prb_sz));
      }
    }
    return std::span<const std::uint8_t>(buf);
  };

  // Pre-reserve so payload spans stay stable.
  payload_store_.reserve((dl_allocs_.size() + 1) * std::size_t(n_ports_) + 4);

  for (int port = 0; port < n_ports_; ++port) {
    auto& data = data_sections_[std::size_t(port)];
    auto& ssbv = ssb_sections_[std::size_t(port)];
    data.clear();
    ssbv.clear();
    std::uint16_t sid = 0;
    for (const auto& al : dl_allocs_) {
      // Cat-A precoding spreads every transmission across all antenna
      // ports regardless of its rank (the DU's precoder maps L layers
      // onto the full port set), so each port carries every allocation.
      USectionData s;
      s.section_id = sid++;
      s.start_prb = std::uint16_t(al.start_prb);
      s.num_prb = al.n_prb;
      s.payload = make_payload(al.start_prb, al.n_prb, true);
      data.push_back(s);
      has_dl_sections_ = true;
    }
    ssbv = data;
    if (ssb_slot) {
      // SSB window: real signal on the primary antenna, zeros on the
      // others (the grid position is still transported so a dMIMO
      // middlebox can graft the SSB into them).
      const auto& ssb = cfg_.cell.ssb;
      USectionData s;
      s.section_id = 0x7ff;
      s.start_prb = std::uint16_t(ssb.start_prb);
      s.num_prb = ssb.n_prb;
      s.payload = make_payload(ssb.start_prb, ssb.n_prb, port == 0);
      ssbv.push_back(s);
      has_dl_sections_ = true;
    }
  }
}

void DuModel::emit_cplane_dl(std::int64_t slot, const SlotPoint& at,
                             std::int64_t slot_start_ns) {
  const int n_sym = cfg_.vendor.tdd.dl_symbols(slot);
  if (n_sym <= 0 || !has_dl_sections_) return;
  // Symbol coverage: with data the whole DL region is scheduled; an
  // SSB-only slot schedules just the SSB symbol window. Downstream
  // middleboxes key their per-symbol mux decisions on this (Algorithm 2).
  const bool ssb_only = dl_allocs_.empty();
  const std::uint8_t first_sym =
      ssb_only ? std::uint8_t(cfg_.cell.ssb.first_symbol) : 0;
  const std::uint8_t cover_syms =
      ssb_only ? std::uint8_t(cfg_.cell.ssb.n_symbols) : std::uint8_t(n_sym);
  for (int port = 0; port < n_ports_; ++port) {
    EaxcId eaxc{0, 0, 0, std::uint8_t(port)};
    auto emit_one = [&](std::uint8_t start_sym, std::uint8_t num_sym) {
      CPlaneMsg msg;
      msg.direction = Direction::Downlink;
      msg.at = at;
      msg.at.symbol = start_sym;
      msg.section_type = SectionType::Type1;
      msg.comp = fh_.comp;
      CSection s;
      s.section_id = 0;
      s.start_prb = 0;
      s.num_prb = std::uint16_t(n_prb_ > 255 ? 0 : n_prb_);
      s.num_symbol = num_sym;
      msg.sections.push_back(s);
      PacketPtr p = pool_->alloc();
      if (!p) {
        ++stats_.pool_exhausted;
        return;
      }
      const std::size_t len = build_cplane_frame(
          p->raw(), eth_to_ru(), eaxc, next_seq(eaxc), msg, fh_);
      send_frame(len, std::move(p), slot_start_ns - kCplaneAdvanceNs);
      ++stats_.cplane_tx;
    };
    if (cfg_.vendor.cplane_per_symbol) {
      for (int s = 0; s < cover_syms; ++s)
        emit_one(std::uint8_t(first_sym + s), 1);
    } else {
      emit_one(first_sym, cover_syms);
    }
  }
}

void DuModel::emit_cplane_ul(std::int64_t slot, const SlotPoint& at,
                             std::int64_t slot_start_ns) {
  const int n_sym = cfg_.vendor.tdd.ul_symbols(slot);
  if (n_sym <= 0) return;
  for (int port = 0; port < n_ports_; ++port) {
    EaxcId eaxc{0, 0, 0, std::uint8_t(port)};
    CPlaneMsg msg;
    msg.direction = Direction::Uplink;
    msg.at = at;
    // UL symbols sit at the end of the slot (S-slot DL/guard/UL split).
    msg.at.symbol = std::uint8_t(kSymbolsPerSlot - n_sym);
    msg.section_type = SectionType::Type1;
    msg.comp = fh_.comp;
    CSection s;
    s.section_id = 0;
    s.start_prb = 0;
    s.num_prb = std::uint16_t(n_prb_ > 255 ? 0 : n_prb_);
    s.num_symbol = std::uint8_t(n_sym);
    msg.sections.push_back(s);
    PacketPtr p = pool_->alloc();
    if (!p) {
      ++stats_.pool_exhausted;
      return;
    }
    const std::size_t len = build_cplane_frame(p->raw(), eth_to_ru(), eaxc,
                                               next_seq(eaxc), msg, fh_);
    send_frame(len, std::move(p), slot_start_ns - kCplaneAdvanceNs);
    ++stats_.cplane_tx;
  }
}

void DuModel::emit_prach_cplane(std::int64_t slot, const SlotPoint& at,
                                std::int64_t slot_start_ns) {
  const auto& prach = cfg_.cell.prach;
  if (prach.period_slots <= 0 || slot % prach.period_slots != prach.slot_offset)
    return;
  EaxcId eaxc{1, 0, 0, 0};  // PRACH stream
  CPlaneMsg msg;
  msg.direction = Direction::Uplink;
  msg.filter_index = 1;  // PRACH filter
  msg.at = at;
  msg.section_type = SectionType::Type3;
  msg.comp = fh_.comp;
  msg.time_offset = 0;
  msg.frame_structure = 0xb1;  // FFT size + mu marker (opaque to us)
  msg.cp_length = 0;
  CSection s;
  s.section_id = cfg_.du_id;  // Algorithm 3: section id == DU id
  s.start_prb = 0;
  s.num_prb = std::uint16_t(prach.n_prb);
  s.num_symbol = 12;
  s.freq_offset = prach.freq_offset;
  msg.sections.push_back(s);
  PacketPtr p = pool_->alloc();
  if (!p) {
    ++stats_.pool_exhausted;
    return;
  }
  const std::size_t len = build_cplane_frame(p->raw(), eth_to_ru(), eaxc,
                                             next_seq(eaxc), msg, fh_);
  send_frame(len, std::move(p), slot_start_ns - kCplaneAdvanceNs);
  ++stats_.cplane_tx;
}

void DuModel::emit_uplane_dl(std::int64_t slot, const SlotPoint& at,
                             std::int64_t slot_start_ns) {
  const int n_sym = cfg_.vendor.tdd.dl_symbols(slot);
  if (n_sym <= 0) return;
  const bool ssb_slot = slot % cfg_.cell.ssb.period_slots == 0;
  const auto& ssb = cfg_.cell.ssb;
  // Wide-mantissa payloads can exceed the jumbo MTU: fragment. The
  // section lists are fixed for the slot, so split each once.
  for (std::size_t port = 0; port < std::size_t(n_ports_); ++port) {
    split_sections_for_mtu(data_sections_[port], fh_, data_frames_[port]);
    if (ssb_slot)
      split_sections_for_mtu(ssb_sections_[port], fh_, ssb_frames_[port]);
  }
  // Symbol-major emission: the real-time pipeline releases all ports of a
  // symbol together, then moves to the next symbol. Symbols without any
  // scheduled section carry no frame at all.
  for (int sym = 0; sym < n_sym; ++sym) {
    const bool ssb_sym = ssb_slot && sym >= ssb.first_symbol &&
                         sym < ssb.first_symbol + ssb.n_symbols;
    for (int port = 0; port < n_ports_; ++port) {
      const MtuSplit& frames = ssb_sym ? ssb_frames_[std::size_t(port)]
                                       : data_frames_[std::size_t(port)];
      if (frames.frames() == 0) continue;
      EaxcId eaxc{0, 0, 0, std::uint8_t(port)};
      UPlaneMsg hdr;
      hdr.direction = Direction::Downlink;
      hdr.at = at;
      hdr.at.symbol = std::uint8_t(sym);
      for (std::size_t f = 0; f < frames.frames(); ++f) {
        PacketPtr p = pool_->alloc();
        if (!p) {
          ++stats_.pool_exhausted;
          return;
        }
        const std::size_t len =
            build_uplane_frame(p->raw(), eth_to_ru(), eaxc, next_seq(eaxc),
                               hdr, frames.frame(f), fh_);
        // U-plane frames are paced per symbol, exactly as the DU's
        // real-time pipeline releases them; deadline checks downstream
        // are relative to each frame's own symbol.
        send_frame(len, std::move(p),
                   slot_start_ns + sym * symbol_duration_ns(cfg_.cell.scs));
        ++stats_.uplane_tx;
      }
    }
  }
}

void DuModel::begin_slot(std::int64_t slot, std::int64_t slot_start_ns) {
  if (failed_) return;
  SlotPoint at;
  {
    const int spsf = slots_per_subframe(cfg_.cell.scs);
    at.slot = std::uint8_t(slot % spsf);
    const std::int64_t sf = slot / spsf;
    at.subframe = std::uint8_t(sf % 10);
    at.frame = std::uint8_t((sf / 10) % 256);
    at.symbol = 0;
  }

  // HARQ feedback from the previous slot's delivery results.
  const auto attached = air_->attached_ues(cell_id_);
  std::vector<std::pair<UeId, UeReport>> reports;
  reports.reserve(attached.size());
  for (UeId ue : attached) {
    const std::uint64_t errs = air_->dl_errors(ue);
    auto& last = last_dl_errors_[ue];
    sched_.on_harq_feedback(ue, errs - last, /*scheduled=*/true);
    last = errs;
    const std::uint64_t ul_errs = air_->ul_errors(ue);
    auto& ul_last = last_ul_errors_[ue];
    sched_.on_ul_feedback(ue, ul_errs - ul_last, /*scheduled=*/true);
    ul_last = ul_errs;
    reports.push_back({ue, air_->ue_report(ue)});
  }

  const int dl_sym = cfg_.vendor.tdd.dl_symbols(slot);
  const int ul_sym = cfg_.vendor.tdd.ul_symbols(slot);

  dl_allocs_.clear();
  ul_allocs_.clear();
  ul_resolved_.clear();
  if (dl_sym > 0) {
    dl_allocs_ = sched_.schedule_dl(reports, dl_sym - 1);
    air_->publish_dl_alloc(cell_id_, slot, dl_allocs_);
  }
  if (ul_sym > 0) {
    ul_allocs_ = sched_.schedule_ul(reports, ul_sym - 1);
    air_->publish_ul_alloc(cell_id_, slot, ul_allocs_);
    ul_alloc_slot_ = slot;
    if (cfg_.ul_match_slots > 1) {
      UlWindow w;
      w.slot = slot;
      w.at = at;
      w.allocs = ul_allocs_;
      ul_windows_.push_back(std::move(w));
      while (ul_windows_.size() > std::size_t(cfg_.ul_match_slots))
        ul_windows_.erase(ul_windows_.begin());
    }
  }
  int dl_prbs = 0, ul_prbs = 0;
  for (const auto& a : dl_allocs_) dl_prbs += a.n_prb;
  for (const auto& a : ul_allocs_) ul_prbs += a.n_prb;
  sched_.log_utilization(slot, dl_prbs, ul_prbs, dl_sym > 0, ul_sym > 0);

  if (dl_sym > 0) {
    build_sections(slot);
    emit_cplane_dl(slot, at, slot_start_ns);
    emit_uplane_dl(slot, at, slot_start_ns);
  }
  if (ul_sym > 0) {
    emit_cplane_ul(slot, at, slot_start_ns);
    emit_prach_cplane(slot, at, slot_start_ns);
  }
}

void DuModel::process_rx(std::int64_t slot, std::int64_t slot_start_ns) {
  if (failed_) {
    // Drain and discard: a dead DU's NIC queue does not back-pressure.
    while (port_->rx_burst(rx_, 64) > 0) rx_.clear();
    return;
  }
  // UL PUSCH combining uses every antenna port; allocations are resolved
  // only once all ports' streams arrived on time (a late merged stream -
  // e.g. a DAS middlebox past its budget - fails the whole slot's uplink).
  std::uint32_t ports_seen = 0;
  std::vector<PacketPtr> port0_pkts;
  std::vector<UPlaneMsg> port0_msgs;

  while (port_->rx_burst(rx_, 64) > 0) {
    for (auto& p : rx_) {
      if (!parse_frame_into(p->data(), fh_, frame_)) {
        ++stats_.parse_errors;
        continue;
      }
      const std::int64_t nominal =
          slot_start_ns + std::int64_t(frame_.at().symbol) *
                              symbol_duration_ns(cfg_.cell.scs);
      if (p->rx_time_ns > nominal + cfg_.latency_budget_ns) {
        ++stats_.late_drops;
        continue;
      }
      if (!frame_.is_uplane()) continue;
      const auto& u = frame_.uplane();
      if (u.direction != Direction::Uplink) continue;
      ++stats_.uplane_rx;
      const auto eaxc = frame_.ecpri.eaxc;

      if (eaxc.du_port == 1) {
        // PRACH stream: detect energy in sections addressed to us.
        for (const auto& sec : u.sections) {
          if (sec.section_id != cfg_.du_id) continue;
          if (sec.payload_offset + sec.payload_len > p->len()) continue;
          std::array<IqSample, kScPerPrb> prb{};
          auto payload = p->bytes(sec.payload_offset);
          if (!bfp_decompress_prb(payload, sec.comp.iq_width,
                                  IqSpan(prb.data(), prb.size())))
            continue;
          const double r = rms(IqConstSpan(prb.data(), prb.size()));
          if (r >= AirModel::kPrachDetectFactor * AirModel::kNoiseRms) {
            ++stats_.prach_detections;
            air_->complete_prach(cell_id_, slot);
          }
        }
        continue;
      }

      // UL data: note the port's arrival; decode happens after the drain
      // once every expected antenna port is in.
      if (cfg_.ul_match_slots > 1) {
        // Windowed matching: attribute the frame to the UL slot it was
        // scheduled for by SlotPoint (cross-shard frames arrive later
        // than their allocation slot).
        for (auto& w : ul_windows_) {
          if (w.at.frame != u.at.frame || w.at.subframe != u.at.subframe ||
              w.at.slot != u.at.slot)
            continue;
          w.ports_seen |= 1u << eaxc.ru_port;
          w.fresh = true;
          if (eaxc.ru_port == 0) {
            w.port0_msgs.push_back(u);
            w.port0_pkts.push_back(std::move(p));
          }
          break;
        }
        continue;
      }
      if (ul_alloc_slot_ != slot) continue;
      ports_seen |= 1u << eaxc.ru_port;
      if (eaxc.ru_port == 0) {
        port0_msgs.push_back(u);
        port0_pkts.push_back(std::move(p));
      }
    }
    rx_.clear();
  }

  const std::uint32_t expected = (1u << n_ports_) - 1;
  if (cfg_.ul_match_slots > 1) {
    // Resolve only windows that received packets in THIS call and have a
    // complete port set — a still-incomplete or already-drained window
    // must not re-run the decode gate (ul_decode_fail would re-count).
    for (auto& w : ul_windows_) {
      if (!w.fresh) continue;
      w.fresh = false;
      if ((w.ports_seen & expected) != expected) continue;
      resolve_ul_allocs(w.slot, w.port0_pkts, w.port0_msgs, w.allocs,
                        w.resolved);
    }
    return;
  }
  if (ul_alloc_slot_ != slot || (ports_seen & expected) != expected) return;
  resolve_ul_allocs(slot, port0_pkts, port0_msgs, ul_allocs_, ul_resolved_);
}

void DuModel::drop_pending_rx() {
  ul_windows_.clear();
  while (port_->rx_burst(rx_, 64) > 0) rx_.clear();
}

void DuModel::resolve_ul_allocs(std::int64_t slot,
                                const std::vector<PacketPtr>& port0_pkts,
                                const std::vector<UPlaneMsg>& port0_msgs,
                                const std::vector<UlAlloc>& allocs,
                                std::unordered_set<int>& resolved) {
  // Locate a PRB across the (possibly MTU-fragmented) section set and
  // measure its decompressed power.
  auto prb_power = [&](int prb, double* out) {
    for (std::size_t pi = 0; pi < port0_pkts.size(); ++pi) {
      for (const auto& sec : port0_msgs[pi].sections) {
        if (prb < sec.start_prb || prb >= sec.start_prb + sec.num_prb)
          continue;
        const std::size_t prb_sz = sec.comp.prb_bytes();
        const std::size_t off =
            sec.payload_offset + std::size_t(prb - sec.start_prb) * prb_sz;
        if (off + prb_sz > port0_pkts[pi]->len()) return false;
        std::array<IqSample, kScPerPrb> buf{};
        if (!bfp_decompress_prb(port0_pkts[pi]->bytes(off),
                                sec.comp.iq_width,
                                IqSpan(buf.data(), buf.size())))
          return false;
        *out = mean_power(IqConstSpan(buf.data(), buf.size()));
        return true;
      }
    }
    return false;
  };

  for (std::size_t ai = 0; ai < allocs.size(); ++ai) {
    if (resolved.count(int(ai))) continue;
    const auto& al = allocs[ai];
    // Sample up to three PRBs of the allocation for decode energy: this is
    // the integrity gate that catches middlebox IQ corruption.
    double acc = 0.0;
    int n = 0;
    for (int k = 0; k < std::min(3, al.n_prb); ++k) {
      const int prb = al.start_prb + k * std::max(1, al.n_prb / 3);
      double pw = 0.0;
      if (prb_power(prb, &pw)) {
        acc += pw;
        ++n;
      }
    }
    if (n == 0) continue;
    const double r = std::sqrt(acc / n);
    if (r < kUlDecodeFactor * AirModel::kNoiseRms) {
      ++stats_.ul_decode_fail;
      continue;
    }
    air_->resolve_ul_alloc(cell_id_, slot, al);
    resolved.insert(int(ai));
  }
}

namespace {

/// Write an unordered integer-keyed map sorted by key (deterministic
/// blobs regardless of hash iteration order).
template <typename Map, typename WriteKv>
void save_sorted_map(state::StateWriter& w, const Map& m, WriteKv&& kv) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(m.size());
  for (const auto& [k, _] : m) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  w.u32(std::uint32_t(keys.size()));
  for (const auto& k : keys) kv(k, m.at(k));
}

}  // namespace

void DuModel::save_state(state::StateWriter& w) const {
  sched_.save_state(w);
  w.u64(stats_.cplane_tx);
  w.u64(stats_.uplane_tx);
  w.u64(stats_.uplane_rx);
  w.u64(stats_.late_drops);
  w.u64(stats_.parse_errors);
  w.u64(stats_.ul_decode_fail);
  w.u64(stats_.prach_detections);
  w.u64(stats_.pool_exhausted);
  save_sorted_map(w, seq_, [&](std::uint16_t k, std::uint8_t v) {
    w.u16(k);
    w.u8(v);
  });
  save_sorted_map(w, last_dl_errors_, [&](UeId k, std::uint64_t v) {
    w.i32(k);
    w.u64(v);
  });
  save_sorted_map(w, last_ul_errors_, [&](UeId k, std::uint64_t v) {
    w.i32(k);
    w.u64(v);
  });
  w.b(failed_);
  // Windowed UL history is serialized only when the config enables it, so
  // single-slot DUs keep their historical blob layout byte-identical.
  if (cfg_.ul_match_slots > 1) {
    w.u32(std::uint32_t(ul_windows_.size()));
    for (const auto& win : ul_windows_) {
      w.i64(win.slot);
      w.u8(win.at.frame);
      w.u8(win.at.subframe);
      w.u8(win.at.slot);
      w.u8(win.at.symbol);
      w.u32(std::uint32_t(win.allocs.size()));
      for (const auto& al : win.allocs) {
        w.i32(al.ue);
        w.i32(al.start_prb);
        w.i32(al.n_prb);
        w.f64(al.assumed_sinr_db);
        w.i64(al.tbs_bits);
      }
      std::vector<int> res(win.resolved.begin(), win.resolved.end());
      std::sort(res.begin(), res.end());
      w.u32(std::uint32_t(res.size()));
      for (int i : res) w.i32(i);
      w.u32(win.ports_seen);
      w.u32(std::uint32_t(win.port0_pkts.size()));
      for (const auto& p : win.port0_pkts) save_packet(w, *p);
    }
  }
}

void DuModel::load_state(state::StateReader& r) {
  sched_.load_state(r);
  stats_.cplane_tx = r.u64();
  stats_.uplane_tx = r.u64();
  stats_.uplane_rx = r.u64();
  stats_.late_drops = r.u64();
  stats_.parse_errors = r.u64();
  stats_.ul_decode_fail = r.u64();
  stats_.prach_detections = r.u64();
  stats_.pool_exhausted = r.u64();
  seq_.clear();
  for (std::uint32_t i = 0, n = r.count(3); i < n && r.ok(); ++i) {
    std::uint16_t k = r.u16();
    seq_[k] = r.u8();
  }
  last_dl_errors_.clear();
  for (std::uint32_t i = 0, n = r.count(12); i < n && r.ok(); ++i) {
    UeId k = r.i32();
    last_dl_errors_[k] = r.u64();
  }
  last_ul_errors_.clear();
  for (std::uint32_t i = 0, n = r.count(12); i < n && r.ok(); ++i) {
    UeId k = r.i32();
    last_ul_errors_[k] = r.u64();
  }
  failed_ = r.b();
  ul_windows_.clear();
  if (cfg_.ul_match_slots > 1) {
    for (std::uint32_t i = 0, n = r.count(16); i < n && r.ok(); ++i) {
      UlWindow win;
      win.slot = r.i64();
      win.at.frame = r.u8();
      win.at.subframe = r.u8();
      win.at.slot = r.u8();
      win.at.symbol = r.u8();
      for (std::uint32_t a = 0, na = r.count(28); a < na && r.ok(); ++a) {
        UlAlloc al;
        al.ue = r.i32();
        al.start_prb = r.i32();
        al.n_prb = r.i32();
        al.assumed_sinr_db = r.f64();
        al.tbs_bits = r.i64();
        win.allocs.push_back(al);
      }
      for (std::uint32_t a = 0, na = r.count(4); a < na && r.ok(); ++a)
        win.resolved.insert(r.i32());
      win.ports_seen = r.u32();
      for (std::uint32_t a = 0, na = r.count(8); a < na && r.ok(); ++a) {
        PacketPtr p = load_packet(r, *pool_);
        if (!p) break;
        if (parse_frame_into(p->data(), fh_, frame_) && frame_.is_uplane()) {
          win.port0_msgs.push_back(frame_.uplane());
          win.port0_pkts.push_back(std::move(p));
        }
      }
      if (r.ok()) ul_windows_.push_back(std::move(win));
    }
  }
}

}  // namespace rb
