#include "ran/ru.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "iq/kernels/kernels.h"

namespace rb {

RuModel::RuModel(RuModelConfig cfg, AirModel& air, RuId ru_id, Port& port,
                 PacketPool& pool)
    : cfg_(std::move(cfg)),
      air_(&air),
      ru_id_(ru_id),
      port_(&port),
      pool_(&pool) {
  n_prb_ = prbs_for_bandwidth(cfg_.site.bandwidth, Scs::kHz30);
  ul_comp_ = cfg_.fh.comp;
  port_accum_.resize(std::size_t(std::max(0, cfg_.site.n_antennas)));
}

Hertz RuModel::prb0_freq() const {
  return cfg_.site.center_freq - 12 * scs_hz(Scs::kHz30) * n_prb_ / 2;
}

void RuModel::add_interval(std::vector<PrbInterval>& iv, int start,
                           int count) {
  // Intervals arrive out of order across symbols; collect raw and
  // normalize (sort + merge) once per slot before reporting.
  if (count <= 0) return;
  iv.push_back({start, count});
}

void RuModel::normalize(std::vector<PrbInterval>& iv) {
  if (iv.size() < 2) return;
  std::sort(iv.begin(), iv.end(), [](const PrbInterval& a, const PrbInterval& b) {
    return a.start < b.start;
  });
  // Merge in place: iv[0..w] holds the merged prefix.
  std::size_t w = 0;
  for (std::size_t i = 1; i < iv.size(); ++i) {
    if (iv[i].start <= iv[w].end()) {
      iv[w].count = std::max(iv[w].end(), iv[i].end()) - iv[w].start;
    } else {
      iv[++w] = iv[i];
    }
  }
  iv.resize(w + 1);
}

void RuModel::scan_section(const Packet& p, const USection& sec, bool ssb_sym,
                           PortAccum& acc) {
  // Energized PRBs are read from the BFP exponents alone (no
  // decompression): the low nibble of each PRB's first byte. PRBs the
  // payload does not reach stay cold, and nothing past it is read.
  const std::size_t prb_sz = sec.comp.prb_bytes();
  const std::uint8_t thr = energy_exponent_threshold(sec.comp.iq_width);
  const int n = int(std::min<std::size_t>(
      std::size_t(sec.num_prb), (sec.payload_len + prb_sz - 1) / prb_sz));
  // Through bytes(): a replica's payload lives in the shared segment.
  const std::uint8_t* e = p.bytes(sec.payload_offset, sec.payload_len).data();
  auto hot = [&](int k) { return (e[std::size_t(k) * prb_sz] & 0x0f) >= thr; };
  for (int k = 0; k < n;) {
    while (k < n && !hot(k)) ++k;
    const int run_start = k;
    while (k < n && hot(k)) ++k;
    const int abs_start = sec.start_prb + run_start;
    add_interval(acc.data, abs_start, k - run_start);
    if (ssb_sym) add_interval(acc.ssb, abs_start, k - run_start);
  }
}

void RuModel::process_dl(std::int64_t slot, std::int64_t slot_start_ns) {
  if (cache_slot_ != slot) {
    cache_slot_ = slot;
    ul_requests_.clear();
    prach_requests_.clear();
    for (auto& acc : port_accum_) {
      acc.data.clear();
      acc.ssb.clear();
      acc.cplane.clear();
    }
  }
  const bool ssb_slot =
      cfg_.ssb_period_slots > 0 && slot % cfg_.ssb_period_slots == 0;
  const int n_ports = int(port_accum_.size());

  while (port_->rx_burst(rx_, 64) > 0) {
    for (auto& p : rx_) {
      if (!parse_frame_into(p->data(), cfg_.fh, frame_)) {
        ++stats_.parse_errors;
        continue;
      }
      const FhFrame& frame = frame_;
      // Reception window: each frame must arrive within the budget of its
      // own symbol's nominal time.
      const std::int64_t nominal =
          slot_start_ns +
          std::int64_t(frame.at().symbol) * symbol_duration_ns(Scs::kHz30);
      if (p->rx_time_ns > nominal + cfg_.latency_budget_ns) {
        ++stats_.late_drops;
        continue;
      }
      const EaxcId eaxc = frame.ecpri.eaxc;
      if (frame.is_cplane()) {
        ++stats_.cplane_rx;
        const auto& c = frame.cplane();
        if (c.direction == Direction::Downlink) {
          // Record scheduled coverage; radiation is clipped to it. A port
          // beyond our antennas can never radiate, so it has no coverage.
          if (eaxc.ru_port >= n_ports) {
            ++stats_.unexpected_port_drops;
            continue;
          }
          auto& acc = port_accum_[eaxc.ru_port];
          for (const auto& s : c.sections) {
            const int n = s.effective_prbs(n_prb_);
            add_interval(acc.cplane, s.start_prb, n);
          }
        } else if (c.section_type == SectionType::Type3) {
          for (const auto& s : c.sections) {
            PrachRequest r;
            r.eaxc = eaxc;
            r.section_id = s.section_id;
            r.freq_offset = s.freq_offset;
            r.n_prb = s.effective_prbs(n_prb_);
            r.reply_to = frame.eth.src;
            prach_requests_.push_back(r);
          }
        } else {
          if (eaxc.ru_port >= n_ports) {
            ++stats_.unexpected_port_drops;
            continue;
          }
          for (const auto& s : c.sections) {
            UlRequest r;
            r.port = eaxc.ru_port;
            r.start_prb = s.start_prb;
            r.n_prb = s.effective_prbs(n_prb_);
            r.symbol = c.at.symbol;
            r.reply_to = frame.eth.src;
            r.eaxc = eaxc;
            ul_requests_.push_back(r);
          }
        }
        continue;
      }

      // U-plane (downlink IQ to radiate).
      const auto& u = frame.uplane();
      if (u.direction != Direction::Downlink) continue;
      if (eaxc.ru_port >= n_ports) {
        ++stats_.unexpected_port_drops;
        continue;
      }
      ++stats_.uplane_rx;
      auto& acc = port_accum_[eaxc.ru_port];
      const bool ssb_sym = ssb_slot && u.at.symbol >= cfg_.ssb_first_symbol &&
                           u.at.symbol <
                               cfg_.ssb_first_symbol + cfg_.ssb_n_symbols;
      for (const auto& sec : u.sections) {
        if (sec.payload_offset + sec.payload_len > p->len()) {
          ++stats_.parse_errors;
          continue;
        }
        scan_section(*p, sec, ssb_sym, acc);
      }
    }
    rx_.clear();
  }

  // Clip radiation to the C-plane scheduled coverage and report, ports in
  // ascending order.
  RadiationReport rep;
  for (int port = 0; port < n_ports; ++port) {
    PortAccum& acc = port_accum_[std::size_t(port)];
    if (acc.data.empty()) continue;  // SSB runs are a subset of data runs
    normalize(acc.data);
    normalize(acc.ssb);
    normalize(acc.cplane);
    RadiationReport::PortReport pr;
    pr.port = port;
    auto clip = [&acc](const std::vector<PrbInterval>& in,
                       std::vector<PrbInterval>& out) {
      for (const auto& e : in) {
        for (const auto& c : acc.cplane) {
          const int lo = std::max(e.start, c.start);
          const int hi = std::min(e.end(), c.end());
          if (hi > lo) out.push_back({lo, hi - lo});
        }
      }
    };
    clip(acc.data, pr.data);
    clip(acc.ssb, pr.ssb_sym);
    if (!acc.data.empty() && pr.data.empty()) ++stats_.uplane_without_cplane;
    if (!pr.data.empty() || !pr.ssb_sym.empty())
      rep.ports.push_back(std::move(pr));
  }
  if (!rep.ports.empty()) air_->report_radiation(ru_id_, slot, std::move(rep));
}

void RuModel::synth_payload(int start_prb, int n_prb, std::int64_t slot) {
  // Noise synthesis is the dispatched kernel (iq/kernels/noise.h holds
  // the scalar reference); the RNG advance it performs is part of
  // checkpointed RU state, so every tier matches it draw-for-draw.
  const IqKernelOps& ops = iq_ops();
  const std::size_t prb_sz = ul_comp_.prb_bytes();
  ul_payload_.resize(std::size_t(n_prb) * prb_sz);
  const std::span<std::uint8_t> out(ul_payload_);
  PrbSamples samples{};
  for (int k = 0; k < n_prb; ++k) {
    const double amp = air_->ul_rx_amplitude(ru_id_, slot, start_prb + k);
    const double peak = amp * 1.732;
    const std::int32_t a = std::max<std::int32_t>(1, std::int32_t(peak));
    ops.synth_noise_prb(&rng_, a, samples.data());
    bfp_compress_prb(IqConstSpan(samples.data(), samples.size()),
                     ul_comp_.iq_width, out.subspan(std::size_t(k) * prb_sz));
  }
}

void RuModel::emit_ul(std::int64_t slot, std::int64_t slot_start_ns) {
  if (cache_slot_ != slot) return;  // nothing cached for this slot
  SlotPoint at;
  {
    const int spsf = slots_per_subframe(Scs::kHz30);
    at.slot = std::uint8_t(slot % spsf);
    const std::int64_t sf = slot / spsf;
    at.subframe = std::uint8_t(sf % 10);
    at.frame = std::uint8_t((sf / 10) % 256);
    at.symbol = 0;
  }

  for (const auto& req : ul_requests_) {
    synth_payload(req.start_prb, req.n_prb, slot);
    UPlaneMsg hdr;
    hdr.direction = Direction::Uplink;
    hdr.at = at;
    hdr.at.symbol = std::uint8_t(req.symbol);
    USectionData sec;
    sec.section_id = 0;
    sec.start_prb = std::uint16_t(req.start_prb);
    sec.num_prb = req.n_prb;
    sec.payload = ul_payload_;
    sec.comp = ul_comp_;  // per-packet udCompHdr carries the live width
    EthHeader eth;
    eth.dst = req.reply_to;
    eth.src = cfg_.ru_mac;
    eth.has_vlan = true;
    eth.vlan_id = cfg_.fh.vlan_id;
    eth.pcp = 7;
    // Fragment wide payloads at the MTU (deterministic split, so DAS
    // merging pairs fragment k of every RU).
    split_sections_for_mtu(std::span(&sec, 1), cfg_.fh, ul_split_);
    for (std::size_t f = 0; f < ul_split_.frames(); ++f) {
      PacketPtr p = pool_->alloc();
      if (!p) {
        ++stats_.pool_exhausted;
        continue;
      }
      const std::size_t len =
          build_uplane_frame(p->raw(), eth, req.eaxc, seq_[req.eaxc.packed()]++,
                             hdr, ul_split_.frame(f), cfg_.fh);
      if (len == 0) {
        ++stats_.parse_errors;
        continue;
      }
      p->set_len(len);
      // The RU can only emit an UL symbol after receiving it over the air.
      p->rx_time_ns =
          slot_start_ns + req.symbol * symbol_duration_ns(Scs::kHz30);
      port_->send(std::move(p));
      ++stats_.uplane_tx;
    }
  }

  // PRACH capture windows.
  if (!prach_requests_.empty() && air_->is_prach_occasion(slot)) {
    const auto txs = air_->prach_rx(ru_id_, slot);
    const Hertz scs = scs_hz(Scs::kHz30);
    const std::size_t prb_sz = cfg_.fh.comp.prb_bytes();
    for (const auto& req : prach_requests_) {
      // Appendix A.1.2: capture window starts at center - offset*SCS/2.
      const Hertz capture_f0 =
          cfg_.site.center_freq - Hertz(req.freq_offset) * scs / 2;
      const IqKernelOps& ops = iq_ops();
      ul_payload_.assign(std::size_t(req.n_prb) * prb_sz, 0);
      const std::span<std::uint8_t> out(ul_payload_);
      PrbSamples samples{};
      for (int k = 0; k < req.n_prb; ++k) {
        const Hertz f_lo = capture_f0 + k * 12 * scs;
        const Hertz f_hi = f_lo + 12 * scs;
        double amp = AirModel::kNoiseRms;
        for (const auto& tx : txs) {
          const Hertz t_lo = tx.f0;
          const Hertz t_hi = tx.f0 + Hertz(tx.n_prb) * 12 * scs;
          if (std::max(f_lo, t_lo) < std::min(f_hi, t_hi))
            amp = std::sqrt(amp * amp + tx.amp_rms * tx.amp_rms);
        }
        const double peak = amp * 1.732;
        const std::int32_t a = std::max<std::int32_t>(1, std::int32_t(peak));
        ops.synth_noise_prb(&rng_, a, samples.data());
        bfp_compress_prb(IqConstSpan(samples.data(), samples.size()),
                         cfg_.fh.comp.iq_width,
                         out.subspan(std::size_t(k) * prb_sz));
      }
      UPlaneMsg hdr;
      hdr.direction = Direction::Uplink;
      hdr.filter_index = 1;
      hdr.at = at;
      USectionData sec;
      sec.section_id = req.section_id;
      sec.start_prb = 0;
      sec.num_prb = req.n_prb;
      sec.payload = ul_payload_;
      EthHeader eth;
      eth.dst = req.reply_to;
      eth.src = cfg_.ru_mac;
      eth.has_vlan = true;
      eth.vlan_id = cfg_.fh.vlan_id;
      eth.pcp = 7;
      PacketPtr p = pool_->alloc();
      if (!p) {
        ++stats_.pool_exhausted;
        continue;
      }
      const std::size_t len = build_uplane_frame(
          p->raw(), eth, req.eaxc, seq_[req.eaxc.packed()]++, hdr,
          std::span(&sec, 1), cfg_.fh);
      if (len == 0) {
        ++stats_.parse_errors;
        continue;
      }
      p->set_len(len);
      p->rx_time_ns = slot_start_ns;
      port_->send(std::move(p));
      ++stats_.prach_tx;
    }
  }
}

void RuModel::save_state(state::StateWriter& w) const {
  w.u8(ul_comp_.iq_width);
  w.u32(rng_);
  std::vector<std::uint16_t> keys;
  keys.reserve(seq_.size());
  for (const auto& [k, _] : seq_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  w.u32(std::uint32_t(keys.size()));
  for (std::uint16_t k : keys) {
    w.u16(k);
    w.u8(seq_.at(k));
  }
  w.u64(stats_.cplane_rx);
  w.u64(stats_.uplane_rx);
  w.u64(stats_.uplane_tx);
  w.u64(stats_.late_drops);
  w.u64(stats_.parse_errors);
  w.u64(stats_.unexpected_port_drops);
  w.u64(stats_.uplane_without_cplane);
  w.u64(stats_.prach_tx);
  w.u64(stats_.pool_exhausted);
}

void RuModel::load_state(state::StateReader& r) {
  std::uint8_t width = r.u8();
  if (width < 1 || width > 16) {
    r.fail(state::StateError::kBadValue);
    return;
  }
  ul_comp_.iq_width = width;
  rng_ = r.u32();
  seq_.clear();
  for (std::uint32_t i = 0, n = r.count(3); i < n && r.ok(); ++i) {
    std::uint16_t k = r.u16();
    seq_[k] = r.u8();
  }
  stats_.cplane_rx = r.u64();
  stats_.uplane_rx = r.u64();
  stats_.uplane_tx = r.u64();
  stats_.late_drops = r.u64();
  stats_.parse_errors = r.u64();
  stats_.unexpected_port_drops = r.u64();
  stats_.uplane_without_cplane = r.u64();
  stats_.prach_tx = r.u64();
  stats_.pool_exhausted = r.u64();
}

}  // namespace rb
