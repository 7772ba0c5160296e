#include "ran/air.h"

#include <algorithm>
#include <cmath>

#include "common/units.h"

namespace rb {
namespace {

/// Identity layer map over the first `n` ports.
std::vector<LayerMap> identity_layers(int n) {
  std::vector<LayerMap> v;
  v.reserve(std::size_t(n));
  for (int i = 0; i < n; ++i) v.push_back({i, i});
  return v;
}

}  // namespace

CellId AirModel::add_cell(const CellConfig& cfg) {
  Cell c;
  c.cfg = cfg;
  cells_.push_back(std::move(c));
  return CellId(cells_.size() - 1);
}

RuId AirModel::add_ru(const RuSite& site) {
  Ru r;
  r.site = site;
  rus_.push_back(std::move(r));
  return RuId(rus_.size() - 1);
}

UeId AirModel::add_ue(const UeConfig& cfg) {
  Ue u;
  u.cfg = cfg;
  ues_.push_back(std::move(u));
  return UeId(ues_.size() - 1);
}

void AirModel::assign_ru(CellId cell, RuId ru, int prb_offset,
                         std::vector<LayerMap> layers) {
  Assignment a;
  a.ru = ru;
  a.prb_offset = prb_offset;
  if (layers.empty()) {
    const int n = std::min(cells_[std::size_t(cell)].cfg.max_layers,
                           rus_[std::size_t(ru)].site.n_antennas);
    a.layers = identity_layers(n);
  } else {
    a.layers = std::move(layers);
  }
  cells_[std::size_t(cell)].assigned.push_back(std::move(a));
}

void AirModel::set_ue_position(UeId ue, const Position& p) {
  ues_[std::size_t(ue)].cfg.pos = p;
}

void AirModel::publish_dl_alloc(CellId cell, std::int64_t slot,
                                std::vector<DlAlloc> allocs) {
  auto& c = cells_[std::size_t(cell)];
  c.dl_allocs = std::move(allocs);
  c.alloc_slot = slot;
}

void AirModel::publish_ul_alloc(CellId cell, std::int64_t slot,
                                std::vector<UlAlloc> allocs) {
  auto& c = cells_[std::size_t(cell)];
  c.ul_allocs = std::move(allocs);
  c.alloc_slot = slot;
}

bool AirModel::intervals_cover(const std::vector<PrbInterval>& iv, int start,
                               int end, double min_cover) const {
  if (end <= start) return true;
  int covered = 0;
  for (const auto& i : iv) {
    const int lo = std::max(start, i.start);
    const int hi = std::min(end, i.end());
    if (hi > lo) covered += hi - lo;
  }
  return double(covered) >= min_cover * double(end - start);
}

std::optional<double> AirModel::cell_signal_db(const Cell& c, UeId ue,
                                               bool require_radiation,
                                               int* radiating_layers) const {
  const Ue& u = ues_[std::size_t(ue)];
  double sig_lin = 0.0;
  std::uint32_t layer_mask = 0;
  for (const auto& a : c.assigned) {
    const Ru& r = rus_[std::size_t(a.ru)];
    for (const auto& lm : a.layers) {
      bool radiating = true;
      if (require_radiation) {
        radiating = false;
        if (r.radiation_slot >= 0) {
          for (const auto& pr : r.radiation.ports) {
            if (pr.port == lm.ru_port && !pr.data.empty()) {
              radiating = true;
              break;
            }
          }
        }
      }
      if (!radiating) continue;
      layer_mask |= 1u << lm.cell_layer;
      sig_lin += db_to_linear(
          channel_.dl_snr_db(r.site.pos, u.cfg.pos, link_seed(a.ru, ue)));
    }
  }
  if (radiating_layers) {
    int n = 0;
    for (std::uint32_t m = layer_mask; m; m &= m - 1) ++n;
    *radiating_layers = n;
  }
  if (sig_lin <= 0.0) return std::nullopt;
  return linear_to_db(sig_lin);
}

double AirModel::dl_interference_lin(CellId serving, UeId ue, Hertz f_lo,
                                     Hertz f_hi) const {
  const Ue& u = ues_[std::size_t(ue)];
  if (f_hi <= f_lo) return 0.0;
  double total = 0.0;
  for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
    // Same-identity cells (warm standby twins) carry the same signal, not
    // interference.
    if (same_cell_identity(CellId(ci), serving)) continue;
    const Cell& c = cells_[ci];
    if (c.dl_allocs.empty()) continue;
    // Interfering power weighted by spectral overlap of each allocation.
    for (const auto& al : c.dl_allocs) {
      const Hertz a_lo = c.cfg.prb_freq(al.start_prb);
      const Hertz a_hi = c.cfg.prb_freq(al.start_prb + al.n_prb);
      const Hertz lo = std::max(f_lo, a_lo);
      const Hertz hi = std::min(f_hi, a_hi);
      if (hi <= lo) continue;
      const double frac = double(hi - lo) / double(f_hi - f_lo);
      // One term per mapped antenna of the interfering cell.
      double cell_lin = 0.0;
      for (const auto& a : c.assigned) {
        const Ru& r = rus_[std::size_t(a.ru)];
        for (std::size_t k = 0; k < a.layers.size(); ++k)
          cell_lin += db_to_linear(
              channel_.dl_snr_db(r.site.pos, u.cfg.pos, link_seed(a.ru, ue)));
      }
      total += frac * cell_lin;
    }
  }
  return total;
}

bool AirModel::ssb_radiated(const Cell& c, const Assignment& a) const {
  const Ru& r = rus_[std::size_t(a.ru)];
  if (r.radiation_slot < 0) return false;
  const int lo = a.prb_offset + c.cfg.ssb.start_prb;
  const int hi = lo + c.cfg.ssb.n_prb;
  for (const auto& pr : r.radiation.ports)
    if (intervals_cover(pr.ssb_sym, lo, hi, 0.9)) return true;
  return false;
}

void AirModel::report_radiation(RuId ru, std::int64_t slot,
                                RadiationReport report) {
  auto& r = rus_[std::size_t(ru)];
  r.radiation = std::move(report);
  r.radiation_slot = slot;
}

void AirModel::begin_slot(std::int64_t slot) {
  // Invalidate per-slot caches and stale allocations.
  for (auto& r : rus_) {
    if (r.ul_amp_slot != slot) r.ul_amp_slot = -1;
    if (r.radiation_slot >= 0 && r.radiation_slot < slot) {
      r.radiation_slot = -1;
      r.radiation.ports.clear();
    }
  }
  for (auto& c : cells_) {
    if (c.alloc_slot >= 0 && c.alloc_slot < slot) {
      c.dl_allocs.clear();
      c.ul_allocs.clear();
      c.alloc_slot = -1;
    }
  }
}

void AirModel::resolve_dl(std::int64_t slot) {
  // ---- attachment management at SSB occasions ----
  const bool ssb_occasion =
      !cells_.empty() && (slot % cells_[0].cfg.ssb.period_slots == 0);
  if (ssb_occasion) {
    for (std::size_t ui = 0; ui < ues_.size(); ++ui) {
      Ue& u = ues_[ui];
      // Measure SSB SNR towards every cell (only RUs that radiated SSB).
      double best_snr = -1e9;
      CellId best_cell = -1;
      double serving_snr = -1e9;
      for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
        const Cell& c = cells_[ci];
        if (u.cfg.pci_lock >= 0 && c.cfg.pci != u.cfg.pci_lock) continue;
        double snr = -1e9;
        for (const auto& a : c.assigned) {
          if (!ssb_radiated(c, a)) continue;
          const double s = channel_.dl_snr_db(rus_[std::size_t(a.ru)].site.pos,
                                              u.cfg.pos,
                                              link_seed(a.ru, UeId(ui)));
          snr = std::max(snr, s);
        }
        if (CellId(ci) == u.serving) serving_snr = snr;
        if (snr > best_snr) {
          best_snr = snr;
          best_cell = CellId(ci);
        }
      }
      switch (u.state) {
        case UeAttachState::Attached:
          if (serving_snr < kAttachThresholdDb) {
            if (++u.ssb_misses >= kRlfSsbMisses) {
              u.state = UeAttachState::Idle;  // radio link failure
              u.serving = -1;
              u.ssb_misses = 0;
            }
          } else {
            u.ssb_misses = 0;
            // Reselection with 3 dB hysteresis (brief outage through the
            // idle -> PRACH -> attach path, like a real handover).
            if (best_cell >= 0 && best_cell != u.serving &&
                best_snr > serving_snr + 3.0) {
              u.state = UeAttachState::WaitPrach;
              u.serving = -1;
              u.prach_target = best_cell;
            }
          }
          break;
        case UeAttachState::Idle:
          if (best_cell >= 0 && best_snr >= kAttachThresholdDb) {
            u.state = UeAttachState::WaitPrach;
            u.prach_target = best_cell;
          }
          break;
        case UeAttachState::WaitPrach:
          if (best_snr < kAttachThresholdDb) u.state = UeAttachState::Idle;
          break;
      }
    }
  }

  // ---- DL data delivery ----
  for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
    Cell& c = cells_[ci];
    if (c.alloc_slot != slot) continue;
    for (const auto& al : c.dl_allocs) {
      if (al.ue < 0 || std::size_t(al.ue) >= ues_.size()) continue;
      Ue& u = ues_[std::size_t(al.ue)];
      if (!same_cell_identity(u.serving, CellId(ci))) continue;

      // Signal: only antennas that really radiated this slot, and whose
      // radiated PRBs cover the allocation.
      double sig_lin = 0.0;
      std::uint32_t layer_mask = 0;
      for (const auto& a : c.assigned) {
        const Ru& r = rus_[std::size_t(a.ru)];
        if (r.radiation_slot != slot) continue;
        const int lo = a.prb_offset + al.start_prb;
        const int hi = lo + al.n_prb;
        for (const auto& lm : a.layers) {
          bool covered = false;
          for (const auto& pr : r.radiation.ports) {
            if (pr.port == lm.ru_port && intervals_cover(pr.data, lo, hi)) {
              covered = true;
              break;
            }
          }
          if (!covered) continue;
          layer_mask |= 1u << lm.cell_layer;
          sig_lin += db_to_linear(channel_.dl_snr_db(
              r.site.pos, u.cfg.pos, link_seed(a.ru, al.ue)));
        }
      }
      int usable_layers = 0;
      for (std::uint32_t m = layer_mask; m; m &= m - 1) ++usable_layers;
      usable_layers = std::min(usable_layers, al.layers);
      if (usable_layers == 0 || sig_lin <= 0.0) {
        // Nothing radiated for this allocation: distinct from an MCS
        // failure (a passive standby DU's allocations land here, and the
        // OLLA must not react to them).
        ++u.dl_unradiated;
        continue;
      }
      const Hertz f_lo = c.cfg.prb_freq(al.start_prb);
      const Hertz f_hi = c.cfg.prb_freq(al.start_prb + al.n_prb);
      const double i_lin = dl_interference_lin(CellId(ci), al.ue, f_lo, f_hi);
      const double sinr_total_db = linear_to_db(sig_lin / (1.0 + i_lin));
      const double per_layer_db =
          sinr_total_db - mimo_layer_penalty_db(al.layers);
      u.last_sinr_db = per_layer_db;
      u.last_rank = al.layers;
      if (per_layer_db + 0.25 >= al.assumed_sinr_db) {
        u.dl_bits += std::uint64_t(al.tbs_bits * usable_layers / al.layers);
      } else {
        ++u.dl_errors;  // HARQ failure; DU's OLLA adapts
      }
    }
  }
}

UeReport AirModel::ue_report(UeId ue) const {
  const Ue& u = ues_[std::size_t(ue)];
  UeReport rep;
  if (u.state != UeAttachState::Attached || u.serving < 0) return rep;
  rep.attached = true;
  rep.serving = u.serving;
  const Cell& c = cells_[std::size_t(u.serving)];

  // Capability: distinct cell layers with at least one mapped antenna.
  std::uint32_t mask = 0;
  for (const auto& a : c.assigned)
    for (const auto& lm : a.layers) mask |= 1u << lm.cell_layer;
  int capability = 0;
  for (std::uint32_t m = mask; m; m &= m - 1) ++capability;
  capability = std::min({capability, c.cfg.max_layers, u.cfg.max_layers});
  if (capability < 1) capability = 1;

  auto signal = cell_signal_db(c, ue, /*require_radiation=*/false, nullptr);
  if (!signal) return rep;

  // Rank selection: maximize aggregate spectral efficiency.
  int best_rank = 1;
  double best_score = -1.0;
  double best_sinr = -99.0;
  for (int L : {1, 2, 3, 4}) {
    if (L > capability) break;
    const double per_layer = *signal - mimo_layer_penalty_db(L);
    const double score = double(L) * spectral_efficiency(per_layer, L);
    if (score > best_score) {
      best_score = score;
      best_rank = L;
      best_sinr = per_layer;
    }
  }
  rep.rank = best_rank;
  rep.per_layer_sinr_db = quantize_sinr_db(best_sinr);
  return rep;
}

bool AirModel::same_cell_identity(CellId a, CellId b) const {
  if (a == b) return true;
  if (a < 0 || b < 0) return false;
  // Cells announcing the same PCI are indistinguishable to a UE - the
  // warm-standby DU case (section 8.1): both are "the" serving cell.
  return cells_[std::size_t(a)].cfg.pci == cells_[std::size_t(b)].cfg.pci;
}

std::vector<UeId> AirModel::attached_ues(CellId cell) const {
  std::vector<UeId> out;
  for (std::size_t ui = 0; ui < ues_.size(); ++ui)
    if (same_cell_identity(ues_[ui].serving, cell)) out.push_back(UeId(ui));
  return out;
}

void AirModel::complete_prach(CellId cell, std::int64_t slot) {
  (void)slot;
  for (auto& u : ues_) {
    if (u.state == UeAttachState::WaitPrach && u.prach_target == cell) {
      u.state = UeAttachState::Attached;
      u.serving = cell;
      u.prach_target = -1;
      u.ssb_misses = 0;
    }
  }
}

std::int64_t AirModel::resolve_ul_alloc(CellId cell, std::int64_t slot,
                                        const UlAlloc& alloc) {
  (void)slot;
  if (alloc.ue < 0 || std::size_t(alloc.ue) >= ues_.size()) return 0;
  Ue& u = ues_[std::size_t(alloc.ue)];
  if (!same_cell_identity(u.serving, cell)) return 0;
  const Cell& c = cells_[std::size_t(cell)];

  // Combined UL signal across the serving RU set (the DAS merge sums the
  // per-RU streams; with one dominant RU this approximates selection).
  double sig_lin = 0.0;
  for (const auto& a : c.assigned)
    sig_lin += db_to_linear(channel_.ul_snr_db(
        rus_[std::size_t(a.ru)].site.pos, u.cfg.pos,
        link_seed(a.ru, alloc.ue)));
  if (sig_lin <= 0.0) return 0;

  // Cross-cell UL interference on overlapping spectrum.
  double i_lin = 0.0;
  const Hertz f_lo = c.cfg.prb_freq(alloc.start_prb);
  const Hertz f_hi = c.cfg.prb_freq(alloc.start_prb + alloc.n_prb);
  for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
    if (same_cell_identity(CellId(ci), cell)) continue;
    const Cell& oc = cells_[ci];
    for (const auto& oa : oc.ul_allocs) {
      const Hertz a_lo = oc.cfg.prb_freq(oa.start_prb);
      const Hertz a_hi = oc.cfg.prb_freq(oa.start_prb + oa.n_prb);
      const Hertz lo = std::max(f_lo, a_lo);
      const Hertz hi = std::min(f_hi, a_hi);
      if (hi <= lo || oa.ue < 0) continue;
      const double frac = double(hi - lo) / double(f_hi - f_lo);
      // Interfering UE towards our best RU.
      double g = 0.0;
      for (const auto& a : c.assigned)
        g = std::max(g, db_to_linear(channel_.ul_snr_db(
                            rus_[std::size_t(a.ru)].site.pos,
                            ues_[std::size_t(oa.ue)].cfg.pos,
                            link_seed(a.ru, oa.ue))));
      i_lin += frac * g;
    }
  }
  const double sinr_db = linear_to_db(sig_lin / (1.0 + i_lin));
  u.last_sinr_db = sinr_db;
  if (sinr_db + 0.25 >= alloc.assumed_sinr_db) {
    u.ul_bits += std::uint64_t(alloc.tbs_bits);
    return alloc.tbs_bits;
  }
  ++u.ul_errors;
  return 0;
}

double AirModel::ul_rx_amplitude(RuId ru, std::int64_t slot, int ru_grid_prb) {
  Ru& r = rus_[std::size_t(ru)];
  const int ru_prbs = prbs_for_bandwidth(r.site.bandwidth, scs_);
  if (ru_grid_prb < 0 || ru_grid_prb >= ru_prbs) return kNoiseRms;
  if (r.ul_amp_slot != slot) {
    r.ul_amp_cache.assign(std::size_t(ru_prbs), kNoiseRms);
    const Hertz ru_prb0 =
        r.site.center_freq - 12 * scs_hz(scs_) * ru_prbs / 2;
    for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
      const Cell& c = cells_[ci];
      if (c.alloc_slot != slot) continue;
      for (const auto& al : c.ul_allocs) {
        if (al.ue < 0) continue;
        const double snr_db = channel_.ul_snr_db(
            r.site.pos, ues_[std::size_t(al.ue)].cfg.pos,
            link_seed(ru, al.ue));
        const double sig_amp = kNoiseRms * std::pow(10.0, snr_db / 20.0);
        for (int p = al.start_prb; p < al.start_prb + al.n_prb; ++p) {
          const Hertz f = c.cfg.prb_freq(p);
          const std::int64_t idx64 = (f - ru_prb0) / (12 * scs_hz(scs_));
          if (idx64 < 0 || idx64 >= ru_prbs) continue;
          auto& cell_amp = r.ul_amp_cache[std::size_t(idx64)];
          // Sum powers of overlapping transmissions plus noise.
          cell_amp = std::sqrt(cell_amp * cell_amp + sig_amp * sig_amp);
        }
      }
    }
    r.ul_amp_slot = slot;
  }
  return r.ul_amp_cache[std::size_t(ru_grid_prb)];
}

bool AirModel::is_prach_occasion(std::int64_t slot) const {
  for (const auto& c : cells_) {
    const auto& p = c.cfg.prach;
    if (p.period_slots > 0 && slot % p.period_slots == p.slot_offset)
      return true;
  }
  return false;
}

std::vector<PrachRx> AirModel::prach_rx(RuId ru, std::int64_t slot) const {
  std::vector<PrachRx> out;
  const Ru& r = rus_[std::size_t(ru)];
  for (std::size_t ui = 0; ui < ues_.size(); ++ui) {
    const Ue& u = ues_[ui];
    if (u.state != UeAttachState::WaitPrach || u.prach_target < 0) continue;
    const Cell& c = cells_[std::size_t(u.prach_target)];
    const auto& p = c.cfg.prach;
    if (p.period_slots <= 0 || slot % p.period_slots != p.slot_offset)
      continue;
    PrachRx rx;
    rx.ue = UeId(ui);
    rx.target_cell = u.prach_target;
    rx.f0 = c.cfg.prach_f0();
    rx.n_prb = p.n_prb;
    const double snr_db =
        channel_.ul_snr_db(r.site.pos, u.cfg.pos, link_seed(ru, UeId(ui))) +
        kPrachGainDb;
    rx.amp_rms = kNoiseRms * std::pow(10.0, snr_db / 20.0);
    out.push_back(rx);
  }
  return out;
}

void AirModel::reset_counters() {
  for (auto& u : ues_) {
    u.dl_bits = 0;
    u.ul_bits = 0;
    u.dl_errors = 0;
    u.ul_errors = 0;
    u.dl_unradiated = 0;
  }
}

void AirModel::sync_ue_attach(UeId ue, bool attached, CellId serving) {
  Ue& u = ues_[std::size_t(ue)];
  if (attached) {
    u.state = UeAttachState::Attached;
    u.serving = serving;
    u.prach_target = -1;
    u.ssb_misses = 0;
  } else {
    u.state = UeAttachState::Idle;
    u.serving = -1;
    u.prach_target = -1;
    u.ssb_misses = 0;
  }
}

void AirModel::sync_ue_dl(UeId ue, std::uint64_t bits, std::uint64_t errors,
                          std::uint64_t unradiated) {
  Ue& u = ues_[std::size_t(ue)];
  u.dl_bits = bits;
  u.dl_errors = errors;
  u.dl_unradiated = unradiated;
}

void AirModel::sync_ue_ul(UeId ue, std::uint64_t bits, std::uint64_t errors) {
  Ue& u = ues_[std::size_t(ue)];
  u.ul_bits = bits;
  u.ul_errors = errors;
}

void AirModel::save_state(state::StateWriter& w) const {
  w.u32(std::uint32_t(cells_.size()));
  for (const Cell& c : cells_) {
    w.i64(c.alloc_slot);
    w.u32(std::uint32_t(c.dl_allocs.size()));
    for (const DlAlloc& a : c.dl_allocs) {
      w.i32(a.ue);
      w.i32(a.start_prb);
      w.i32(a.n_prb);
      w.i32(a.layers);
      w.f64(a.assumed_sinr_db);
      w.i64(a.tbs_bits);
    }
    w.u32(std::uint32_t(c.ul_allocs.size()));
    for (const UlAlloc& a : c.ul_allocs) {
      w.i32(a.ue);
      w.i32(a.start_prb);
      w.i32(a.n_prb);
      w.f64(a.assumed_sinr_db);
      w.i64(a.tbs_bits);
    }
  }
  w.u32(std::uint32_t(rus_.size()));
  for (const Ru& r : rus_) {
    w.i64(r.radiation_slot);
    w.u32(std::uint32_t(r.radiation.ports.size()));
    for (const auto& pr : r.radiation.ports) {
      w.i32(pr.port);
      for (const auto* iv : {&pr.data, &pr.ssb_sym}) {
        w.u32(std::uint32_t(iv->size()));
        for (const PrbInterval& p : *iv) {
          w.i32(p.start);
          w.i32(p.count);
        }
      }
    }
    w.i64(r.ul_amp_slot);
    w.u32(std::uint32_t(r.ul_amp_cache.size()));
    for (double v : r.ul_amp_cache) w.f64(v);
  }
  w.u32(std::uint32_t(ues_.size()));
  for (const Ue& u : ues_) {
    w.u8(std::uint8_t(u.state));
    w.i32(u.serving);
    w.i32(u.prach_target);
    w.i32(u.ssb_misses);
    w.i32(u.last_rank);
    w.f64(u.last_sinr_db);
    w.u64(u.dl_bits);
    w.u64(u.ul_bits);
    w.u64(u.dl_errors);
    w.u64(u.ul_errors);
    w.u64(u.dl_unradiated);
  }
}

void AirModel::load_state(state::StateReader& r) {
  if (r.u32() != cells_.size()) {
    r.fail(state::StateError::kMismatch);
    return;
  }
  for (Cell& c : cells_) {
    c.alloc_slot = r.i64();
    c.dl_allocs.assign(r.count(36), DlAlloc{});
    for (DlAlloc& a : c.dl_allocs) {
      a.ue = r.i32();
      a.start_prb = r.i32();
      a.n_prb = r.i32();
      a.layers = r.i32();
      a.assumed_sinr_db = r.f64();
      a.tbs_bits = r.i64();
    }
    c.ul_allocs.assign(r.count(32), UlAlloc{});
    for (UlAlloc& a : c.ul_allocs) {
      a.ue = r.i32();
      a.start_prb = r.i32();
      a.n_prb = r.i32();
      a.assumed_sinr_db = r.f64();
      a.tbs_bits = r.i64();
    }
    if (!r.ok()) return;
  }
  if (r.u32() != rus_.size()) {
    r.fail(state::StateError::kMismatch);
    return;
  }
  for (Ru& ru : rus_) {
    ru.radiation_slot = r.i64();
    ru.radiation.ports.assign(r.count(12), {});
    for (auto& pr : ru.radiation.ports) {
      pr.port = r.i32();
      for (auto* iv : {&pr.data, &pr.ssb_sym}) {
        iv->assign(r.count(8), PrbInterval{});
        for (PrbInterval& p : *iv) {
          p.start = r.i32();
          p.count = r.i32();
        }
      }
    }
    ru.ul_amp_slot = r.i64();
    ru.ul_amp_cache.assign(r.count(8), 0.0);
    for (double& v : ru.ul_amp_cache) v = r.f64();
    if (!r.ok()) return;
  }
  if (r.u32() != ues_.size()) {
    r.fail(state::StateError::kMismatch);
    return;
  }
  for (Ue& u : ues_) {
    std::uint8_t st = r.u8();
    if (st > std::uint8_t(UeAttachState::Attached)) {
      r.fail(state::StateError::kBadValue);
      return;
    }
    u.state = UeAttachState(st);
    u.serving = r.i32();
    u.prach_target = r.i32();
    u.ssb_misses = r.i32();
    u.last_rank = r.i32();
    u.last_sinr_db = r.f64();
    u.dl_bits = r.u64();
    u.ul_bits = r.u64();
    u.dl_errors = r.u64();
    u.ul_errors = r.u64();
    u.dl_unradiated = r.u64();
  }
  // Older writers appended a per-cell pending-PRACH record here (nothing
  // is pending at the barrier); the section reader skips that tail.
}

}  // namespace rb
