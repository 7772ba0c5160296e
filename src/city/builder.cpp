// CityBuilder: stamp per-cell deployments from one template over the
// campus grid, plus the cross-shard neutral-host share (DESIGN.md 4j).
#include <stdexcept>

#include "city/city.h"
#include "ran/vendor.h"

namespace rb::city {
namespace {

/// PCI of the neutral-host guest cell — outside the 1..n_cells range the
/// local cells use, so pci-locked UEs never cross-attach.
constexpr int kGuestPci = 999;
/// PRB offsets of the host / guest 40 MHz slices in the shared 100 MHz
/// RU grid (the Appendix A.1.1 aligned-grid layout the RU-share e2e test
/// uses: 106-PRB tenants at offsets 10 and 150 of 273 PRBs).
constexpr int kHostOffset = 10;
constexpr int kGuestOffset = 150;

/// Mild seeded fault cocktail for one cell's DU-side fronthaul link:
/// light enough that attach still succeeds through it, busy enough that
/// a 2000-slot soak exercises loss, jitter and duplication paths.
void add_cell_faults(Deployment& d, Port& near, std::uint64_t seed,
                     FaultyLink** out) {
  FaultPlan tx;  // DU -> RU: light i.i.d. loss + jitter
  tx.loss = 0.005;
  tx.jitter_ns = 10'000;
  tx.seed = seed ^ 0xa1;
  FaultPlan rx;  // RU -> DU: duplication + a little loss
  rx.loss = 0.003;
  rx.duplicate = 0.005;
  rx.seed = seed ^ 0xb2;
  *out = &d.add_fault(near, tx, rx);
}

}  // namespace

std::unique_ptr<City> build_city(const CityConfig& cfg) {
  if (cfg.neutral_host && cfg.n_cells < 2)
    throw std::runtime_error("build_city: neutral_host needs n_cells >= 2");
  auto city = std::make_unique<City>(cfg.workers, cfg.scs);
  const VendorProfile vendor = srsran_profile();
  const Hertz shared_center = GHz(3) + MHz(460);
  const int shared_prbs = prbs_for_bandwidth(MHz(100), cfg.scs);
  const int cell_prbs = prbs_for_bandwidth(MHz(40), cfg.scs);

  Deployment* host_dep = nullptr;
  Deployment::DuHandle host_du{};
  Deployment::RuHandle shared_ru{};

  for (int i = 0; i < cfg.n_cells; ++i) {
    City::CellShard& shard = city->add_cell("c" + std::to_string(i));
    Deployment& d = *shard.dep;
    const bool is_host = cfg.neutral_host && i == 0;

    CellConfig cell;
    cell.pci = std::uint16_t(i + 1);
    cell.bandwidth = MHz(40);
    if (is_host)
      // The host cell is tenant 0 of the shared 100 MHz grid.
      cell.center_freq = aligned_du_center_frequency(
          shared_center, shared_prbs, cell_prbs, kHostOffset, cfg.scs);
    Deployment::DuHandle du = d.add_du(cell, vendor, std::uint8_t(i));

    RuSite site;
    site.pos = cfg.campus.ru_position(i, 0, 1);
    site.n_antennas = 4;
    site.center_freq = is_host ? shared_center : cell.center_freq;
    site.bandwidth = is_host ? MHz(100) : MHz(40);
    Deployment::RuHandle ru = d.add_ru(site, std::uint8_t(i), du.du->fh());

    MiddleboxRuntime* rt = nullptr;
    if (is_host) {
      // Wired below, once the guest DU exists (the RU-share runtime needs
      // both tenants at construction).
      host_dep = &d;
      host_du = du;
      shared_ru = ru;
    } else if (cfg.prbmon) {
      rt = &d.add_prbmon(du, ru);
    } else {
      d.connect_direct(du, ru);
    }

    for (int k = 0; k < cfg.ues_per_cell; ++k) {
      const Position pos = cfg.campus.near_ru(i, 0, 1, 2.0 + 1.5 * k);
      shard.ues.push_back(
          d.add_ue(pos, &du, cfg.dl_mbps, cfg.ul_mbps, cell.pci));
    }

    if (cfg.faults && !is_host) {
      FaultyLink* link = nullptr;
      add_cell_faults(d, *du.port, cfg.fault_seed + std::uint64_t(i) * 0x9e37,
                      &link);
      if (cfg.controller && rt) {
        ctrl::AdaptationController& c = d.add_controller();
        d.ctrl_watch(c, *link, *rt, ru);
      }
    }
  }

  if (cfg.neutral_host) {
    Deployment& h = *host_dep;
    Deployment& g = *city->cell(1).dep;

    // Guest DU, homed in shard c1 but renting PRBs of c0's shared RU. Not
    // engine-driven: the conductor steps it at virtual slot T+1. Its UL
    // return frames arrive 2-3 virtual slots after their window opened,
    // hence the widened matching window.
    CellConfig gcell;
    gcell.pci = std::uint16_t(kGuestPci);
    gcell.bandwidth = MHz(40);
    gcell.center_freq = aligned_du_center_frequency(
        shared_center, shared_prbs, cell_prbs, kGuestOffset, cfg.scs);
    Deployment::DuHandle gdu =
        g.add_du(gcell, vendor, std::uint8_t(cfg.n_cells),
                 /*engine_driven=*/false, /*ul_match_slots=*/4);

    // Phantom copy of the shared RU site in the guest air: it never
    // radiates (the real RU lives in the host shard), but it gives the
    // guest cell a channel footprint so UE reports and UL resolution see
    // the true path loss.
    const RuSite shared_site = h.air.ru(shared_ru.id);
    const int guest_off =
        Deployment::prb_offset_in_ru(gdu.du->config().cell, shared_site);
    const RuId phantom = g.air.add_ru(shared_site);
    g.air.assign_ru(gdu.cell, phantom, guest_off);

    // The guest UE exists twice: for real in the host air (attaches via
    // the actual SSB/PRACH datapath through the shared RU) and as a
    // mirror in the guest air (carries the offered traffic and the
    // UL-authoritative counters). Same position, so both airs model the
    // same geometry.
    const Position gpos = cfg.campus.near_ru(0, 0, 1, 4.0);
    const UeId mirror_ue =
        g.add_ue(gpos, &gdu, cfg.dl_mbps, cfg.ul_mbps, kGuestPci);
    city->cell(1).ues.push_back(mirror_ue);
    const UeId real_ue = h.add_ue(gpos, nullptr, 0, 0, kGuestPci);
    city->cell(0).ues.push_back(real_ue);

    // The guest cell registered in the host air; the share below assigns
    // it the shared RU's rented slice.
    const CellId mirror_cell = h.air.add_cell(gdu.du->config().cell);

    // Cross-shard conduit: guest DU port <-> xlink <-> share north1.
    XLink& xl = city->add_xlink("xl:" + g.name_prefix + "du" +
                                std::to_string(cfg.n_cells));
    Port::connect(xl.a, *gdu.port, 500);

    // RU-share middlebox in the host shard. Tenant 1 is the guest DU of
    // another shard, reached through the xlink's host-side endpoint.
    MiddleboxRuntime* share_rt = &h.add_rushare(
        {{host_du.du, host_du.port, host_du.cell},
         {gdu.du, &xl.b, mirror_cell, 500}},
        shared_ru);

    city->add_guest_du(1, *gdu.du);

    NeutralHostShare s;
    s.name = "share:" + h.cell_label + "<-" + g.cell_label;
    s.guest_cell = 1;
    s.host_cell = 0;
    s.guest_du = gdu.du;
    s.guest_cell_air = gdu.cell;
    s.mirror_cell_air = mirror_cell;
    s.mirror_ue = mirror_ue;
    s.real_ue = real_ue;
    city->add_share(s);

    if (cfg.faults) {
      FaultyLink* link = nullptr;
      add_cell_faults(h, *host_du.port, cfg.fault_seed ^ 0xc0ffee, &link);
      if (cfg.controller) {
        ctrl::AdaptationController& c = h.add_controller();
        h.ctrl_watch(c, *link, *share_rt, shared_ru);
      }
    }
  }

  city->finalize();
  return city;
}

}  // namespace rb::city
