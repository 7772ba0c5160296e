// End-to-end distributed MIMO (paper 4.2 / 6.2.2, Table 2): two RUs with
// half the antennas each equal one RU with all of them; antenna-port
// remapping and SSB copying are exercised on the real packet path.
#include <gtest/gtest.h>

#include "sim/deployment.h"

namespace rb {
namespace {

CellConfig cell100(int layers) {
  CellConfig c;
  c.bandwidth = MHz(100);
  c.max_layers = layers;
  c.pci = 1;
  return c;
}

RuSite site_at(const Floorplan& plan, int floor, int idx, int ants,
               Hertz cf) {
  RuSite s;
  s.pos = plan.ru_position(floor, idx);
  s.n_antennas = ants;
  s.bandwidth = MHz(100);
  s.center_freq = cf;
  return s;
}

/// Single co-located RU baseline at a given layer count.
double baseline_dl(int layers, int* rank_out) {
  Deployment d;
  auto du = d.add_du(cell100(layers), srsran_profile(), 0);
  auto ru = d.add_ru(site_at(d.plan, 0, 1, layers, du.du->config().cell.center_freq),
                     0, du.du->fh());
  d.connect_direct(du, ru);
  const UeId ue = d.add_ue(d.plan.near_ru(0, 1, 5.0), &du, 1200.0, 100.0);
  EXPECT_TRUE(d.attach_all(400));
  d.measure(400);
  if (rank_out) *rank_out = d.air.last_rank(ue);
  return d.dl_mbps(ue);
}

/// dMIMO over two RUs ~5 m apart with `ants_each` antennas each.
double dmimo_dl(int ants_each, int* rank_out, std::uint64_t* remaps) {
  Deployment d;
  const int layers = 2 * ants_each;
  auto du = d.add_du(cell100(layers), srsran_profile(), 0);
  const Hertz cf = du.du->config().cell.center_freq;
  RuSite s1 = site_at(d.plan, 0, 1, ants_each, cf);
  RuSite s2 = s1;
  s2.pos.x += 5.0;  // "approximately 5 meters apart" (6.2.2)
  auto ru1 = d.add_ru(s1, 0, du.du->fh());
  auto ru2 = d.add_ru(s2, 1, du.du->fh());
  auto& rt = d.add_dmimo(du, {&ru1, &ru2});
  // Equidistant at ~5 m from both RUs (perpendicular offset from the
  // midpoint), matching the baseline UE's 5 m range.
  Position pos = s1.pos;
  pos.x += 2.5;
  pos.y += 4.33;
  const UeId ue = d.add_ue(pos, &du, 1200.0, 100.0);
  EXPECT_TRUE(d.attach_all(400));
  d.measure(400);
  if (rank_out) *rank_out = d.air.last_rank(ue);
  if (remaps) *remaps = rt.telemetry().counter("dmimo_dl_remaps");
  EXPECT_EQ(d.dus[0]->stats().parse_errors, 0u);
  return d.dl_mbps(ue);
}

TEST(E2eDmimo, TwoLayerMatchesSingleRuBaseline) {
  int base_rank = 0, dm_rank = 0;
  std::uint64_t remaps = 0;
  const double base = baseline_dl(2, &base_rank);
  const double dmimo = dmimo_dl(1, &dm_rank, &remaps);
  // Table 2: 653.4 vs 654.1 Mbps, both rank 2.
  EXPECT_NEAR(base, 653.4, 653.4 * 0.10);
  EXPECT_NEAR(dmimo, base, base * 0.08);
  EXPECT_EQ(base_rank, 2);
  EXPECT_EQ(dm_rank, 2);
  EXPECT_GT(remaps, 0u);  // port ids really were rewritten
}

TEST(E2eDmimo, FourLayerMatchesSingleRuBaseline) {
  int base_rank = 0, dm_rank = 0;
  std::uint64_t remaps = 0;
  const double base = baseline_dl(4, &base_rank);
  const double dmimo = dmimo_dl(2, &dm_rank, &remaps);
  // Table 2: 898.2 vs 896.9 Mbps, both rank 4.
  EXPECT_NEAR(base, 898.2, 898.2 * 0.10);
  EXPECT_NEAR(dmimo, base, base * 0.08);
  EXPECT_EQ(base_rank, 4);
  EXPECT_EQ(dm_rank, 4);
  EXPECT_GT(remaps, 0u);
}

TEST(E2eDmimo, WithoutMiddleboxSecondRuDropsUnknownPorts) {
  // Plugging a 4-layer DU into a 2-antenna RU without the middlebox: the
  // RU rejects ports 2-3 and the link degrades to the RU's own rank.
  Deployment d;
  auto du = d.add_du(cell100(4), srsran_profile(), 0);
  auto ru = d.add_ru(site_at(d.plan, 0, 1, 2, du.du->config().cell.center_freq),
                     0, du.du->fh());
  d.connect_direct(du, ru);
  const UeId ue = d.add_ue(d.plan.near_ru(0, 1, 5.0), &du, 1200.0, 100.0);
  ASSERT_TRUE(d.attach_all(400));
  d.measure(300);
  EXPECT_LE(d.air.last_rank(ue), 2);
  EXPECT_GT(ru.ru->stats().unexpected_port_drops, 0u);
}

TEST(E2eDmimo, SsbCopyExtendsCoverageToSecondRu) {
  // A UE near RU2 but far from RU1 attaches only because the middlebox
  // grafts the SSB into RU2's primary antenna stream (paper 4.2).
  auto build = [](bool copy_ssb, UeId* ue_out, Deployment& d) {
    auto du = d.add_du(cell100(4), srsran_profile(), 0);
    const Hertz cf = du.du->config().cell.center_freq;
    RuSite s1 = site_at(d.plan, 0, 0, 2, cf);
    RuSite s2 = site_at(d.plan, 0, 3, 2, cf);  // far across the floor
    auto ru1 = d.add_ru(s1, 0, du.du->fh());
    auto ru2 = d.add_ru(s2, 1, du.du->fh());
    d.add_dmimo(du, {&ru1, &ru2}, DriverKind::Dpdk, copy_ssb);
    *ue_out = d.add_ue(d.plan.near_ru(0, 3, 2.0), &du, 100.0, 10.0);
  };
  {
    Deployment d;
    UeId ue;
    build(false, &ue, d);
    d.engine.run_slots(300);
    EXPECT_FALSE(d.air.is_attached(ue)) << "attached without SSB copy";
  }
  {
    Deployment d;
    UeId ue;
    build(true, &ue, d);
    d.engine.run_slots(300);
    EXPECT_TRUE(d.air.is_attached(ue)) << "SSB copy should enable attach";
  }
}

/// Figure 14 (paper 6.3.2): one 4-layer cell over five floors, a DAS
/// stage feeding one dMIMO stage per floor of four 1-antenna RUs. Built
/// only through Deployment.
TEST(E2eDasDmimo, FiveFloorChainCarriesDlAndUl) {
  constexpr int kFloors = 5;
  Deployment d;
  auto du = d.add_du(cell100(4), srsran_profile(), 0);
  const Hertz cf = du.du->config().cell.center_freq;
  std::vector<Deployment::RuHandle> rus;
  for (int f = 0; f < kFloors; ++f)
    for (int i = 0; i < 4; ++i)
      rus.push_back(d.add_ru(site_at(d.plan, f, i, 1, cf),
                             std::uint8_t(f * 4 + i), du.du->fh()));
  std::vector<std::vector<Deployment::RuHandle*>> floors(kFloors);
  for (std::size_t r = 0; r < rus.size(); ++r)
    floors[r / 4].push_back(&rus[r]);
  const Deployment::DasChain chain = d.add_das(du, floors);
  ASSERT_EQ(chain.dmimo.size(), std::size_t(kFloors));
  std::vector<UeId> ues;
  for (int f = 0; f < kFloors; ++f)
    for (int i = 0; i < 4; ++i)
      ues.push_back(d.add_ue(d.plan.near_ru(f, i, 3.0), &du, 400.0, 50.0));
  ASSERT_TRUE(d.attach_all(900));

  d.measure(200);
  double all_dl = 0, ul = 0;
  for (int f = 0; f < kFloors; ++f) {
    double floor_dl = 0;
    for (int i = 0; i < 4; ++i) {
      floor_dl += d.dl_mbps(ues[std::size_t(f * 4 + i)]);
      ul += d.ul_mbps(ues[std::size_t(f * 4 + i)]);
    }
    EXPECT_GT(floor_dl, 100.0) << "floor " << f;
    all_dl += floor_dl;
  }
  EXPECT_GT(ul, 0.0);
  // Merged UL reaches the DU: every group's copy carries a member MAC.
  const Telemetry& das = chain.das->telemetry();
  EXPECT_GT(das.counter("das_merges"), 0u);
  EXPECT_EQ(das.counter("das_merge_failures"), 0u);
  EXPECT_EQ(das.counter("das_unknown_source_copies"), 0u);

  // Only floor 0 active: its UEs get the cell's whole capacity.
  d.traffic.clear();
  du.du->scheduler().clear_backlogs();
  for (int i = 0; i < 4; ++i)
    d.traffic.set_flow(*du.du, ues[std::size_t(i)], 400.0, 0.0);
  d.engine.run_slots(60);
  d.measure(200);
  double burst = 0;
  for (int i = 0; i < 4; ++i) burst += d.dl_mbps(ues[std::size_t(i)]);
  EXPECT_GT(burst, all_dl / kFloors);
}

}  // namespace
}  // namespace rb
