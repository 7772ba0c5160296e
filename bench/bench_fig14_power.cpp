// Figure 14: power consumption and per-floor UE throughput for covering
// five floors with (a) one dMIMO cell per floor (two servers, ~400 W) vs
// (b) a single cell distributed by a DAS+dMIMO chain (one partly
// down-clocked server, ~180 W).
#include "bench_util.h"

namespace rb::bench {
namespace {

/// (a) One floor's dMIMO cell with 4 UEs at full load; floors are on
/// frequency reuse with negligible inter-floor interference, so one floor
/// is simulated and scaled.
double per_floor_dmimo_mbps() {
  Deployment d;
  auto du = d.add_du(cell_cfg(MHz(100), kBand78Center, 1, 4),
                     srsran_profile(), 0);
  std::vector<Deployment::RuHandle> rus;
  std::vector<Deployment::RuHandle*> ptrs;
  for (int i = 0; i < 4; ++i)
    rus.push_back(d.add_ru(
        ru_site(d.plan.ru_position(0, i), 1, MHz(100), kBand78Center),
        std::uint8_t(i), du.du->fh()));
  for (auto& r : rus) ptrs.push_back(&r);
  d.add_dmimo(du, ptrs);
  std::vector<UeId> ues;
  for (int i = 0; i < 4; ++i)
    ues.push_back(d.add_ue(d.plan.near_ru(0, i, 6.0), &du, 400, 0));
  d.attach_all(800);
  d.measure(300);
  double total = 0;
  for (UeId ue : ues) total += d.dl_mbps(ue);
  return total;
}

/// (b) Single cell across five floors: DAS over five dMIMO groups
/// (20 x 1-antenna RUs total). Reports the per-floor mean with all 20 UEs
/// active and the single-floor throughput when only one floor is active.
void das_dmimo_chain(double* per_floor_all_active,
                     double* single_floor_burst) {
  Deployment d;
  auto du = d.add_du(cell_cfg(MHz(100), kBand78Center, 1, 4),
                     srsran_profile(), 0);

  // Four 1-antenna RUs per floor, each with a UE 3 m away; one dMIMO
  // group per floor.
  std::vector<Deployment::RuHandle> rus;
  std::vector<UeId> ues;
  for (int f = 0; f < 5; ++f)
    for (int i = 0; i < 4; ++i) {
      rus.push_back(d.add_ru(
          ru_site(d.plan.ru_position(f, i), 1, MHz(100), kBand78Center),
          std::uint8_t(f * 4 + i), du.du->fh()));
      ues.push_back(d.add_ue(d.plan.near_ru(f, i, 3.0), &du, 400, 0));
    }
  std::vector<std::vector<Deployment::RuHandle*>> floors(5);
  for (std::size_t r = 0; r < rus.size(); ++r)
    floors[r / 4].push_back(&rus[r]);
  d.add_das(du, floors);

  d.attach_all(900);
  d.measure(300);
  double total = 0;
  for (UeId ue : ues) total += d.dl_mbps(ue);
  *per_floor_all_active = total / 5.0;

  // Burst: only floor 0's UEs active.
  d.traffic.clear();
  du.du->scheduler().clear_backlogs();
  for (int i = 0; i < 4; ++i) d.traffic.set_flow(*du.du, ues[std::size_t(i)], 400, 0);
  d.engine.run_slots(60);
  d.measure(300);
  double floor0 = 0;
  for (int i = 0; i < 4; ++i) floor0 += d.dl_mbps(ues[std::size_t(i)]);
  *single_floor_burst = floor0;
}

}  // namespace
}  // namespace rb::bench

int main() {
  using namespace rb;
  using namespace rb::bench;
  header("Figure 14 - power vs throughput: per-floor dMIMO cells vs single "
         "DAS+dMIMO cell",
         "SIGCOMM'25 RANBooster section 6.3.2, Figure 14");
  PowerModel pm;

  // (a) five cells, five dMIMO middleboxes -> two servers fully active.
  const int cores_a = 5 * PowerModel::kCoresPerCell +
                      5 * PowerModel::kCoresPerMiddlebox;
  const double power_a =
      pm.server_power_w(pm.cores_per_server) +
      pm.server_power_w(cores_a - pm.cores_per_server);
  const double tput_a = per_floor_dmimo_mbps();
  row("(a) one dMIMO cell per floor : %4.0f W total, %6.1f Mbps per floor "
      "(paper: ~400 W, ~650 Mbps)", power_a, tput_a);

  // (b) one cell + DAS/dMIMO chain -> one server, half its cores at low
  // frequency, the second server off.
  const int cores_b =
      PowerModel::kCoresPerCell + 6 * PowerModel::kCoresPerMiddlebox;
  const int low_b = (pm.cores_per_server - cores_b) / 2;
  const double power_b = pm.server_power_w(cores_b, low_b);
  double per_floor_b = 0, burst_b = 0;
  das_dmimo_chain(&per_floor_b, &burst_b);
  row("(b) single cell, DAS+dMIMO   : %4.0f W total, %6.1f Mbps per floor, "
      "%6.1f Mbps single-floor burst (paper: ~180 W, ~150 Mbps, up to ~650)",
      power_b, per_floor_b, burst_b);
  row("power saving: %.0f%% (paper: '16%% reduction in overall network "
      "power' counting RUs; server-only saving is ~55%%)",
      100.0 * (power_a - power_b) / power_a);
  return 0;
}
