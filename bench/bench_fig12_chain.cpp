// Figure 12: chaining the RU-sharing and DAS middleboxes to host two
// mobile network operators (40 MHz each) over the same four shared
// 100 MHz RUs with seamless floor coverage (~350 Mbps per MNO UE).
//
// Topology (Deployment::add_rushare over an RU set):
//   DU_A --.
//           rushare --- das --- switch --- RU1..RU4
//   DU_B --'
#include <chrono>
#include <vector>

#include "bench_util.h"
#include "iq/kernels/kernels.h"

namespace rb::bench {
namespace {

struct ChainRig {
  Deployment d;
  Deployment::DuHandle du_a, du_b;
  std::vector<Deployment::RuHandle> rus;
  Deployment::ShareChain chain;
  UeId ue_a = -1, ue_b = -1;

  ChainRig() {
    // Two 40 MHz MNO cells aligned inside the shared 100 MHz grid.
    const Hertz ca =
        aligned_du_center_frequency(kBand78Center, 273, 106, 10, Scs::kHz30);
    const Hertz cb =
        aligned_du_center_frequency(kBand78Center, 273, 106, 150, Scs::kHz30);
    du_a = d.add_du(cell_cfg(MHz(40), ca, 1), srsran_profile(), 0);
    du_b = d.add_du(cell_cfg(MHz(40), cb, 2), srsran_profile(), 1);
    for (int i = 0; i < 4; ++i)
      rus.push_back(d.add_ru(
          ru_site(d.plan.ru_position(0, i), 4, MHz(100), kBand78Center),
          std::uint8_t(i), du_a.du->fh()));
    std::vector<Deployment::RuHandle*> ptrs;
    for (auto& r : rus) ptrs.push_back(&r);
    chain = d.add_rushare({&du_a, &du_b}, ptrs);

    ue_a = d.add_ue(d.plan.near_ru(0, 0, 2.0), &du_a, 500, 50, 1);
    ue_b = d.add_ue(d.plan.near_ru(0, 3, 2.0), &du_b, 500, 50, 2);
  }
};

}  // namespace
}  // namespace rb::bench

int main() {
  using namespace rb::bench;
  header("Figure 12 - RU sharing + DAS chain: two MNOs, seamless coverage",
         "SIGCOMM'25 RANBooster section 6.3.2, Figure 12");
  ChainRig rig;
  const bool attached = rig.d.attach_all(900);
  row("both MNO UEs attached through the chain: %s",
      attached ? "yes" : "NO");
  // Walk both UEs across the floor, measuring at each point.
  const auto route = rig.d.plan.walk_route(0, 8, 2);
  double mean_a = 0, mean_b = 0;
  row("%8s %8s | %12s %12s", "x (m)", "y (m)", "MNO-A Mbps", "MNO-B Mbps");
  for (const auto& pos : route) {
    rig.d.air.set_ue_position(rig.ue_a, pos);
    rb::Position pb = pos;
    pb.y = rig.d.plan.depth_m - pos.y;
    rig.d.air.set_ue_position(rig.ue_b, pb);
    rig.d.engine.run_slots(80);
    rig.d.measure(160);
    const double a = rig.d.dl_mbps(rig.ue_a);
    const double b = rig.d.dl_mbps(rig.ue_b);
    row("%8.1f %8.1f | %12.1f %12.1f", pos.x, pos.y, a, b);
    mean_a += a / double(route.size());
    mean_b += b / double(route.size());
  }
  row("mean across floor: MNO-A %.1f Mbps, MNO-B %.1f Mbps "
      "(paper: ~350 Mbps each)", mean_a, mean_b);
  row("chain stats: rushare muxed=%llu, das merges=%llu, pcie-style hops "
      "traversed by every frame",
      (unsigned long long)rig.chain.share->telemetry().counter(
          "rushare_dl_muxed"),
      (unsigned long long)rig.chain.das->telemetry().counter("das_merges"));

  // Per-kernel-tier chain throughput: the same loaded chain pumped under
  // each available IQ kernel tier (the A4 codec + combine dominate the
  // slot budget, so the dispatch tier shows up directly in wall time).
  // One 160-slot sample per tier: it spreads about +-20% across runs, so
  // it is a report, not a number to diff.
  const rb::KernelTier active = rb::iq_kernel_tier();
  row("iq kernel dispatch: active=%s (one 160-slot sample per tier)",
      rb::kernel_tier_name(active));
  for (std::size_t t = 0; t < rb::kKernelTierCount; ++t) {
    const auto tier = rb::KernelTier(t);
    if (!rb::iq_tier_available(tier)) continue;
    rb::iq_force_tier(tier);
    rig.d.engine.run_slots(20);  // warm the tier's code paths
    const auto t0 = std::chrono::steady_clock::now();
    rig.d.engine.run_slots(160);
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    row("  tier %-6s : %8.1f slots/s wall", rb::kernel_tier_name(tier),
        160.0 / dt);
  }
  rb::iq_force_tier(active);
  return 0;
}
