// City conductor tests (DESIGN.md 4j): campus geometry, multi-cell
// traffic, city-wide serial == parallel determinism (including a
// 2000-slot chaos soak with a neutral-host RU shared between two
// shards), whole-city checkpoint/restore, mgmt routing and the cell
// telemetry label.
#include <gtest/gtest.h>

#include <sstream>

#include "city/city.h"
#include "core/mgmt.h"
#include "job_threads.h"
#include "ran/vendor.h"
#include "sim/campus.h"

namespace rb {
namespace {

using city::build_city;
using city::City;
using city::CityConfig;

// --- campus geometry (satellite: Floorplan -> Campus) -----------------

TEST(Campus, GridPlacesBuildingsRowMajor) {
  Campus c;
  c.grid_cols = 4;
  EXPECT_DOUBLE_EQ(c.building_origin(0).x, 0.0);
  EXPECT_DOUBLE_EQ(c.building_origin(3).x, 3 * c.grid_dx_m);
  EXPECT_DOUBLE_EQ(c.building_origin(3).y, 0.0);
  EXPECT_DOUBLE_EQ(c.building_origin(4).x, 0.0);
  EXPECT_DOUBLE_EQ(c.building_origin(4).y, c.grid_dy_m);
  EXPECT_DOUBLE_EQ(c.building_origin(9).x, c.grid_dx_m);
  EXPECT_DOUBLE_EQ(c.building_origin(9).y, 2 * c.grid_dy_m);
}

TEST(Campus, TranslatedQueriesMatchFloorplanPlusOrigin) {
  Campus c;
  const Position local = c.building.ru_position(2, 1);
  const Position placed = c.ru_position(10, 2, 1);
  const Position origin = c.building_origin(10);
  EXPECT_DOUBLE_EQ(placed.x, local.x + origin.x);
  EXPECT_DOUBLE_EQ(placed.y, local.y + origin.y);
  EXPECT_EQ(placed.floor, local.floor);

  const auto local_route = c.building.walk_route(0, 4, 2);
  const auto placed_route = c.walk_route(5, 0, 4, 2);
  ASSERT_EQ(local_route.size(), placed_route.size());
  for (std::size_t i = 0; i < local_route.size(); ++i) {
    EXPECT_DOUBLE_EQ(placed_route[i].x, local_route[i].x + c.building_origin(5).x);
    EXPECT_DOUBLE_EQ(placed_route[i].y, local_route[i].y + c.building_origin(5).y);
  }
  EXPECT_DOUBLE_EQ(c.area_sqft(8), 8.0 * c.building.area_sqft());
}

TEST(Campus, BuildingsAreChannelIsolated) {
  // The grid pitch must put neighbour buildings far enough apart that a
  // UE hears its own building's RU much louder than the neighbour's.
  Campus c;
  const Position ue = c.near_ru(0, 0, 1, 3.0);
  const Position own = c.ru_position(0, 0, 1);
  const Position other = c.ru_position(1, 0, 1);
  const double d_own = std::hypot(ue.x - own.x, ue.y - own.y);
  const double d_other = std::hypot(ue.x - other.x, ue.y - other.y);
  EXPECT_GT(d_other, 5.0 * d_own);
}

// --- multi-cell traffic -----------------------------------------------

TEST(CityTopology, CellsCarryIndependentTraffic) {
  CityConfig cfg;
  cfg.n_cells = 3;
  cfg.ues_per_cell = 1;
  cfg.dl_mbps = 150.0;
  cfg.ul_mbps = 15.0;
  auto c = build_city(cfg);
  ASSERT_TRUE(c->attach_all(800));
  c->measure(400);
  for (int i = 0; i < cfg.n_cells; ++i) {
    const UeId ue = c->cell(std::size_t(i)).ues.at(0);
    EXPECT_GT(c->dl_mbps(i, ue), 100.0) << "cell " << i;
    EXPECT_GT(c->ul_mbps(i, ue), 8.0) << "cell " << i;
  }
}

// --- cell label on telemetry series (satellite 1) ---------------------

TEST(CityTopology, PromSeriesCarryCellLabel) {
  CityConfig cfg;
  cfg.n_cells = 2;
  auto c = build_city(cfg);
  c->run_slots(40);
  ASSERT_TRUE(c->cell(0).mgmt);
  const std::string prom = c->cell(0).mgmt->handle("prom");
  EXPECT_NE(prom.find("cell=\"c0\""), std::string::npos);
  EXPECT_NE(prom.find("mb=\"c0/prbmon0\""), std::string::npos);
}

TEST(CityTopology, SingleCellPromOutputHasNoCellLabel) {
  // Outside city mode the label must not render at all: single-cell
  // Prometheus output stays byte-identical to pre-city builds.
  Deployment d;
  auto du = d.add_du(CellConfig{}, srsran_profile(), 0);
  RuSite site;
  site.pos = d.plan.ru_position(0, 1);
  auto ru = d.add_ru(site, 0, du.du->fh());
  d.add_prbmon(du, ru);
  d.add_ue(d.plan.near_ru(0, 1, 3.0), &du, 50.0, 5.0);
  ASSERT_TRUE(d.attach_all(600));
  MgmtEndpoint ep(*d.runtimes.front());
  const std::string prom = ep.handle("prom");
  EXPECT_EQ(prom.find("cell="), std::string::npos);
  EXPECT_NE(prom.find("rb_mb_counter{mb=\"prbmon0\",name="), std::string::npos);
}

// --- neutral-host share across shards ---------------------------------

TEST(CityNeutralHost, GuestAttachesAndCarriesTrafficAcrossShards) {
  CityConfig cfg;
  cfg.n_cells = 2;
  cfg.neutral_host = true;
  cfg.dl_mbps = 150.0;
  cfg.ul_mbps = 15.0;
  auto c = build_city(cfg);
  ASSERT_TRUE(c->attach_all(800));
  ASSERT_EQ(c->num_shares(), 1u);
  const auto& s = c->share(0);
  // The real UE attached in the host shard through the actual SSB/PRACH
  // datapath (shared RU -> xlink -> guest DU -> bridge).
  EXPECT_TRUE(c->cell(0).dep->air.is_attached(s.real_ue));
  EXPECT_EQ(c->cell(0).dep->air.serving_cell(s.real_ue), s.mirror_cell_air);
  EXPECT_GT(s.prach_seen, 0u);

  c->measure(400);
  // Guest throughput is credited in the guest shard (where the DU and
  // traffic live) against radiation that happened in the host shard.
  EXPECT_GT(c->dl_mbps(1, s.mirror_ue), 50.0);
  EXPECT_GT(c->ul_mbps(1, s.mirror_ue), 5.0);
  // The host cell's own UE shares the same RU and still gets service.
  const UeId host_ue = c->cell(0).ues.at(0);
  EXPECT_GT(c->dl_mbps(0, host_ue), 100.0);
  // Bridged counters agree between the two views of the one UE.
  EXPECT_EQ(c->cell(0).dep->air.dl_bits(s.real_ue),
            c->cell(1).dep->air.dl_bits(s.mirror_ue));
  EXPECT_EQ(c->cell(0).dep->air.ul_bits(s.real_ue),
            c->cell(1).dep->air.ul_bits(s.mirror_ue));
  // Nothing overflowed the cross-shard rings.
  for (std::size_t i = 0; i < c->num_xlinks(); ++i)
    EXPECT_EQ(c->xlink(i).dropped_ab + c->xlink(i).dropped_ba, 0u);
}

// --- determinism: serial == parallel(N), city-wide --------------------

struct CityRun {
  std::string fingerprint;
  std::size_t job_threads = 0;  // distinct threads that ran cell jobs
};

CityRun run_city(const CityConfig& cfg, int slots) {
  auto c = build_city(cfg);
  JobThreads threads(*c);
  EXPECT_TRUE(c->attach_all(800));
  c->run_slots(slots);
  return {c->fingerprint(), threads.distinct()};
}

TEST(CityDeterminism, SerialEqualsParallelPlainCells) {
  CityConfig cfg;
  cfg.n_cells = 4;
  cfg.workers = 0;
  const CityRun serial = run_city(cfg, 300);
  cfg.workers = 3;
  const CityRun parallel = run_city(cfg, 300);
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  EXPECT_EQ(serial.job_threads, 1u);
  EXPECT_GE(parallel.job_threads, 2u);
}

TEST(CityChaosSoak, SerialEqualsParallelUnderFaultsWithNeutralHost) {
  // The acceptance soak: 4 cells, per-cell fault cocktails, controllers,
  // and a neutral-host RU shared between shards c0 and c1, run for 2000
  // slots. A serial conductor and a parallel(2) conductor must produce
  // byte-identical fingerprints (every counter, fault link, controller,
  // DU stat and UE result in every shard).
  CityConfig cfg;
  cfg.n_cells = 4;
  cfg.neutral_host = true;
  cfg.faults = true;
  cfg.controller = true;
  cfg.workers = 0;
  const CityRun serial = run_city(cfg, 2000);
  cfg.workers = 2;
  const CityRun parallel = run_city(cfg, 2000);
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  EXPECT_NE(serial.fingerprint.find("share:"), std::string::npos);
  EXPECT_GE(parallel.job_threads, 2u);
}

// --- whole-city checkpoint/restore ------------------------------------

TEST(CityCheckpoint, RestoredCityResumesBitIdentically) {
  CityConfig cfg;
  cfg.n_cells = 2;
  cfg.neutral_host = true;

  auto a = build_city(cfg);
  ASSERT_TRUE(a->attach_all(800));
  a->run_slots(100);
  const std::vector<std::uint8_t> blob = a->checkpoint();
  a->run_slots(200);
  const std::string uninterrupted = a->fingerprint();

  auto b = build_city(cfg);
  const RestoreResult rr = b->restore(blob);
  ASSERT_TRUE(rr.ok()) << rr.detail;
  EXPECT_EQ(b->current_slot(), a->current_slot() - 200);
  b->run_slots(200);
  EXPECT_EQ(b->fingerprint(), uninterrupted);
}

TEST(CityCheckpoint, SerialCheckpointResumesOnParallelConductor) {
  // Execution mode is not state: a checkpoint of a serial city restores
  // into a 2-worker build of the same topology and resumes bit-identically
  // to the uninterrupted serial run.
  CityConfig cfg;
  cfg.n_cells = 4;
  cfg.neutral_host = true;
  cfg.faults = true;
  cfg.controller = true;
  cfg.workers = 0;

  auto a = build_city(cfg);
  ASSERT_TRUE(a->attach_all(800));
  a->run_slots(100);
  const std::vector<std::uint8_t> blob = a->checkpoint();
  a->run_slots(300);
  const std::string uninterrupted = a->fingerprint();

  cfg.workers = 2;
  auto b = build_city(cfg);
  JobThreads threads(*b);
  const RestoreResult rr = b->restore(blob);
  ASSERT_TRUE(rr.ok()) << rr.detail;
  b->run_slots(300);
  EXPECT_EQ(b->fingerprint(), uninterrupted);
  EXPECT_GE(threads.distinct(), 2u);
}

TEST(CityCheckpoint, MismatchedTopologyIsRejectedTyped) {
  CityConfig cfg;
  cfg.n_cells = 2;
  auto a = build_city(cfg);
  a->run_slots(20);
  const auto blob = a->checkpoint();

  CityConfig other = cfg;
  other.n_cells = 3;
  auto b = build_city(other);
  const RestoreResult rr = b->restore(blob);
  EXPECT_FALSE(rr.ok());
  EXPECT_EQ(rr.error, state::StateError::kMismatch);
}

// --- mgmt: the city verb (satellite 2) --------------------------------

TEST(CityMgmt, ConductorVerbsAndPerCellRouting) {
  CityConfig cfg;
  cfg.n_cells = 2;
  cfg.neutral_host = true;
  auto c = build_city(cfg);
  ASSERT_TRUE(c->attach_all(800));
  c->run_slots(20);

  const std::string list = c->city_mgmt("list");
  EXPECT_NE(list.find("cells=2"), std::string::npos);
  EXPECT_NE(list.find("c0 "), std::string::npos);
  EXPECT_NE(list.find("c1 "), std::string::npos);

  const std::string budget = c->city_mgmt("budget");
  EXPECT_NE(budget.find("slot_budget_ns=500000"), std::string::npos);
  EXPECT_NE(budget.find("c0 slots="), std::string::npos);

  const std::string rings = c->city_mgmt("rings");
  EXPECT_NE(rings.find("depth_ab=0"), std::string::npos);
  EXPECT_NE(rings.find("fwd_ab="), std::string::npos);

  // Existing verbs route to a named cell's middlebox endpoint.
  EXPECT_EQ(c->city_mgmt("cell c0 name"), "c0/rushare0");
  EXPECT_NE(c->city_mgmt("cell c1 stats").find("="), std::string::npos);
  EXPECT_NE(c->city_mgmt("cell nope name").find("unknown cell"),
            std::string::npos);

  // And the city verb is reachable from any cell's endpoint.
  ASSERT_TRUE(c->cell(0).mgmt);
  EXPECT_NE(c->cell(0).mgmt->handle("city list").find("cells=2"),
            std::string::npos);
  EXPECT_NE(c->cell(0).mgmt->handle("help").find("city"), std::string::npos);
}

// --- widened UL matching window stays result-identical ----------------

TEST(CityDuWindow, WidenedUlMatchWindowMatchesLegacyResults) {
  // ul_match_slots > 1 (the guest-DU mode) must not change behaviour
  // when frames arrive in their own slot: same UL throughput, no decode
  // failures, as the legacy single-slot matcher.
  auto run = [](int ul_match_slots) {
    Deployment d;
    auto du = d.add_du(CellConfig{}, srsran_profile(), 0,
                       /*engine_driven=*/true, ul_match_slots);
    RuSite site;
    site.pos = d.plan.ru_position(0, 1);
    auto ru = d.add_ru(site, 0, du.du->fh());
    d.connect_direct(du, ru);
    const UeId ue = d.add_ue(d.plan.near_ru(0, 1, 3.0), &du, 100.0, 20.0);
    EXPECT_TRUE(d.attach_all(600));
    d.measure(300);
    std::ostringstream os;
    os << "ul=" << d.air.ul_bits(ue) << " dl=" << d.air.dl_bits(ue)
       << " udf=" << du.du->stats().ul_decode_fail
       << " late=" << du.du->stats().late_drops;
    return os.str();
  };
  EXPECT_EQ(run(1), run(3));
}

}  // namespace
}  // namespace rb
