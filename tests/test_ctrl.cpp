// Closed-loop fronthaul adaptation controller (ISSUE 6): hysteresis policy
// unit tests driven by synthetic fault counters, end-to-end DAS ejection
// and recovery under a delay-poisoned link, mixed-width combining after a
// width actuation, and the controller-enabled chaos soak whose snapshot
// (runtime counters + fault counters + controller state) must replay
// bit-identically for the same seed.
#include <gtest/gtest.h>

#include <sstream>

#include "core/mgmt.h"
#include "sim/deployment.h"

namespace rb {
namespace {

using Mode = ctrl::AdaptationController::LinkMode;

CellConfig cell100() {
  CellConfig c;
  c.bandwidth = MHz(100);
  c.max_layers = 4;
  c.pci = 1;
  return c;
}

/// DAS cell over three floors with one loaded UE per floor (the chaos-rig
/// topology, here supervised by an adaptation controller).
struct CtrlDasRig {
  Deployment d;
  Deployment::DuHandle du;
  std::vector<Deployment::RuHandle> rus;
  MiddleboxRuntime* rt = nullptr;
  std::vector<UeId> ues;

  CtrlDasRig() {
    du = d.add_du(cell100(), srsran_profile(), 0);
    std::vector<Deployment::RuHandle*> ptrs;
    for (int f = 0; f < 3; ++f) {
      RuSite site;
      site.pos = d.plan.ru_position(f, 1);
      site.n_antennas = 4;
      site.bandwidth = MHz(100);
      site.center_freq = du.du->config().cell.center_freq;
      rus.push_back(d.add_ru(site, std::uint8_t(f), du.du->fh()));
    }
    for (auto& r : rus) ptrs.push_back(&r);
    rt = &d.add_das(du, ptrs, DriverKind::Dpdk, 2);
    for (int f = 0; f < 3; ++f)
      ues.push_back(d.add_ue(d.plan.near_ru(f, 1, 5.0), &du, 150.0, 15.0));
  }

  double total_ul() {
    double ul = 0;
    for (UeId ue : ues) ul += d.ul_mbps(ue);
    return ul;
  }
};

// --- policy unit tests (synthetic counters, capturing actuator) --------

struct UnitLink {
  FaultStats stats;
  std::vector<ctrl::CtrlAction> applied;
  bool accept = true;
};

ctrl::CtrlConfig fast_cfg() {
  ctrl::CtrlConfig cfg;
  cfg.alpha = 0.5;  // converge in a few slots so the test stays short
  cfg.hold_slots = 4;
  cfg.recover_hold_slots = 6;
  cfg.dwell_slots = 5;
  return cfg;
}

TEST(CtrlPolicy, EscalationLadderThenStepwiseRecovery) {
  const ctrl::CtrlConfig cfg = fast_cfg();
  ctrl::AdaptationController c(cfg);
  UnitLink l;
  ctrl::LinkSpec spec;
  spec.name = "unit";
  spec.ul_stats = &l.stats;
  spec.actuate = [&l](const ctrl::CtrlAction& a) {
    if (l.accept) l.applied.push_back(a);
    return l.accept;
  };
  const int link = c.add_link(spec);
  std::int64_t slot = 0;
  auto tick = [&](std::uint64_t pass, std::uint64_t drop) {
    l.stats.passed += pass;
    l.stats.iid_loss += drop;
    c.on_slot(slot++);
  };

  // Clean traffic: the controller watches and does nothing.
  for (int i = 0; i < 10; ++i) tick(100, 0);
  EXPECT_TRUE(l.applied.empty());
  EXPECT_EQ(c.mode(link), Mode::Healthy);
  EXPECT_NEAR(c.loss_ewma(link), 0.0, 1e-9);

  // 10% loss: over loss_reduce (1.5%), under loss_eject (20%). The EWMA
  // crosses on the first lossy slot; the hold streak delays the action
  // until hold_slots consecutive breaches.
  for (int i = 0; i < 3; ++i) tick(90, 10);
  EXPECT_TRUE(l.applied.empty());  // streak 3 < hold_slots 4
  tick(90, 10);
  ASSERT_EQ(l.applied.size(), 1u);
  EXPECT_EQ(l.applied[0].verb, ctrl::CtrlVerb::SetUlIqWidth);
  EXPECT_EQ(l.applied[0].value, cfg.degraded_iq_width);
  EXPECT_EQ(c.mode(link), Mode::WidthReduced);

  // Same loss level sustained: no repeat actions (already width-reduced,
  // not bad enough to eject).
  for (int i = 0; i < 20; ++i) tick(90, 10);
  EXPECT_EQ(l.applied.size(), 1u);

  // Loss deepens past loss_eject: the ladder escalates to ejection, once.
  for (int i = 0; i < 20; ++i) tick(50, 50);
  ASSERT_EQ(l.applied.size(), 2u);
  EXPECT_EQ(l.applied[1].verb, ctrl::CtrlVerb::SetDasMember);
  EXPECT_FALSE(l.applied[1].enable);
  EXPECT_EQ(c.mode(link), Mode::Ejected);

  // Sustained recovery de-escalates one rung at a time - readmit first,
  // width restore second - with at least dwell_slots between the rungs.
  for (int i = 0; i < 60; ++i) tick(100, 0);
  ASSERT_EQ(l.applied.size(), 4u);
  EXPECT_EQ(l.applied[2].verb, ctrl::CtrlVerb::SetDasMember);
  EXPECT_TRUE(l.applied[2].enable);
  EXPECT_EQ(l.applied[3].verb, ctrl::CtrlVerb::SetUlIqWidth);
  EXPECT_EQ(l.applied[3].value, spec.nominal_iq_width);
  EXPECT_GE(l.applied[3].slot - l.applied[2].slot, cfg.dwell_slots);
  EXPECT_EQ(c.mode(link), Mode::Healthy);
  EXPECT_EQ(c.actions_applied(), 4u);
}

TEST(CtrlPolicy, DelayBudgetBreachEjectsWithoutLoss) {
  const ctrl::CtrlConfig cfg = fast_cfg();
  ctrl::AdaptationController c(cfg);
  UnitLink l;
  ctrl::LinkSpec spec;
  spec.name = "slow";
  spec.ul_stats = &l.stats;
  spec.actuate = [&l](const ctrl::CtrlAction& a) {
    l.applied.push_back(a);
    return true;
  };
  const int link = c.add_link(spec);
  // Every packet delivered, but 60us late: a lossless link can still
  // poison DAS combines past the DU latency budget.
  for (std::int64_t slot = 0; slot < 20; ++slot) {
    l.stats.delayed += 10;
    l.stats.delay_ns_total += 10 * 60'000;
    c.on_slot(slot);
  }
  ASSERT_EQ(l.applied.size(), 1u);
  EXPECT_EQ(l.applied[0].verb, ctrl::CtrlVerb::SetDasMember);
  EXPECT_FALSE(l.applied[0].enable);
  EXPECT_EQ(c.mode(link), Mode::Ejected);
  EXPECT_NEAR(c.loss_ewma(link), 0.0, 1e-9);
  EXPECT_GT(c.delay_ewma_ns(link), double(cfg.delay_eject_ns));
}

TEST(CtrlPolicy, QuietSlotsFreezeEwmasAndRefusalsDontCount) {
  const ctrl::CtrlConfig cfg = fast_cfg();
  ctrl::AdaptationController c(cfg);
  UnitLink l;
  l.accept = false;  // actuator refuses (e.g. last active DAS member)
  ctrl::LinkSpec spec;
  spec.name = "frozen";
  spec.ul_stats = &l.stats;
  spec.actuate = [&l](const ctrl::CtrlAction& a) {
    if (l.accept) l.applied.push_back(a);
    return l.accept;
  };
  const int link = c.add_link(spec);
  std::int64_t slot = 0;
  for (int i = 0; i < 6; ++i) {
    l.stats.passed += 50;
    l.stats.iid_loss += 50;
    c.on_slot(slot++);
  }
  const double ewma = c.loss_ewma(link);
  EXPECT_GT(ewma, cfg.loss_eject);
  // A refused action leaves the controller ready to retry: no mode change,
  // no action counted.
  EXPECT_EQ(c.mode(link), Mode::Healthy);
  EXPECT_EQ(c.actions_applied(), 0u);
  // Slots with zero traffic freeze the EWMAs instead of decaying them
  // toward zero (no evidence = no opinion change).
  for (int i = 0; i < 10; ++i) c.on_slot(slot++);
  EXPECT_EQ(c.loss_ewma(link), ewma);
  // Once the actuator accepts, the pending breach applies immediately.
  l.accept = true;
  l.stats.passed += 50;
  l.stats.iid_loss += 50;
  c.on_slot(slot++);
  ASSERT_EQ(l.applied.size(), 1u);
  EXPECT_EQ(c.mode(link), Mode::Ejected);
}

// --- mgmt plumbing ------------------------------------------------------

TEST(CtrlMgmt, VerbRoutesThroughEndpointAndForcesActions) {
  CtrlDasRig rig;
  ASSERT_TRUE(rig.d.attach_all(600));
  MgmtEndpoint mgmt(*rig.rt);
  EXPECT_EQ(mgmt.handle("ctrl status"), "no controller attached");

  FaultPlan benign;
  auto& link = rig.d.add_fault(*rig.rus[0].port, benign);
  auto& c = rig.d.add_controller();
  const int li = rig.d.ctrl_watch(c, link, *rig.rt, rig.rus[0]);
  mgmt.set_ctrl(&c);

  EXPECT_NE(mgmt.handle("ctrl status").find("decision_slots="),
            std::string::npos);
  EXPECT_NE(mgmt.handle("ctrl links").find(link.name()), std::string::npos);
  // Operator override: force-eject floor 0, then readmit.
  EXPECT_EQ(mgmt.handle("ctrl force 0 eject"), "ok");
  EXPECT_EQ(c.mode(li), Mode::Ejected);
  rig.d.engine.run_slots(2);  // let the gauge publish
  EXPECT_EQ(rig.rt->telemetry().gauge("das_active_members"), 2.0);
  EXPECT_NE(mgmt.handle("ctrl status").find("mode=ejected"),
            std::string::npos);
  EXPECT_EQ(mgmt.handle("ctrl force 0 admit"), "ok");
  EXPECT_EQ(c.mode(li), Mode::Healthy);
  // Forced width change routes to the RU (srsran profile carries a
  // udCompHdr, so the change is legal).
  EXPECT_EQ(mgmt.handle("ctrl force 0 width 7"), "ok");
  EXPECT_EQ(rig.rus[0].ru->ul_iq_width(), 7);
  EXPECT_EQ(mgmt.handle("ctrl force 9 eject"), "bad link index");
  // The per-runtime Prometheus rendering carries the actuation gauge.
  EXPECT_NE(mgmt.handle("prom").find("das_active_members"),
            std::string::npos);
}

// --- end-to-end: DAS ejection and recovery ------------------------------

TEST(CtrlDas, EjectsDelayPoisonedLinkThenReadmitsAfterHeal) {
  CtrlDasRig rig;
  ASSERT_TRUE(rig.d.attach_all(600));

  // Floor 0's uplink gets 60us of fixed extra delay: every combine that
  // waits for its copy lands past the DU's latency budget.
  FaultPlan slow;
  slow.delay_ns = 60'000;
  slow.seed = 0x51;
  auto& link = rig.d.add_fault(*rig.rus[0].port, slow);
  auto& c = rig.d.add_controller();
  const int li = rig.d.ctrl_watch(c, link, *rig.rt, rig.rus[0]);

  rig.d.engine.run_slots(100);
  EXPECT_EQ(c.mode(li), Mode::Ejected);
  EXPECT_EQ(rig.rt->telemetry().gauge("das_active_members"), 2.0);
  EXPECT_GE(c.actions_applied(), 1u);
  // Service continues on the remaining two floors' RUs.
  rig.d.measure(200);
  EXPECT_GT(rig.total_ul(), 1.0);
  // Controller state renders into the determinism snapshot.
  const std::string dump = rig.d.ctrl_dump();
  EXPECT_NE(dump.find("mode=ejected"), std::string::npos);
  EXPECT_NE(dump.find("set_das_member"), std::string::npos);

  // The link heals: delay EWMA decays, and after the recovery hold the
  // member is readmitted (no width rung was taken, so Healthy directly).
  link.set_plan_ab(FaultPlan{});
  rig.d.engine.run_slots(300);
  EXPECT_EQ(c.mode(li), Mode::Healthy);
  EXPECT_EQ(rig.rt->telemetry().gauge("das_active_members"), 3.0);
}

TEST(CtrlDas, MixedWidthMembersStillCombine) {
  // After a width actuation one member emits width-7 U-plane while the
  // others stay at 9: the combiner must decode each copy at its own
  // udCompHdr width and keep merging without failures.
  CtrlDasRig rig;
  ASSERT_TRUE(rig.d.attach_all(600));
  ASSERT_EQ(rig.rus[0].ru->ul_iq_width(), 9);
  ASSERT_TRUE(rig.rus[0].ru->set_ul_iq_width(7));
  rig.d.measure(300);
  EXPECT_GT(rig.rt->telemetry().counter("das_merges"), 0u);
  EXPECT_EQ(rig.rt->telemetry().counter("das_merge_failures"), 0u);
  EXPECT_EQ(rig.rt->telemetry().counter("das_combiner_stalls"), 0u);
  EXPECT_GT(rig.total_ul(), 1.0);
}

TEST(CtrlDas, RadisysProfileRefusesWidthChange) {
  // No udCompHdr on the wire means peers assume the configured width;
  // changing it unilaterally would desynchronize the link, so the RU
  // refuses (the controller then simply skips the width rung).
  Deployment d;
  auto du = d.add_du(cell100(), radisys_profile(), 0);
  RuSite site;
  site.pos = d.plan.ru_position(0, 1);
  site.n_antennas = 4;
  site.bandwidth = MHz(100);
  site.center_freq = du.du->config().cell.center_freq;
  auto ru = d.add_ru(site, 0, du.du->fh());
  EXPECT_FALSE(ru.ru->set_ul_iq_width(7));
  EXPECT_EQ(ru.ru->ul_iq_width(), du.du->fh().comp.iq_width);
  // Re-asserting the current width is a no-op, not a refusal.
  EXPECT_TRUE(ru.ru->set_ul_iq_width(ru.ru->ul_iq_width()));
}

// --- chaos soak with the controller in the loop (ISSUE 6 satellite) -----

/// Fingerprint including the controller's full state: EWMAs, modes,
/// streaks and the slot-stamped action log must all replay identically.
std::string ctrl_snapshot(Deployment& d, const std::vector<UeId>& ues) {
  std::ostringstream os;
  for (const auto& rt : d.runtimes)
    for (const auto& [k, v] : rt->telemetry().counters())
      os << k << "=" << v << "\n";
  os << d.fault_dump();
  os << d.ctrl_dump();
  for (UeId ue : ues)
    os << "ue" << ue << " dl=" << d.air.dl_bits(ue)
       << " ul=" << d.air.ul_bits(ue) << "\n";
  return os.str();
}

std::string run_ctrl_chaos(std::uint64_t seed, int slots) {
  CtrlDasRig rig;
  EXPECT_TRUE(rig.d.attach_all(600));

  // The chaos-rig fault cocktail, controller-supervised: floor 0 takes
  // light loss plus jitter that straddles the delay thresholds, floor 1
  // takes Gilbert-Elliott burst loss deep enough to trip the ladder.
  FaultPlan ul0;
  ul0.loss = 0.01;
  ul0.jitter_ns = 20'000;
  ul0.seed = seed ^ 0xa1;
  FaultPlan dl0;
  dl0.delay_ns = 10'000;
  dl0.seed = seed ^ 0xa2;
  auto& link0 = rig.d.add_fault(*rig.rus[0].port, ul0, dl0);

  FaultPlan ul1;
  ul1.ge_enter_bad = 0.004;
  ul1.ge_exit_bad = 0.25;
  ul1.ge_loss_bad = 0.5;
  ul1.reorder = 0.01;
  ul1.seed = seed ^ 0xb1;
  FaultPlan dl1;
  dl1.duplicate = 0.02;
  dl1.corrupt = 0.01;
  dl1.seed = seed ^ 0xb2;
  auto& link1 = rig.d.add_fault(*rig.rus[1].port, ul1, dl1);

  auto& c = rig.d.add_controller();
  rig.d.ctrl_watch(c, link0, *rig.rt, rig.rus[0]);
  rig.d.ctrl_watch(c, link1, *rig.rt, rig.rus[1]);
  rig.d.engine.run_slots(slots);
  EXPECT_EQ(rig.rt->telemetry().counter("das_combiner_stalls"), 0u);
  return ctrl_snapshot(rig.d, rig.ues);
}

TEST(CtrlChaos, SoakSnapshotReplaysForSameSeed) {
  const std::string first = run_ctrl_chaos(42, 2000);
  const std::string replay = run_ctrl_chaos(42, 2000);
  EXPECT_EQ(first, replay);
  // The soak actually exercised the controller, not just the plumbing.
  EXPECT_NE(first.find("decision_slots="), std::string::npos);
  const std::string other = run_ctrl_chaos(43, 2000);
  EXPECT_NE(first, other);  // the seed is load-bearing
}

}  // namespace
}  // namespace rb
