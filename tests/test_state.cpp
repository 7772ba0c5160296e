// Hitless operations (ISSUE 7): versioned serialization round-trips,
// corruption/truncation rejection with typed errors, whole-deployment
// checkpoint/restore determinism under chaos faults, and zero-loss live
// reconfiguration at the slot barrier.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/deployment.h"
#include "sim/hitless.h"
#include "state/serialize.h"

namespace rb {
namespace {

using state::SectionInfo;
using state::StateError;
using state::StateReader;
using state::StateWriter;

// --- serialization layer ----------------------------------------------

TEST(StateSerialize, RoundTripsAllPrimitives) {
  StateWriter w;
  w.begin_section(state::kSecMeta, 3);
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.i64(-(1ll << 40));
  w.f64(-0.1234567890123);
  w.b(true);
  w.b(false);
  w.str("hello");
  const std::uint8_t raw[3] = {1, 2, 3};
  w.bytes(raw);
  w.end_section();
  const auto blob = w.finish();

  StateReader r(blob);
  SectionInfo info;
  ASSERT_TRUE(r.next_section(&info));
  EXPECT_EQ(info.id, std::uint32_t(state::kSecMeta));
  EXPECT_EQ(info.version, 3u);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -(1ll << 40));
  EXPECT_EQ(r.f64(), -0.1234567890123);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.str(), "hello");
  std::uint8_t out[3] = {};
  r.bytes(out);
  EXPECT_EQ(out[2], 3);
  EXPECT_EQ(r.section_remaining(), 0u);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.next_section(&info));
  EXPECT_TRUE(r.ok());  // clean end of blob, not an error
}

TEST(StateSerialize, UnknownSectionsAreSkipped) {
  StateWriter w;
  w.begin_section(9999, 7);  // from a future writer
  w.u64(123);
  w.str("mystery");
  w.end_section();
  w.begin_section(state::kSecClock, 1);
  w.u64(77);
  w.end_section();
  const auto blob = w.finish();

  StateReader r(blob);
  SectionInfo info;
  std::uint64_t clock = 0;
  while (r.next_section(&info)) {
    if (info.id == state::kSecClock) clock = r.u64();
    r.skip_section();
  }
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(clock, 77u);
}

TEST(StateSerialize, BoolOutOfRangeIsBadValue) {
  StateWriter w;
  w.begin_section(state::kSecMeta, 1);
  w.u8(7);  // not a bool
  w.end_section();
  const auto blob = w.finish();
  StateReader r(blob);
  SectionInfo info;
  ASSERT_TRUE(r.next_section(&info));
  (void)r.b();
  EXPECT_EQ(r.error(), StateError::kBadValue);
  // Errors latch: further reads are zero, no UB.
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.next_section(&info));
}

TEST(StateSerialize, CountGuardRejectsOversizedCounts) {
  StateWriter w;
  w.begin_section(state::kSecMeta, 1);
  w.u32(0xffffffffu);  // claims 4G elements in a tiny section
  w.end_section();
  const auto blob = w.finish();
  StateReader r(blob);
  SectionInfo info;
  ASSERT_TRUE(r.next_section(&info));
  EXPECT_EQ(r.count(8), 0u);
  EXPECT_EQ(r.error(), StateError::kBadValue);
}

std::vector<std::uint8_t> small_valid_blob() {
  StateWriter w;
  w.begin_section(state::kSecClock, 1);
  w.u64(42);
  w.str("payload");
  w.end_section();
  w.begin_section(state::kSecMeta, 1);
  for (int i = 0; i < 32; ++i) w.u32(std::uint32_t(i));
  w.end_section();
  return w.finish();
}

/// Drain a blob through the reader the way a loader would; returns the
/// latched error. Must never crash regardless of input.
StateError drain(const std::vector<std::uint8_t>& blob) {
  StateReader r(blob);
  SectionInfo info;
  while (r.next_section(&info)) {
    if (info.id == state::kSecClock) {
      (void)r.u64();
      (void)r.str();
    } else {
      for (std::uint32_t i = 0, n = r.count(4); i < n && r.ok(); ++i)
        (void)r.u32();
    }
    r.skip_section();
  }
  return r.error();
}

TEST(StateSerialize, EveryTruncationIsRejectedTyped) {
  const auto blob = small_valid_blob();
  ASSERT_EQ(drain(blob), StateError::kNone);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    std::vector<std::uint8_t> cut(blob.begin(), blob.begin() + long(len));
    const StateError e = drain(cut);
    EXPECT_NE(e, StateError::kNone) << "prefix " << len << " accepted";
  }
}

TEST(StateSerialize, EveryByteFlipIsRejectedOrHarmlessTyped) {
  const auto blob = small_valid_blob();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (std::uint8_t flip : {std::uint8_t(0x01), std::uint8_t(0x80)}) {
      std::vector<std::uint8_t> bad = blob;
      bad[i] ^= flip;
      // Must terminate with a typed result; payload corruption inside a
      // section must be caught by the CRC before any field is exposed.
      (void)drain(bad);
    }
  }
  // Flip in the middle of the first section's payload: always kBadCrc.
  std::vector<std::uint8_t> bad = blob;
  bad[12 + 20 + 4] ^= 0x40;  // header + section hdr + inside payload
  EXPECT_EQ(drain(bad), StateError::kBadCrc);
}

TEST(StateSerialize, NotAStateBlobIsBadMagic) {
  std::vector<std::uint8_t> junk = {'P', 'K', 0x03, 0x04, 0, 0, 0, 0,
                                    0,   0,   0,    0};
  EXPECT_EQ(drain(junk), StateError::kBadMagic);
  EXPECT_EQ(drain({}), StateError::kTruncated);
}

// --- whole-deployment checkpoint/restore ------------------------------

CellConfig cell100() {
  CellConfig c;
  c.bandwidth = MHz(100);
  c.max_layers = 4;
  c.pci = 1;
  return c;
}

/// DAS cell over three floors with chaos faults - the same shape as the
/// chaos suite, so checkpoint/restore is exercised against every kind of
/// cross-barrier state (rx queues, held packets, cache entries, partial
/// merges, RNG streams, EWMAs).
struct StateRig {
  Deployment d;
  Deployment::DuHandle du;
  std::vector<Deployment::RuHandle> rus;
  MiddleboxRuntime* rt = nullptr;
  ctrl::AdaptationController* ctrl = nullptr;
  std::vector<UeId> ues;

  explicit StateRig(bool with_ctrl = false) {
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
    if (with_ctrl) ctrl = &d.add_controller();
  }

  void add_chaos(std::uint64_t seed, bool watch = false) {
    FaultPlan ul0;
    ul0.loss = 0.01;
    ul0.jitter_ns = 20000;
    ul0.seed = seed ^ 0xa1;
    FaultPlan dl0;
    dl0.delay_ns = 10000;
    dl0.seed = seed ^ 0xa2;
    FaultyLink& l0 = d.add_fault(*rus[0].port, ul0, dl0);

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
    FaultyLink& l1 = d.add_fault(*rus[1].port, ul1, dl1);

    if (watch && ctrl) {
      d.ctrl_watch(*ctrl, l0, *rt, rus[0]);
      d.ctrl_watch(*ctrl, l1, *rt, rus[1]);
    }
  }
};

/// Determinism fingerprint: every runtime counter, fault counter,
/// controller state and UE cumulative bit count.
std::string snapshot(Deployment& d, const std::vector<UeId>& ues) {
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

TEST(Checkpoint, RoundTripReserializeIsByteIdentical) {
  for (std::uint64_t seed : {1ull, 0xfeedull, 0xc0ffeeull}) {
    StateRig a;
    ASSERT_TRUE(a.d.attach_all(600));
    a.add_chaos(seed);
    a.d.engine.run_slots(237);  // odd count: land mid burst/flap phases
    const auto blob = checkpoint(a.d);
    ASSERT_FALSE(blob.empty());

    StateRig b;
    b.add_chaos(seed);
    const RestoreResult res = restore(b.d, blob);
    ASSERT_TRUE(res.ok()) << res.detail << ": "
                          << state::error_name(res.error);
    const auto blob2 = checkpoint(b.d);
    EXPECT_EQ(blob, blob2) << "seed " << seed;
  }
}

TEST(Checkpoint, RestoredRunMatchesUninterruptedSerial) {
  const int kN = 300;
  StateRig a;
  ASSERT_TRUE(a.d.attach_all(600));
  a.add_chaos(0xdead5eed);
  a.d.engine.run_slots(kN);
  const auto blob = checkpoint(a.d);
  a.d.engine.run_slots(kN);
  const std::string uninterrupted = snapshot(a.d, a.ues);

  StateRig b;
  b.add_chaos(0xdead5eed);
  const RestoreResult res = restore(b.d, blob);
  ASSERT_TRUE(res.ok()) << res.detail;
  EXPECT_EQ(b.d.engine.current_slot(), a.d.engine.current_slot() - kN);
  b.d.engine.run_slots(kN);
  EXPECT_EQ(snapshot(b.d, b.ues), uninterrupted);
}

TEST(Checkpoint, ControllerStateSurvivesRestore) {
  StateRig a(/*with_ctrl=*/true);
  ASSERT_TRUE(a.d.attach_all(600));
  a.add_chaos(0xabc, /*watch=*/true);
  a.d.engine.run_slots(400);
  const auto blob = checkpoint(a.d);
  a.d.engine.run_slots(200);
  const std::string uninterrupted = snapshot(a.d, a.ues);

  StateRig b(/*with_ctrl=*/true);
  b.add_chaos(0xabc, /*watch=*/true);
  const RestoreResult res = restore(b.d, blob);
  ASSERT_TRUE(res.ok()) << res.detail;
  b.d.engine.run_slots(200);
  EXPECT_EQ(snapshot(b.d, b.ues), uninterrupted);
}

TEST(Checkpoint, CorruptOrTruncatedBlobsAreRejectedTyped) {
  StateRig a;
  ASSERT_TRUE(a.d.attach_all(600));
  a.add_chaos(7);
  a.d.engine.run_slots(100);
  const auto blob = checkpoint(a.d);

  // Truncations at a spread of lengths: typed rejection, no UB.
  for (std::size_t len : {std::size_t(0), std::size_t(7), std::size_t(11),
                          blob.size() / 3, blob.size() / 2,
                          blob.size() - 1}) {
    StateRig b;
    b.add_chaos(7);
    std::vector<std::uint8_t> cut(blob.begin(), blob.begin() + long(len));
    const RestoreResult res = restore(b.d, cut);
    EXPECT_FALSE(res.ok()) << "len " << len;
    EXPECT_NE(res.error, StateError::kNone);
  }
  // Byte flips across the blob: every restore must fail typed (the CRC
  // catches payload damage; header damage is caught structurally).
  for (std::size_t i = 0; i < blob.size();
       i += std::max<std::size_t>(1, blob.size() / 97)) {
    StateRig b;
    b.add_chaos(7);
    std::vector<std::uint8_t> bad = blob;
    bad[i] ^= 0x20;
    const RestoreResult res = restore(b.d, bad);
    EXPECT_FALSE(res.ok()) << "flip at " << i;
  }
  // Shape mismatch: restoring a 3-RU blob into a 3-RU rig with an extra
  // fault link fails with kMismatch before touching components.
  {
    StateRig b;
    b.add_chaos(7);
    FaultPlan extra;
    extra.loss = 0.5;
    b.d.add_fault(*b.rus[2].port, extra, {});
    const RestoreResult res = restore(b.d, blob);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.error, StateError::kMismatch);
  }
}

// --- live reconfiguration ---------------------------------------------

TEST(Reconfig, NetNoOpBatchesAreByteIdenticalToNoReconfig) {
  // Baseline: chaos soak, no reconfig manager at all.
  StateRig a;
  ASSERT_TRUE(a.d.attach_all(600));
  a.add_chaos(0x5eed);
  a.d.engine.run_slots(600);
  const std::string baseline = snapshot(a.d, a.ues);

  // Same soak with 60 reconfig batches, each an eject+readmit pair that
  // nets out to no change. The barrier apply itself must not perturb a
  // single packet: zero loss attributable to reconfig, proven by
  // byte-identical telemetry/fault/UE fingerprints.
  StateRig b;
  ASSERT_TRUE(b.d.attach_all(600));
  b.add_chaos(0x5eed);
  ReconfigManager mgr(b.d);
  for (int i = 0; i < 60; ++i) {
    ReconfigOp eject;
    eject.kind = ReconfigOp::Kind::DasSetMember;
    eject.index = 0;
    eject.mac = b.rus[2].mac;
    eject.enable = false;
    ReconfigOp readmit = eject;
    readmit.enable = true;
    mgr.queue(eject);
    mgr.queue(readmit);
    b.d.engine.run_slots(10);
  }
  EXPECT_EQ(mgr.batches(), 60u);
  EXPECT_EQ(mgr.applied(), 120u);
  EXPECT_EQ(mgr.rejected(), 0u);
  EXPECT_EQ(snapshot(b.d, b.ues), baseline);
}

TEST(Reconfig, RequestDiffsDesiredAgainstLiveState) {
  StateRig rig;
  ASSERT_TRUE(rig.d.attach_all(600));
  ReconfigManager mgr(rig.d);

  DesiredConfig want;
  want.das_members.push_back({0, rig.rus[0].mac, true});  // already true
  EXPECT_EQ(mgr.request(want), 0u);  // converged: nothing queued

  want.das_members.clear();
  want.das_members.push_back({0, rig.rus[1].mac, false});
  EXPECT_EQ(mgr.request(want), 1u);
  EXPECT_EQ(mgr.pending(), 1u);
  rig.d.engine.run_slots(1);  // barrier applies
  EXPECT_EQ(mgr.pending(), 0u);
  EXPECT_EQ(mgr.applied(), 1u);
  auto* das = dynamic_cast<DasMiddlebox*>(&rig.d.runtimes[0]->app());
  ASSERT_NE(das, nullptr);
  EXPECT_FALSE(das->member_active(rig.rus[1].mac));
  EXPECT_EQ(mgr.request(want), 0u);  // now converged

  // Invalid target index: rejected, not crashed.
  DesiredConfig bad;
  bad.ru_widths.push_back({99, 7});
  EXPECT_EQ(mgr.request(bad), 0u);
  EXPECT_EQ(mgr.rejected(), 1u);
}

TEST(Reconfig, MembershipChurnUnderChaosKeepsTrafficFlowing) {
  StateRig rig;
  ASSERT_TRUE(rig.d.attach_all(600));
  rig.add_chaos(0xc4a05);
  ReconfigManager mgr(rig.d);
  auto* das = dynamic_cast<DasMiddlebox*>(&rig.d.runtimes[0]->app());
  ASSERT_NE(das, nullptr);

  // 50 real membership changes: eject an RU for 10 slots, readmit,
  // rotating over the three floors, all while chaos faults fire.
  for (int i = 0; i < 50; ++i) {
    const MacAddr mac = rig.rus[std::size_t(i % 3)].mac;
    ReconfigOp op;
    op.kind = ReconfigOp::Kind::DasSetMember;
    op.index = 0;
    op.mac = mac;
    op.enable = false;
    mgr.queue(op);
    rig.d.engine.run_slots(10);
    op.enable = true;
    mgr.queue(op);
    rig.d.engine.run_slots(10);
  }
  EXPECT_EQ(mgr.applied(), 100u);
  EXPECT_EQ(mgr.rejected(), 0u);
  EXPECT_EQ(das->active_members(), 3u);
  // The combiner never stalled and no port overflowed: the reshape
  // itself dropped nothing.
  EXPECT_EQ(rig.rt->telemetry().counter("das_combiner_stalls"), 0u);
  for (const auto& p : rig.d.ports) EXPECT_EQ(p->stats().rx_dropped, 0u);
  // Traffic still flows both ways after 50 reshapes.
  rig.d.measure(200);
  double dl = 0, ul = 0;
  for (UeId ue : rig.ues) {
    dl += rig.d.dl_mbps(ue);
    ul += rig.d.ul_mbps(ue);
  }
  EXPECT_GT(dl, 10.0);
  EXPECT_GT(ul, 1.0);
}

TEST(Reconfig, CtrlRetuneAndRuWidthApplyAtBarrier) {
  StateRig rig(/*with_ctrl=*/true);
  ASSERT_TRUE(rig.d.attach_all(600));
  ReconfigManager mgr(rig.d);

  DesiredConfig want;
  ctrl::CtrlConfig tuned = rig.ctrl->config();
  tuned.loss_eject = 0.5;
  tuned.hold_slots = 16;
  want.ctrl_tunings.push_back({0, tuned});
  want.ru_widths.push_back({0, 7});
  EXPECT_EQ(mgr.request(want), 2u);
  rig.d.engine.run_slots(1);
  EXPECT_EQ(rig.ctrl->config().loss_eject, 0.5);
  EXPECT_EQ(rig.ctrl->config().hold_slots, 16);
  EXPECT_EQ(rig.rus[0].ru->ul_iq_width(), 7);
  // Structural identity is preserved across a retune.
  EXPECT_EQ(rig.ctrl->config().name, "ctrl0");
  // Re-request: converged.
  EXPECT_EQ(mgr.request(want), 0u);
}

TEST(Reconfig, MgmtVerbReportsStatusAndLog) {
  StateRig rig;
  ASSERT_TRUE(rig.d.attach_all(600));
  ReconfigManager mgr(rig.d);
  MgmtEndpoint mgmt(*rig.d.runtimes[0]);
  mgmt.set_reconfig(&mgr);

  EXPECT_NE(mgmt.handle("reconfig status").find("batches=0"),
            std::string::npos);
  ReconfigOp op;
  op.kind = ReconfigOp::Kind::DasSetMember;
  op.index = 0;
  op.mac = rig.rus[2].mac;
  op.enable = false;
  mgr.queue(op);
  EXPECT_EQ(mgmt.handle("reconfig pending"), "1");
  rig.d.engine.run_slots(1);
  const std::string status = mgmt.handle("reconfig status");
  EXPECT_NE(status.find("batches=1"), std::string::npos);
  EXPECT_NE(status.find("applied=1"), std::string::npos);
  EXPECT_NE(mgmt.handle("reconfig log").find("eject"), std::string::npos);
}

}  // namespace
}  // namespace rb
