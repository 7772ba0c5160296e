// Unit tests for the RANBooster core: cache, telemetry, management and
// runtime accounting.
#include <gtest/gtest.h>

#include <sstream>

#include "core/mgmt.h"
#include "core/middlebox.h"

namespace rb {
namespace {

TEST(PacketCache, KeySeparatesStreams) {
  const SlotPoint at{1, 2, 0, 3};
  const EaxcId a{0, 0, 0, 1}, b{0, 0, 0, 2};
  EXPECT_NE(PacketCache::key(at, a, false), PacketCache::key(at, b, false));
  EXPECT_NE(PacketCache::key(at, a, false), PacketCache::key(at, a, true));
  EXPECT_NE(PacketCache::key(at, a, false, 1),
            PacketCache::key(at, a, false, 2));
  SlotPoint at2 = at;
  at2.symbol = 7;
  EXPECT_NE(PacketCache::key(at, a, false), PacketCache::key(at2, a, false));
  // slot_key ignores the symbol.
  EXPECT_EQ(PacketCache::slot_key(at, a, false),
            PacketCache::slot_key(at2, a, false));
}

TEST(PacketCache, PutPeekTakeErase) {
  PacketPool pool(8);
  PacketCache cache;
  auto mk = [&](int port) {
    CachedPacket e;
    e.pkt = pool.alloc();
    e.in_port = port;
    return e;
  };
  cache.put(1, mk(0));
  cache.put(1, mk(1));
  cache.put(2, mk(2));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.keys(), 2u);
  EXPECT_EQ(cache.peek(1).size(), 2u);
  EXPECT_TRUE(cache.peek(99).empty());
  auto batch = cache.take(1);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(cache.size(), 1u);
  cache.erase(2);
  EXPECT_EQ(cache.size(), 0u);
  cache.put(3, mk(0));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(pool.in_use(), 2u);  // `batch` still holds its two packets
}

TEST(Telemetry, CountersAndGauges) {
  Telemetry t;
  t.inc("a");
  t.inc("a", 4);
  t.set_gauge("g", 0.5);
  EXPECT_EQ(t.counter("a"), 5u);
  EXPECT_EQ(t.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(t.gauge("g"), 0.5);
  EXPECT_NE(t.dump().find("a=5"), std::string::npos);
}

TEST(Telemetry, PubSubDeliversToAllSubscribers) {
  Telemetry t;
  int calls = 0;
  t.subscribe([&](const TelemetrySample& s) {
    EXPECT_EQ(s.key, "k");
    ++calls;
  });
  t.subscribe([&](const TelemetrySample&) { ++calls; });
  t.publish({7, "k", 1.0});
  EXPECT_EQ(calls, 2);
}

/// Minimal app used to exercise the runtime.
class EchoApp final : public MiddleboxApp {
 public:
  std::string name() const override { return "echo"; }
  void on_frame(int in_port, PacketPtr p, FhFrame&, MbContext& ctx) override {
    ctx.charge(1'000);
    ctx.forward(std::move(p), in_port == 0 ? 1 : 0);
  }
  std::string on_mgmt(const std::string& cmd) override {
    return cmd == "ping" ? "pong" : "unknown command";
  }
};

struct RuntimeRig {
  EchoApp app;
  MiddleboxRuntime rt;
  Port in_ext{"in_ext"}, out_ext{"out_ext"};
  Port in{"in"}, out{"out"};

  explicit RuntimeRig(DriverKind driver = DriverKind::Dpdk, int workers = 1)
      : rt(make_cfg(driver, workers), app) {
    rt.add_port("north", in);
    rt.add_port("south", out);
    Port::connect(in_ext, in, 0);
    Port::connect(out_ext, out, 0);
  }
  static MiddleboxRuntime::Config make_cfg(DriverKind driver, int workers) {
    MiddleboxRuntime::Config c;
    c.name = "echo";
    c.driver = driver;
    c.n_workers = workers;
    return c;
  }
  PacketPtr make_cplane_packet(std::int64_t rx_time) {
    CPlaneMsg m;
    m.sections.push_back({});
    auto p = PacketPool::default_pool().alloc();
    const std::size_t len = build_cplane_frame(
        p->raw(), EthHeader{}, EaxcId{}, 0, m, FhContext{});
    p->set_len(len);
    p->rx_time_ns = rx_time;
    return p;
  }
};

TEST(Runtime, ForwardsAcrossPortsAndChargesLatency) {
  RuntimeRig rig;
  rig.in_ext.send(rig.make_cplane_packet(100));
  ASSERT_TRUE(rig.rt.pump(0, 0));
  std::vector<PacketPtr> rx;
  ASSERT_EQ(rig.out_ext.rx_burst(rx), 1u);
  // 1000ns handler charge is reflected in the virtual timestamp.
  EXPECT_GE(rx[0]->rx_time_ns, 1'100);
  EXPECT_EQ(rig.rt.telemetry().counter("pkts_forwarded"), 1u);
}

TEST(Runtime, WorkerQueueingSerializesCosts) {
  RuntimeRig rig(DriverKind::Dpdk, 1);
  for (int i = 0; i < 3; ++i) rig.in_ext.send(rig.make_cplane_packet(0));
  rig.rt.pump(0, 0);
  std::vector<PacketPtr> rx;
  ASSERT_EQ(rig.out_ext.rx_burst(rx), 3u);
  // One worker: completion times stack up ~1us apart.
  EXPECT_GE(rx[2]->rx_time_ns, 3'000);
  EXPECT_EQ(rig.rt.last_slot_max_latency_ns(), 0);  // reported next slot
  rig.rt.begin_slot(1);
  EXPECT_GE(rig.rt.last_slot_max_latency_ns(), 3'000);
}

TEST(Runtime, TwoWorkersHalveTheQueueing) {
  RuntimeRig rig(DriverKind::Dpdk, 2);
  for (int i = 0; i < 4; ++i) rig.in_ext.send(rig.make_cplane_packet(0));
  rig.rt.pump(0, 0);
  std::vector<PacketPtr> rx;
  rig.out_ext.rx_burst(rx);
  std::int64_t max_t = 0;
  for (auto& p : rx) max_t = std::max(max_t, p->rx_time_ns);
  EXPECT_LE(max_t, 2'200);  // 2 per worker
}

TEST(Runtime, XdpUtilizationTracksTraffic) {
  RuntimeRig rig(DriverKind::Xdp);
  rig.rt.reset_cpu(0);
  EXPECT_DOUBLE_EQ(rig.rt.cpu_utilization(1'000'000), 0.0);
  for (int i = 0; i < 10; ++i) rig.in_ext.send(rig.make_cplane_packet(0));
  rig.rt.pump(0, 0);
  const double u = rig.rt.cpu_utilization(1'000'000);
  EXPECT_GT(u, 0.01);
  EXPECT_LT(u, 1.0);
}

TEST(Runtime, DpdkUtilizationAlwaysFull) {
  RuntimeRig rig(DriverKind::Dpdk);
  EXPECT_DOUBLE_EQ(rig.rt.cpu_utilization(123456), 1.0);
}

TEST(Runtime, BurstHistogramsTrackPumpShape) {
  RuntimeRig rig;
  // A 1-packet straggler pump: one chunk of occupancy 1.
  rig.in_ext.send(rig.make_cplane_packet(10));
  ASSERT_TRUE(rig.rt.pump(0, 0));
  EXPECT_EQ(rig.rt.burst_size_hist().count, 1u);
  EXPECT_EQ(rig.rt.burst_size_hist().bucket[0], 1u);  // le=1
  EXPECT_EQ(rig.rt.burst_occupancy_hist().bucket[0], 1u);

  // 33 packets across both ports in one pump: one full 32-slot chunk
  // plus a 1-packet tail chunk, mixed-port and out of arrival order.
  for (int i = 0; i < 33; ++i) {
    auto p = rig.make_cplane_packet(1000 - i);
    (i % 2 ? rig.out_ext : rig.in_ext).send(std::move(p));
  }
  ASSERT_TRUE(rig.rt.pump(0, 0));
  const auto& size = rig.rt.burst_size_hist();
  EXPECT_EQ(size.count, 2u);
  EXPECT_EQ(size.sum, 34u);
  EXPECT_EQ(size.count - size.bucket[5], 1u);  // the >32 drain
  const auto& occ = rig.rt.burst_occupancy_hist();
  EXPECT_EQ(occ.count, 3u);
  EXPECT_EQ(occ.sum, 34u);
  EXPECT_EQ(occ.bucket[0], 2u);                   // two 1-packet chunks
  EXPECT_EQ(occ.bucket[5] - occ.bucket[4], 1u);   // one full 32 chunk

  // Idle pumps are not recorded: the histograms describe productive
  // drains only.
  EXPECT_FALSE(rig.rt.pump(0, 0));
  EXPECT_EQ(rig.rt.burst_size_hist().count, 2u);
}

TEST(Runtime, NonFronthaulGoesToOnOther) {
  RuntimeRig rig;
  auto p = PacketPool::default_pool().alloc();
  p->raw()[12] = 0x08;  // IPv4 ethertype
  p->set_len(64);
  rig.in_ext.send(std::move(p));
  rig.rt.pump(0, 0);
  EXPECT_EQ(rig.rt.telemetry().counter("non_fh_rx"), 1u);
  EXPECT_EQ(rig.rt.telemetry().counter("pkts_dropped"), 1u);  // default drop
}

TEST(Runtime, CacheClearedAtSlotBoundary) {
  RuntimeRig rig;
  CachedPacket e;
  e.pkt = PacketPool::default_pool().alloc();
  rig.rt.cache().put(5, std::move(e));
  EXPECT_EQ(rig.rt.cache().size(), 1u);
  rig.rt.begin_slot(1);
  EXPECT_EQ(rig.rt.cache().size(), 0u);
}

TEST(Mgmt, BuiltinAndAppCommands) {
  RuntimeRig rig;
  MgmtEndpoint mgmt(rig.rt);
  EXPECT_EQ(mgmt.handle("name"), "echo");
  rig.rt.telemetry().inc("foo", 3);
  EXPECT_EQ(mgmt.handle("counter foo"), "3");
  rig.rt.telemetry().set_gauge("bar", 2.5);
  EXPECT_EQ(mgmt.handle("gauge bar").substr(0, 3), "2.5");
  EXPECT_NE(mgmt.handle("stats").find("foo=3"), std::string::npos);
  EXPECT_EQ(mgmt.handle("ping"), "pong");  // delegated to the app
}

TEST(Mgmt, PoolSlotsTouchedIsScraped) {
  RuntimeRig rig;
  MgmtEndpoint mgmt(rig.rt);
  auto p = rig.rt.pool().alloc();
  ASSERT_TRUE(p);
  const std::size_t touched = rig.rt.pool().slots_touched();
  EXPECT_GE(touched, 1u);
  EXPECT_LT(touched, rig.rt.pool().capacity());  // capacity stays uncarved
  const std::string n = std::to_string(touched);
  EXPECT_NE(mgmt.handle("cpuinfo").find("pool_slots_touched=" + n + "\n"),
            std::string::npos);
  EXPECT_NE(mgmt.handle("prom").find("# TYPE rb_pool_slots_touched gauge\n"
                                     "rb_pool_slots_touched{mb=\"echo\"} " +
                                     n + "\n"),
            std::string::npos);
}

TEST(Mgmt, UnknownVerbListsRegisteredVerbs) {
  RuntimeRig rig;
  MgmtEndpoint mgmt(rig.rt);
  const std::string reply = mgmt.handle("nonsense");
  // The reply names the offending verb and every registered core verb.
  EXPECT_NE(reply.find("unknown verb 'nonsense'"), std::string::npos);
  for (const char* verb :
       {"help", "stats", "name", "counter", "gauge", "cpuinfo", "prom",
        "ctrl", "obs", "state", "reconfig"})
    EXPECT_NE(reply.find(verb), std::string::npos) << verb;
  // And points at the app's own verbs.
  EXPECT_NE(reply.find("echo"), std::string::npos);
}

TEST(Mgmt, HelpListsEveryVerbWithDescription) {
  RuntimeRig rig;
  MgmtEndpoint mgmt(rig.rt);
  const std::string help = mgmt.handle("help");
  std::istringstream verbs(MgmtEndpoint::verb_list());
  std::string verb;
  int n = 0;
  while (verbs >> verb) {
    EXPECT_NE(help.find("  " + verb + " - "), std::string::npos) << verb;
    ++n;
  }
  EXPECT_GE(n, 11);
}

TEST(Mgmt, StateVerbRoundTripsRuntimeState) {
  RuntimeRig rig;
  MgmtEndpoint mgmt(rig.rt);
  rig.rt.telemetry().inc("foo", 7);
  const std::string hex = mgmt.handle("state save");
  EXPECT_FALSE(hex.empty());
  EXPECT_EQ(hex.find("error"), std::string::npos);
  rig.rt.telemetry().inc("foo", 1);  // diverge
  EXPECT_EQ(mgmt.handle("state load " + hex), "ok");
  EXPECT_EQ(rig.rt.telemetry().counter("foo"), 7u);
  // Garbage is rejected with a typed error, not UB.
  EXPECT_EQ(mgmt.handle("state load zz"), "error: not a hex blob");
  EXPECT_NE(mgmt.handle("state load deadbeef").find("error:"),
            std::string::npos);
  EXPECT_NE(mgmt.handle("state info").find("bytes="), std::string::npos);
}

}  // namespace
}  // namespace rb
