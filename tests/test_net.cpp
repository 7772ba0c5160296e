// Unit tests for the packet I/O substrate: pools, ports, switch, NIC/VFs,
// drivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/driver.h"
#include "net/nic.h"
#include "net/packet.h"
#include "net/switch.h"

namespace rb {
namespace {

TEST(PacketPool, AllocReleaseCycle) {
  PacketPool pool(4);
  EXPECT_EQ(pool.capacity(), 4u);
  {
    auto a = pool.alloc();
    auto b = pool.alloc();
    ASSERT_TRUE(a && b);
    EXPECT_EQ(pool.in_use(), 2u);
  }
  EXPECT_EQ(pool.in_use(), 0u);  // RAII return
}

TEST(PacketPool, ExhaustionReturnsNull) {
  PacketPool pool(2);
  auto a = pool.alloc();
  auto b = pool.alloc();
  auto c = pool.alloc();
  EXPECT_TRUE(a && b);
  EXPECT_FALSE(c);
  EXPECT_EQ(pool.alloc_failures(), 1u);
}

TEST(PacketPool, CloneCopiesDataAndMetadata) {
  PacketPool pool(4);
  auto p = pool.alloc();
  auto raw = p->raw();
  raw[0] = 0xab;
  raw[99] = 0xcd;
  p->set_len(100);
  p->rx_time_ns = 777;
  auto c = pool.clone(*p);
  ASSERT_TRUE(c);
  EXPECT_EQ(c->len(), 100u);
  EXPECT_EQ(c->data()[0], 0xab);
  EXPECT_EQ(c->data()[99], 0xcd);
  EXPECT_EQ(c->rx_time_ns, 777);
}

TEST(Packet, SetLenClampsToCapacity) {
  PacketPool pool(1);
  auto p = pool.alloc();
  p->set_len(1 << 20);
  EXPECT_EQ(p->len(), kPacketCapacity);
}

// Build a packet with a recognizable pattern: bytes [0, split) hold 0x11,
// the "payload" [split, len) holds 0x22.
PacketPtr patterned(PacketPool& pool, std::size_t split, std::size_t len) {
  auto p = pool.alloc();
  auto raw = p->raw();
  std::fill(raw.begin(), raw.begin() + split, 0x11);
  std::fill(raw.begin() + split, raw.begin() + len, 0x22);
  p->set_len(len);
  return p;
}

TEST(PacketShare, ReplicateSharesPayloadAndCountsRefs) {
  PacketPool pool(8);
  auto p = patterned(pool, 32, 512);
  EXPECT_EQ(p->slot_refcount(), 1u);
  auto r = pool.replicate(*p, 32);
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->shares_payload());
  EXPECT_EQ(r->private_split(), 32u);
  EXPECT_EQ(p->slot_refcount(), 2u);
  EXPECT_EQ(pool.replicas_zero_copy(), 1u);
  EXPECT_EQ(pool.shared_segments(), 1);
  // Replica resolves to identical bytes: private head + shared payload.
  EXPECT_EQ(r->len(), 512u);
  EXPECT_EQ(r->bytes(0, 32)[0], 0x11);
  EXPECT_EQ(r->bytes(32)[0], 0x22);
  EXPECT_EQ(r->bytes(32).data(), p->bytes(32).data());  // genuinely shared
  r.reset();
  EXPECT_EQ(p->slot_refcount(), 1u);
  EXPECT_EQ(pool.shared_segments(), 0);
}

TEST(PacketShare, ReplicaHeaderWriteStaysPrivate) {
  PacketPool pool(8);
  auto p = patterned(pool, 32, 512);
  auto r = pool.replicate(*p, 32);
  ASSERT_TRUE(r);
  r->mutable_prefix(14)[0] = 0x77;  // MAC rewrite stays in the private head
  EXPECT_TRUE(r->shares_payload());  // no promotion
  EXPECT_EQ(pool.cow_promotions(), 0u);
  EXPECT_EQ(p->data()[0], 0x11);  // source head untouched
  EXPECT_EQ(r->data()[0], 0x77);
}

TEST(PacketShare, WriteIntoSharedRegionPromotesWriterOnly) {
  PacketPool pool(8);
  auto p = patterned(pool, 32, 512);
  auto r1 = pool.replicate(*p, 32);
  auto r2 = pool.replicate(*p, 32);
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(p->slot_refcount(), 3u);
  r1->mutable_data()[100] = 0x99;  // payload write: forces a private copy
  EXPECT_FALSE(r1->shares_payload());
  EXPECT_EQ(pool.cow_promotions(), 1u);
  EXPECT_EQ(p->slot_refcount(), 2u);  // r1 detached
  // The writer sees its write; peer replica and source see old bytes.
  EXPECT_EQ(r1->bytes(100, 1)[0], 0x99);
  EXPECT_EQ(r2->bytes(100, 1)[0], 0x22);
  EXPECT_EQ(p->bytes(100, 1)[0], 0x22);
}

TEST(PacketShare, OwnerWriteCopiesOutLeavingReplicaSnapshot) {
  PacketPool pool(8);
  auto p = patterned(pool, 32, 512);
  auto r = pool.replicate(*p, 32);
  ASSERT_TRUE(r);
  p->mutable_data()[200] = 0xee;  // owner writes into the shared region
  EXPECT_EQ(pool.cow_promotions(), 1u);
  EXPECT_EQ(p->bytes(200, 1)[0], 0xee);
  EXPECT_EQ(r->bytes(200, 1)[0], 0x22);  // replica keeps its snapshot
}

TEST(PacketShare, AliasSharesEveryByte) {
  PacketPool pool(8);
  auto p = patterned(pool, 32, 512);
  auto a = pool.replicate(*p, 0);
  ASSERT_TRUE(a);
  EXPECT_TRUE(a->shares_payload());
  EXPECT_EQ(a->private_split(), 0u);
  EXPECT_EQ(a->data().data(), p->data().data());  // same underlying slot
  EXPECT_EQ(a->data()[0], 0x11);
  a->mutable_prefix(14)[0] = 0x55;  // any write promotes the whole frame
  EXPECT_FALSE(a->shares_payload());
  EXPECT_EQ(a->data()[0], 0x55);
  EXPECT_EQ(a->data()[511], 0x22);  // tail copied before the write
  EXPECT_EQ(p->data()[0], 0x11);
}

TEST(PacketShare, OwnerDiesBeforeReplica) {
  PacketPool pool(4);
  auto p = patterned(pool, 32, 512);
  auto r = pool.replicate(*p, 32);
  ASSERT_TRUE(r);
  p.reset();  // owner gone; segment must outlive it
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_EQ(r->bytes(32)[0], 0x22);
  EXPECT_EQ(r->bytes(0, 32)[0], 0x11);
  r.reset();
  EXPECT_EQ(pool.in_use(), 0u);
  // Every pair must be whole again: the full capacity allocates.
  std::vector<PacketPtr> all;
  for (std::size_t i = 0; i < pool.capacity(); ++i) {
    all.push_back(pool.alloc());
    ASSERT_TRUE(all.back());
  }
}

TEST(PacketShare, CloneAndCopyToFlattenReplicas) {
  PacketPool pool(8);
  auto p = patterned(pool, 32, 512);
  auto r = pool.replicate(*p, 32);
  ASSERT_TRUE(r);
  auto flat = pool.clone(*r);
  ASSERT_TRUE(flat);
  EXPECT_FALSE(flat->shares_payload());
  EXPECT_EQ(flat->data()[0], 0x11);
  EXPECT_EQ(flat->data()[100], 0x22);
  std::vector<std::uint8_t> out(r->len());
  r->copy_to(out);
  EXPECT_EQ(out[0], 0x11);
  EXPECT_EQ(out[511], 0x22);
}

TEST(PacketShare, ReplicaOfReplicaAttachesToRootSegment) {
  PacketPool pool(8);
  auto p = patterned(pool, 32, 512);
  auto r1 = pool.replicate(*p, 32);
  ASSERT_TRUE(r1);
  r1->mutable_prefix(14)[0] = 0x77;  // per-egress rewrite in r1's head
  auto r2 = pool.replicate(*r1, 32);
  ASSERT_TRUE(r2);
  EXPECT_EQ(p->slot_refcount(), 3u);  // both replicas reference the root
  EXPECT_EQ(r2->data()[0], 0x77);     // r2 sees r1's rewritten head
  EXPECT_EQ(r2->bytes(32).data(), p->bytes(32).data());
}

TEST(PacketPoolShared, CrossThreadReplicaSoak) {
  // Replicas die on different threads than their segment owners: one
  // producer fans each frame out to N consumer threads, which read the
  // shared payload and release. TSan-checked in CI.
  constexpr int kConsumers = 3;
  constexpr int kRounds = 2000;
  PacketPool pool(256);
  std::mutex mu[kConsumers];
  std::vector<PacketPtr> q[kConsumers];
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      std::uint64_t local = 0;
      for (;;) {
        PacketPtr p;
        {
          std::lock_guard<std::mutex> lk(mu[c]);
          if (!q[c].empty()) {
            p = std::move(q[c].back());
            q[c].pop_back();
          }
        }
        if (p) {
          local += p->bytes(32)[0] + p->bytes(0, 32)[0];
          if ((local & 7) == 0) p->mutable_data()[40] ^= 0x1;  // force CoW
        } else if (done.load(std::memory_order_acquire)) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
      sum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  constexpr std::size_t kMaxQueueDepth = 16;  // backpressure: don't outrun
  for (int i = 0; i < kRounds; ++i) {         // the consumers and drain the pool
    auto p = patterned(pool, 32, 256);
    ASSERT_TRUE(p);
    for (int c = 0; c < kConsumers; ++c) {
      auto r = pool.replicate(*p, 32);
      ASSERT_TRUE(r);
      for (;;) {
        {
          std::lock_guard<std::mutex> lk(mu[c]);
          if (q[c].size() < kMaxQueueDepth) {
            q[c].push_back(std::move(r));
            break;
          }
        }
        std::this_thread::yield();
      }
    }
    // Alternate who holds the segment longest.
    if (i & 1) p.reset();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : consumers) t.join();
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_GT(sum.load(), 0u);
  // Pool integrity after all the re-pairing churn.
  std::vector<PacketPtr> all;
  for (std::size_t i = 0; i < pool.capacity(); ++i) {
    all.push_back(pool.alloc());
    ASSERT_TRUE(all.back());
  }
}

// Resident set of this process in KiB, or -1 when it cannot be read.
long vm_rss_kib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmRSS:", 0) == 0)
      return std::strtol(line.c_str() + 6, nullptr, 10);
  return -1;
}

TEST(PacketPoolLazy, FreshPoolCarvesSlotsDownFromTheTopZeroed) {
  // 1024 slots: magazine cap 64, so a locked refill hands 1 + 32 packets
  // and 100 allocs cross several refills.
  PacketPool pool(1024);
  EXPECT_EQ(pool.slots_touched(), 0u);
  std::vector<PacketPtr> held;
  std::vector<const std::uint8_t*> addrs;
  for (int i = 0; i < 100; ++i) {
    held.push_back(pool.alloc());
    ASSERT_TRUE(held.back());
    addrs.push_back(held.back()->raw().data());
  }
  EXPECT_LE(pool.slots_touched(), 100u + 32u);  // at most one refill ahead
  // The first hand-out is the arena's top slot, and the 100 slots are the
  // top 100, one kPacketCapacity apart. Carving runs strictly downward;
  // the magazine hands each refill batch back in reverse, as it did when
  // the free list was filled eagerly.
  std::vector<const std::uint8_t*> sorted = addrs;
  std::sort(sorted.rbegin(), sorted.rend());
  EXPECT_EQ(addrs.front(), sorted.front());
  for (std::size_t i = 1; i < sorted.size(); ++i)
    ASSERT_EQ(sorted[i - 1] - sorted[i], std::ptrdiff_t(kPacketCapacity));
  const auto raw = held.back()->raw();
  EXPECT_TRUE(std::all_of(raw.begin(), raw.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(PacketPoolLazy, OwnerCopyOutCarvesWhenFreeListIsEmpty) {
  // Capacity 8: the magazine never refills, nothing has been released, so
  // the free list and the magazine are empty while 6 slots are uncarved.
  PacketPool pool(8);
  auto p = patterned(pool, 32, 512);
  auto r = pool.replicate(*p, 32);
  ASSERT_TRUE(r);
  EXPECT_EQ(pool.slots_touched(), 2u);
  p->mutable_data()[200] = 0xee;  // owner writes into the shared region
  EXPECT_EQ(pool.cow_promotions(), 1u);
  EXPECT_EQ(pool.cow_fallbacks(), 0u);
  EXPECT_EQ(pool.slots_touched(), 3u);
  EXPECT_EQ(p->bytes(200, 1)[0], 0xee);
  EXPECT_EQ(r->bytes(200, 1)[0], 0x22);  // replica keeps its snapshot
}

TEST(PacketPoolLazy, ConstructionCommitsNoArena) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan's calloc zero-fills, committing the whole arena";
#endif
  const long before = vm_rss_kib();
  if (before < 0) GTEST_SKIP() << "VmRSS not readable";
  PacketPool pool(16384);  // 144 MiB of arena reserved
  const long after = vm_rss_kib();
  EXPECT_LT(after - before, 8 * 1024) << "KiB committed by construction";
  EXPECT_EQ(pool.slots_touched(), 0u);
}

TEST(PacketPoolLazy, CrossThreadSoakOnFreshPoolDrains) {
  // Producers carve and allocate, consumers release on other threads.
  constexpr int kPairs = 2;
  constexpr int kPerProducer = 3000;
  PacketPool pool(512);
  std::mutex mu;
  std::vector<PacketPtr> q;
  std::atomic<int> producers_left{kPairs};
  std::vector<std::thread> threads;
  for (int t = 0; t < kPairs; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer;) {
        auto p = pool.alloc();
        if (!p) {
          std::this_thread::yield();
          continue;
        }
        p->raw()[0] = std::uint8_t(i);
        p->set_len(64);
        std::lock_guard<std::mutex> lk(mu);
        q.push_back(std::move(p));
        ++i;
      }
      producers_left.fetch_sub(1, std::memory_order_release);
    });
    threads.emplace_back([&] {
      for (;;) {
        PacketPtr p;
        {
          std::lock_guard<std::mutex> lk(mu);
          if (!q.empty()) {
            p = std::move(q.back());
            q.pop_back();
          }
        }
        if (!p && producers_left.load(std::memory_order_acquire) == 0) {
          std::lock_guard<std::mutex> lk(mu);
          if (q.empty()) break;
        }
        if (!p) std::this_thread::yield();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_LE(pool.slots_touched(), pool.capacity());
  // Every buffer made it back: the full capacity allocates again.
  std::vector<PacketPtr> all;
  for (std::size_t i = 0; i < pool.capacity(); ++i) {
    all.push_back(pool.alloc());
    ASSERT_TRUE(all.back());
  }
  EXPECT_EQ(pool.slots_touched(), pool.capacity());
}

TEST(Port, SendDeliversWithLatency) {
  PacketPool pool(4);
  Port a("a"), b("b");
  Port::connect(a, b, 1500);
  auto p = pool.alloc();
  p->set_len(64);
  p->rx_time_ns = 1000;
  ASSERT_TRUE(a.send(std::move(p)));
  std::vector<PacketPtr> rx;
  ASSERT_EQ(b.rx_burst(rx), 1u);
  EXPECT_EQ(rx[0]->rx_time_ns, 2500);
  EXPECT_EQ(a.stats().tx_packets, 1u);
  EXPECT_EQ(b.stats().rx_packets, 1u);
}

TEST(Port, UnconnectedSendDrops) {
  PacketPool pool(2);
  Port a("a");
  auto p = pool.alloc();
  p->set_len(10);
  EXPECT_FALSE(a.send(std::move(p)));
  EXPECT_EQ(pool.in_use(), 0u);  // buffer returned
}

TEST(Port, LinkDownDropsTraffic) {
  PacketPool pool(2);
  Port a("a"), b("b");
  Port::connect(a, b, 100);
  b.set_link_up(false);
  auto p = pool.alloc();
  p->set_len(10);
  EXPECT_FALSE(a.send(std::move(p)));
  b.set_link_up(true);
  auto q = pool.alloc();
  q->set_len(10);
  EXPECT_TRUE(a.send(std::move(q)));
}

TEST(Port, RxQueueOverflowCountsDrops) {
  PacketPool pool(16);
  Port a("a"), b("b", /*rx_queue_cap=*/2);
  Port::connect(a, b, 0);
  for (int i = 0; i < 5; ++i) {
    auto p = pool.alloc();
    p->set_len(8);
    a.send(std::move(p));
  }
  EXPECT_EQ(b.rx_pending(), 2u);
  EXPECT_EQ(b.stats().rx_dropped, 3u);
}

PacketPtr frame_to(const MacAddr& dst, const MacAddr& src) {
  auto p = PacketPool::default_pool().alloc();
  auto raw = p->raw();
  std::copy(dst.bytes.begin(), dst.bytes.end(), raw.begin());
  std::copy(src.bytes.begin(), src.bytes.end(), raw.begin() + 6);
  raw[12] = 0xae;
  raw[13] = 0xfe;
  p->set_len(64);
  return p;
}

TEST(EmbeddedSwitch, LearnsAndForwards) {
  EmbeddedSwitch sw("sw");
  Port e1("e1"), e2("e2"), e3("e3");
  Port::connect(e1, sw.add_port("p1"), 0);
  Port::connect(e2, sw.add_port("p2"), 0);
  Port::connect(e3, sw.add_port("p3"), 0);

  // Unknown destination floods (e2 and e3 get copies).
  e1.send(frame_to(MacAddr::ru(2), MacAddr::du(1)));
  std::vector<PacketPtr> rx;
  EXPECT_EQ(e2.rx_burst(rx), 1u);
  rx.clear();
  EXPECT_EQ(e3.rx_burst(rx), 1u);
  rx.clear();
  EXPECT_EQ(sw.flooded(), 1u);

  // Reply teaches the switch where du(1) lives; now unicast.
  e2.send(frame_to(MacAddr::du(1), MacAddr::ru(2)));
  EXPECT_EQ(e1.rx_burst(rx), 1u);
  rx.clear();
  EXPECT_EQ(e3.rx_burst(rx), 0u);
  // And ru(2) was learned from the reply's source.
  e1.send(frame_to(MacAddr::ru(2), MacAddr::du(1)));
  EXPECT_EQ(e2.rx_burst(rx), 1u);
  rx.clear();
  EXPECT_EQ(e3.rx_burst(rx), 0u);
  EXPECT_GE(sw.forwarded(), 2u);
}

TEST(EmbeddedSwitch, FloodSendsAliasReplicasAndMovesOriginalToLast) {
  EmbeddedSwitch sw("sw");
  Port e1("e1"), e2("e2"), e3("e3");
  Port::connect(e1, sw.add_port("p1"), 0);
  Port::connect(e2, sw.add_port("p2"), 0);
  Port::connect(e3, sw.add_port("p3"), 0);
  const std::size_t before = PacketPool::default_pool().in_use();
  e1.send(frame_to(MacAddr::ru(9), MacAddr::du(8)));
  // Two egress ports, but only one extra buffer: the original moved to
  // the last port and the other got a zero-copy alias.
  EXPECT_EQ(PacketPool::default_pool().in_use(), before + 2);
  std::vector<PacketPtr> rx2, rx3;
  ASSERT_EQ(e2.rx_burst(rx2), 1u);
  ASSERT_EQ(e3.rx_burst(rx3), 1u);
  EXPECT_TRUE(rx2[0]->shares_payload());   // alias replica
  EXPECT_FALSE(rx3[0]->shares_payload());  // the original itself
  EXPECT_EQ(rx2[0]->data()[0], rx3[0]->data()[0]);
  EXPECT_EQ(rx2[0]->len(), rx3[0]->len());
}

TEST(EmbeddedSwitch, CountsRuntDrops) {
  EmbeddedSwitch sw("sw");
  Port e1("e1"), e2("e2");
  Port::connect(e1, sw.add_port("p1"), 0);
  Port::connect(e2, sw.add_port("p2"), 0);
  auto p = PacketPool::default_pool().alloc();
  p->set_len(10);  // shorter than an Ethernet header
  e1.send(std::move(p));
  EXPECT_EQ(sw.runt_dropped(), 1u);
  EXPECT_EQ(sw.flooded(), 0u);
  EXPECT_EQ(sw.forwarded(), 0u);
  std::vector<PacketPtr> rx;
  EXPECT_EQ(e2.rx_burst(rx), 0u);
}

TEST(EmbeddedSwitch, StaticEntriesBeatLearning) {
  EmbeddedSwitch sw("sw");
  Port e1("e1"), e2("e2"), e3("e3");
  auto& p1 = sw.add_port("p1");
  auto& p2 = sw.add_port("p2");
  auto& p3 = sw.add_port("p3");
  Port::connect(e1, p1, 0);
  Port::connect(e2, p2, 0);
  Port::connect(e3, p3, 0);
  sw.add_static_entry(MacAddr::ru(7), p3);
  e1.send(frame_to(MacAddr::ru(7), MacAddr::du(0)));
  std::vector<PacketPtr> rx;
  EXPECT_EQ(e3.rx_burst(rx), 1u);
  rx.clear();
  EXPECT_EQ(e2.rx_burst(rx), 0u);
  EXPECT_EQ(sw.flooded(), 0u);
}

TEST(Nic, VfSteeringAndPcieAccounting) {
  Nic nic("nic0", 4);
  Port wire_peer("wire_peer");
  Port::connect(wire_peer, nic.wire_port(), 0);
  Port& vf = nic.create_vf("vf0");
  nic.steer(MacAddr::mb(0), vf);
  wire_peer.send(frame_to(MacAddr::mb(0), MacAddr::du(0)));
  std::vector<PacketPtr> rx;
  EXPECT_EQ(vf.rx_burst(rx), 1u);
  EXPECT_GT(nic.pcie_bytes(), 0u);
}

TEST(Nic, VfLimitEnforced) {
  Nic nic("nic0", 2);
  nic.create_vf("a");
  nic.create_vf("b");
  EXPECT_THROW(nic.create_vf("c"), std::length_error);
}

TEST(PollDriver, AlwaysFullUtilization) {
  Port a("a"), b("b");
  Port::connect(a, b, 0);
  PollDriver drv(b);
  EXPECT_DOUBLE_EQ(drv.utilization(1'000'000), 1.0);
}

TEST(IrqDriver, UtilizationScalesWithWork) {
  Port a("a"), b("b");
  Port::connect(a, b, 0);
  IrqDriver drv(b);
  EXPECT_DOUBLE_EQ(drv.utilization(1'000'000), 0.0);
  drv.charge_handler(250'000, ProcessingLocus::Kernel);
  EXPECT_NEAR(drv.utilization(1'000'000), 0.25, 1e-9);
  drv.meter().reset();
  EXPECT_DOUBLE_EQ(drv.utilization(1'000'000), 0.0);
}

TEST(IrqDriver, UserspacePuntCostsMore) {
  Port a("a"), b("b");
  Port::connect(a, b, 0);
  DriverCosts costs;
  IrqDriver kdrv(b, costs);
  kdrv.charge_handler(100, ProcessingLocus::Kernel);
  const auto kernel_busy = kdrv.meter().busy_ns();
  kdrv.meter().reset();
  kdrv.charge_handler(100, ProcessingLocus::Userspace);
  EXPECT_EQ(kdrv.meter().busy_ns(), kernel_busy + costs.afxdp_redirect_ns);
}

TEST(IrqDriver, JumboFramesCostMoreOnRx) {
  PacketPool pool(4);
  Port a("a"), b1("b1"), c("c"), b2("b2");
  Port::connect(a, b1, 0);
  Port::connect(c, b2, 0);
  DriverCosts costs;
  IrqDriver small(b1, costs), jumbo(b2, costs);
  auto p = pool.alloc();
  p->set_len(100);
  a.send(std::move(p));
  auto q = pool.alloc();
  q->set_len(8000);
  c.send(std::move(q));
  std::vector<PacketPtr> rx;
  small.rx_burst(rx);
  rx.clear();
  jumbo.rx_burst(rx);
  EXPECT_GT(jumbo.meter().busy_ns(), small.meter().busy_ns());
}

}  // namespace
}  // namespace rb
