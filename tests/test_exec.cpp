// Execution primitives under the city conductor: SPSC ring and worker
// pool, plus telemetry interning and publish reentrancy.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/telemetry.h"
#include "exec/spsc_ring.h"
#include "exec/worker_pool.h"

namespace rb {
namespace {

// ----------------------------------------------------------------------
// SPSC ring
// ----------------------------------------------------------------------

TEST(SpscRing, FifoFullAndWraparound) {
  exec::SpscRing<int> ring(4);  // rounded to a power of two >= 4
  EXPECT_TRUE(ring.empty_approx());

  // Fill to capacity, then overflow must be rejected.
  int pushed = 0;
  while (ring.try_push(pushed)) ++pushed;
  EXPECT_GE(pushed, 4);
  EXPECT_FALSE(ring.try_push(999));

  // Drain in FIFO order.
  int v = -1;
  for (int i = 0; i < pushed; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));

  // Wrap the indices around the ring many times.
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(ring.try_push(round));
    ASSERT_TRUE(ring.try_push(-round));
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, round);
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, -round);
  }
  EXPECT_TRUE(ring.empty_approx());
}

TEST(SpscRing, TwoThreadStressPreservesSequence) {
  exec::SpscRing<std::uint64_t> ring(256);
  constexpr std::uint64_t kN = 1'000'000;

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kN;) {
      if (ring.try_push(i))
        ++i;
      else
        std::this_thread::yield();
    }
  });

  std::uint64_t expect = 0;
  std::uint64_t v = 0;
  while (expect < kN) {
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expect);  // strict FIFO, nothing lost or duplicated
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_FALSE(ring.try_pop(v));
}

// ----------------------------------------------------------------------
// Worker pool
// ----------------------------------------------------------------------

TEST(WorkerPool, RoutesJobsToPinnedWorkersAndCountsStats) {
  exec::WorkerPool pool(3);
  ASSERT_EQ(pool.size(), 3);

  struct Probe {
    std::atomic<int> seen_worker{-1};
    std::atomic<int> runs{0};
  };
  std::vector<Probe> probes(64);
  auto fn = +[](void* arg, int worker) {
    auto* p = static_cast<Probe*>(arg);
    p->seen_worker.store(worker);
    p->runs.fetch_add(1);
  };

  for (int batch = 0; batch < 50; ++batch) {
    std::vector<exec::WorkerPool::Job> jobs;
    for (int i = 0; i < int(probes.size()); ++i)
      jobs.push_back({fn, &probes[std::size_t(i)], i % pool.size()});
    pool.run(jobs);
    for (int i = 0; i < int(probes.size()); ++i)
      ASSERT_EQ(probes[std::size_t(i)].seen_worker.load(), i % pool.size());
  }
  for (auto& p : probes) EXPECT_EQ(p.runs.load(), 50);
}

// ----------------------------------------------------------------------
// Telemetry interning + publish reentrancy (satellites a and f)
// ----------------------------------------------------------------------

TEST(TelemetryExec, InternedAndStringApisShareOneStore) {
  Telemetry t;
  const auto id = t.intern("hot");
  EXPECT_EQ(id, t.intern("hot"));  // idempotent
  t.inc(id, 5);
  t.inc("hot", 2);
  EXPECT_EQ(t.counter(id), 7u);
  EXPECT_EQ(t.counter("hot"), 7u);
  EXPECT_EQ(t.counter("never_bumped"), 0u);  // lookup must not intern junk
  const auto snap = t.counters();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap.at("hot"), 7u);
}

TEST(TelemetryExec, SubscribingFromInsideCallbackIsSafe) {
  Telemetry t;
  int outer = 0, inner = 0;
  t.subscribe([&](const TelemetrySample&) {
    ++outer;
    if (outer == 1)
      t.subscribe([&](const TelemetrySample&) { ++inner; });  // reentrant
  });
  t.publish({0, "k", 1.0});  // must not invalidate the iteration
  t.publish({1, "k", 2.0});
  EXPECT_EQ(outer, 2);
  EXPECT_EQ(inner, 1);  // late subscriber sees only the second sample
}

}  // namespace
}  // namespace rb
