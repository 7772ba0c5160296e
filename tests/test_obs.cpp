// Observability subsystem: trace ring, histograms, slot budgets, the
// serial-vs-parallel city trace equivalence guarantee, exporters, and the
// telemetry interning satellites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "city/city.h"
#include "common/thread_flags.h"
#include "core/mgmt.h"
#include "job_threads.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/deployment.h"

namespace rb {
namespace {

// ----------------------------------------------------------------------
// TraceRing
// ----------------------------------------------------------------------

obs::TraceEvent ev(std::int64_t ts, std::uint16_t name = 0) {
  obs::TraceEvent e;
  e.ts_ns = ts;
  e.name = name;
  return e;
}

TEST(TraceRing, FifoDrainAndOverflowDropCounting) {
  obs::TraceRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);

  for (int i = 0; i < 8; ++i) ring.push(ev(i));
  ring.push(ev(99));  // full: dropped + counted, never blocks or overwrites
  ring.push(ev(100));
  EXPECT_EQ(ring.dropped(), 2u);

  std::vector<obs::TraceEvent> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[std::size_t(i)].ts_ns, i);

  // Space reclaimed after the drain; wrap the indices well past capacity.
  for (int i = 0; i < 200; ++i) ring.push(ev(1000 + i));
  out.clear();
  ring.drain(out);
  ASSERT_EQ(out.size(), 8u);  // first 8 kept, the rest dropped
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[std::size_t(i)].ts_ns, 1000 + i);
  EXPECT_EQ(ring.dropped(), 2u + 192u);

  // Drain-after-drain sees nothing.
  out.clear();
  ring.drain(out);
  EXPECT_TRUE(out.empty());
}

TEST(TraceRing, EventLessIsADeterministicTotalOrder) {
  obs::TraceEvent a = ev(10), b = ev(10);
  b.name = 1;
  EXPECT_TRUE(obs::event_less(a, b));
  EXPECT_FALSE(obs::event_less(b, a));
  EXPECT_FALSE(obs::event_less(a, a));  // irreflexive
  // Virtual time dominates every structural tie-break.
  obs::TraceEvent c = ev(9, 5);
  c.track = 7;
  EXPECT_TRUE(obs::event_less(c, a));
}

// ----------------------------------------------------------------------
// Log-linear histogram
// ----------------------------------------------------------------------

TEST(LatencyHistogram, BucketBoundsContainTheirValues) {
  using H = obs::LatencyHistogram;
  for (std::int64_t v : {0LL, 1LL, 31LL, 32LL, 33LL, 100LL, 1000LL,
                         123456LL, 1'000'000'000LL}) {
    const int idx = H::index_of(std::uint64_t(v));
    EXPECT_GE(v, H::lower_bound(idx)) << v;
    EXPECT_LE(v, H::upper_bound(idx)) << v;
  }
  // Relative-error bound: bucket width <= lower_bound / 16 everywhere.
  for (std::int64_t v = 32; v < 100'000'000; v = v * 3 + 7) {
    const int idx = H::index_of(std::uint64_t(v));
    const std::int64_t width = H::upper_bound(idx) - H::lower_bound(idx) + 1;
    EXPECT_LE(width * 16, H::lower_bound(idx)) << v;
  }
}

TEST(LatencyHistogram, MergedShardsEqualSingleStream) {
  // Deterministic splitmix-style stream sharded four ways.
  obs::LatencyHistogram all;
  obs::LatencyHistogram shard[4];
  std::uint64_t s = 12345;
  for (int i = 0; i < 50'000; ++i) {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    const std::int64_t v = std::int64_t(z % 2'000'000);  // 0..2ms
    all.record(v);
    shard[i % 4].record(v);
  }
  obs::LatencyHistogram merged;
  for (const auto& h : shard) merged.merge(h);
  EXPECT_EQ(merged, all);  // identical state, not just close
  EXPECT_EQ(merged.count(), 50'000u);
  EXPECT_EQ(merged.sum(), all.sum());
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
  EXPECT_EQ(merged.percentile(50), all.percentile(50));
  EXPECT_EQ(merged.percentile(99), all.percentile(99));
}

TEST(LatencyHistogram, PercentilesAreMonotoneAndBracketed) {
  obs::LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i);
  EXPECT_EQ(h.count(), 1000u);
  std::int64_t prev = 0;
  for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    const std::int64_t v = h.percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_LE(h.percentile(100), h.max());
  // ~3% relative error at the median of a uniform 1..1000 stream.
  EXPECT_NEAR(double(h.percentile(50)), 500.0, 500.0 * 0.04);
  h.record(-5);  // negatives clamp to zero rather than corrupting state
  EXPECT_EQ(h.min(), 0);
}

// ----------------------------------------------------------------------
// Minimal recursive-descent JSON validator — enough to prove the
// Chrome-trace exporter emits well-formed JSON.
// ----------------------------------------------------------------------

struct JsonCheck {
  const char* p;
  const char* end;

  void ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool lit(const char* s) {
    const std::size_t n = std::strlen(s);
    if (std::size_t(end - p) < n || std::strncmp(p, s, n) != 0) return false;
    p += n;
    return true;
  }
  bool string() {
    if (p >= end || *p != '"') return false;
    ++p;
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return false;
      }
      ++p;
    }
    if (p >= end) return false;
    ++p;
    return true;
  }
  bool number() {
    const char* q = p;
    if (p < end && *p == '-') ++p;
    while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) ||
                       *p == '.' || *p == 'e' || *p == 'E' || *p == '-' ||
                       *p == '+'))
      ++p;
    return p > q;
  }
  bool value() {
    ws();
    if (p >= end) return false;
    if (*p == '{') return object();
    if (*p == '[') return array();
    if (*p == '"') return string();
    if (lit("true") || lit("false") || lit("null")) return true;
    return number();
  }
  bool object() {
    ++p;  // '{'
    ws();
    if (p < end && *p == '}') {
      ++p;
      return true;
    }
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (p >= end || *p != ':') return false;
      ++p;
      if (!value()) return false;
      ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      break;
    }
    if (p >= end || *p != '}') return false;
    ++p;
    return true;
  }
  bool array() {
    ++p;  // '['
    ws();
    if (p < end && *p == ']') {
      ++p;
      return true;
    }
    while (true) {
      if (!value()) return false;
      ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      break;
    }
    if (p >= end || *p != ']') return false;
    ++p;
    return true;
  }
};

bool valid_json(const std::string& s) {
  JsonCheck j{s.data(), s.data() + s.size()};
  if (!j.value()) return false;
  j.ws();
  return j.p == j.end;
}

TEST(JsonCheckSelfTest, AcceptsGoodRejectsBad) {
  EXPECT_TRUE(valid_json(R"({"a":[1,2.5,"x\"y",true,null],"b":{}})"));
  EXPECT_FALSE(valid_json(R"({"a":1)"));
  EXPECT_FALSE(valid_json(R"([1,2,])"));
  EXPECT_FALSE(valid_json(R"({"a" 1})"));
  EXPECT_FALSE(valid_json("{} trailing"));
}

// ----------------------------------------------------------------------
// End-to-end: the DAS floor scenario traced under obs
// ----------------------------------------------------------------------

struct ObsRun {
  std::vector<obs::SlotBudget> budgets;
  std::map<std::uint32_t, obs::LatencyHistogram> hists;
  std::vector<obs::TraceEvent> events;
  std::uint64_t dropped = 0;
};

/// Collect one run: start a fresh dataset, run the slots, stop.
ObsRun collect(const std::function<void()>& run_slots) {
  auto& col = obs::Collector::instance();
  col.start();  // fresh dataset per run; interned ids persist
  run_slots();
  col.stop();

  ObsRun r;
  r.budgets = col.budgets();
  r.hists = col.hists();
  r.events = col.events();
  r.dropped = col.dropped();
  return r;
}

/// One 100 MHz cell over five DAS RUs plus an independent direct-wired
/// second cell, run with collection on; optionally a delayed + lossy
/// fronthaul link to RU 0.
ObsRun run_traced(int slots, bool with_fault = false) {
  Deployment d;
  CellConfig c;
  c.bandwidth = MHz(100);
  c.max_layers = 4;
  c.pci = 1;
  auto du = d.add_du(c, srsran_profile(), 0);
  std::vector<Deployment::RuHandle> rus;
  std::vector<Deployment::RuHandle*> ptrs;
  for (int f = 0; f < 5; ++f) {
    RuSite site;
    site.pos = d.plan.ru_position(f, 1);
    site.n_antennas = 4;
    site.bandwidth = MHz(100);
    site.center_freq = c.center_freq;
    rus.push_back(d.add_ru(site, std::uint8_t(f), du.du->fh()));
  }
  for (auto& r : rus) ptrs.push_back(&r);
  d.add_das(du, ptrs, DriverKind::Dpdk, 2);

  CellConfig c2;
  c2.bandwidth = MHz(100);
  c2.max_layers = 4;
  c2.pci = 2;
  c2.center_freq = c.center_freq + MHz(120);
  auto du2 = d.add_du(c2, srsran_profile(), 1);
  RuSite s2;
  s2.pos = d.plan.ru_position(0, 3);
  s2.n_antennas = 4;
  s2.bandwidth = MHz(100);
  s2.center_freq = c2.center_freq;
  auto ru2 = d.add_ru(s2, 5, du2.du->fh());
  d.connect_direct(du2, ru2);

  if (with_fault) {
    FaultPlan plan;
    plan.delay_ns = 4000;
    plan.jitter_ns = 2000;
    plan.loss = 0.02;
    plan.seed = 7;
    d.add_fault(*rus[0].port, plan, plan, "obslink");
  }

  for (int f = 0; f < 5; ++f)
    d.add_ue(d.plan.near_ru(f, 1, 4.0), &du, 200.0, 20.0);
  d.add_ue(d.plan.near_ru(0, 3, 4.0), &du2, 200.0, 20.0, 2);

  return collect([&] { d.engine.run_slots(slots); });
}

/// A 4-cell city with a neutral-host RU shared across shards, attached
/// untraced, then `slots` collected on a conductor with `workers` threads
/// (0 = serial). `job_threads` receives how many distinct threads ran
/// cell jobs during the traced slots.
ObsRun run_city_traced(int workers, int slots,
                       std::size_t* job_threads = nullptr) {
  city::CityConfig cfg;
  cfg.n_cells = 4;
  cfg.neutral_host = true;
  cfg.workers = workers;
  auto c = city::build_city(cfg);
  EXPECT_TRUE(c->attach_all(800));
  JobThreads threads(*c);
  ObsRun r = collect([&] { c->run_slots(slots); });
  if (job_threads) *job_threads = threads.distinct();
  return r;
}

TEST(ObsE2E, SerialAndParallelProduceIdenticalTracesAndBudgets) {
  // Cell jobs of the parallel conductor emit into their own threads'
  // trace rings; the barrier merge must make that invisible.
  constexpr int kSlots = 60;
  std::size_t par_threads = 0;
  const ObsRun serial = run_city_traced(0, kSlots);
  const ObsRun par3 = run_city_traced(3, kSlots, &par_threads);
  EXPECT_GE(par_threads, 2u);

  ASSERT_EQ(serial.budgets.size(), std::size_t(kSlots));
  ASSERT_EQ(par3.budgets.size(), std::size_t(kSlots));
  EXPECT_EQ(serial.dropped, 0u);
  EXPECT_EQ(par3.dropped, 0u);

  // Per-slot budgets must match slot for slot...
  for (int s = 0; s < kSlots; ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(serial.budgets[std::size_t(s)], par3.budgets[std::size_t(s)]);
  }
  // ...as must the merged histograms and the full retained event stream.
  EXPECT_EQ(serial.hists, par3.hists);
  ASSERT_EQ(serial.events.size(), par3.events.size());
  EXPECT_TRUE(std::equal(serial.events.begin(), serial.events.end(),
                         par3.events.begin()));

  // And the run actually exercised the stack: handler time was recorded.
  std::uint64_t busy = 0;
  for (const auto& b : serial.budgets) busy += b.busy_ns;
  EXPECT_GT(busy, 0u);
}

TEST(ObsE2E, BudgetAttributionIsConsistent) {
  const ObsRun r = run_traced(40);
  const auto& col = obs::Collector::instance();
  bool saw_actions = false;
  for (const auto& b : r.budgets) {
    // Every action span lies inside a Packet span (handler) or a Combine
    // span (pump-idle flush), so attributed action time cannot exceed
    // busy + combine. The +events slack covers per-span truncation.
    EXPECT_LE(b.a1_ns + b.a2_ns + b.a3_ns + b.a4_ns + b.charge_ns,
              b.busy_ns + b.combine_ns + b.events);
    if (b.a1_ns > 0 || b.a4_ns > 0) saw_actions = true;
    if (b.deadline_ns > 0) {
      EXPECT_DOUBLE_EQ(b.budget_pct(),
                       100.0 * double(b.busy_ns) / double(b.deadline_ns));
    }
  }
  EXPECT_TRUE(saw_actions);
  // The 30 kHz numerology deadline is 500 us.
  EXPECT_EQ(r.budgets.front().deadline_ns, 500'000);
  EXPECT_EQ(col.slots_committed(), 40u);
  // A handler-latency histogram accrued on the DAS track.
  bool saw_mb_proc = false;
  for (const auto& [key, h] : r.hists) {
    if (obs::Collector::hist_key_kind(key) == obs::HistKind::MbProc &&
        h.count() > 0)
      saw_mb_proc = true;
  }
  EXPECT_TRUE(saw_mb_proc);
}

TEST(ObsE2E, RetainedEventsAreSortedPerSlotBatch) {
  const ObsRun r = run_city_traced(3, 30);
  ASSERT_FALSE(r.budgets.empty());
  std::uint64_t checked = 0;
  for (const auto& b : r.budgets) {
    ASSERT_LE(b.ev_end, r.events.size());
    ASSERT_LE(b.ev_begin, b.ev_end);
    for (std::uint64_t i = b.ev_begin + 1; i < b.ev_end; ++i) {
      ASSERT_FALSE(obs::event_less(r.events[std::size_t(i)],
                                   r.events[std::size_t(i - 1)]))
          << "slot " << b.slot << " event " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);  // the scenario produces a real trace
}

TEST(ObsE2E, ChromeTraceExportIsValidAndAnnotated) {
  run_traced(100, /*with_fault=*/true);
  auto& col = obs::Collector::instance();

  const std::string json = obs::chrome_trace_json(col);
  ASSERT_TRUE(valid_json(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  // Slot spans on the engine track, middlebox actions, link-delay spans,
  // the app-declared DAS combine phase, and fault annotations.
  EXPECT_NE(json.find("\"name\":\"slot\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"a1.forward\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"a4.merge\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"link\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"das.combine\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fault.delay\""), std::string::npos);
  EXPECT_NE(json.find("obslink.ab"), std::string::npos);  // track name
  EXPECT_NE(json.find("mb.das0"), std::string::npos);

  // Fault-delay histogram sits exactly in the configured 4..6 us band.
  bool found_fault_hist = false;
  for (const auto& [key, h] : col.hists()) {
    if (obs::Collector::hist_key_kind(key) != obs::HistKind::FaultDelay)
      continue;
    found_fault_hist = true;
    EXPECT_GT(h.count(), 0u);
    EXPECT_GE(h.min(), 4000);
    EXPECT_LT(h.max(), 6000);
  }
  EXPECT_TRUE(found_fault_hist);

  const std::string prom = obs::prometheus_text(col);
  EXPECT_NE(prom.find("rb_obs_slots_total 100"), std::string::npos);
  EXPECT_NE(prom.find("rb_obs_mb_proc_ns_bucket"), std::string::npos);
  EXPECT_NE(prom.find("rb_obs_link_delay_ns_bucket"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);

  const std::string csv = obs::budget_csv(col);
  // Header + one row per slot.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 101);
  EXPECT_NE(csv.find("slot,t0_ns,deadline_ns,busy_ns"), std::string::npos);
}

TEST(ObsE2E, DisabledCollectorRecordsNothing) {
  auto& col = obs::Collector::instance();
  col.reset();
  Deployment d;
  CellConfig c;
  c.bandwidth = MHz(40);
  auto du = d.add_du(c, srsran_profile(), 0);
  RuSite site;
  site.pos = d.plan.ru_position(0, 1);
  site.bandwidth = MHz(40);
  site.center_freq = c.center_freq;
  auto ru = d.add_ru(site, 0, du.du->fh());
  d.connect_direct(du, ru);
  d.add_ue(d.plan.near_ru(0, 1, 4.0), &du, 50.0, 10.0);
  d.engine.run_slots(20);
  EXPECT_EQ(col.slots_committed(), 0u);
  EXPECT_TRUE(col.events().empty());
  EXPECT_TRUE(col.budgets().empty());
  EXPECT_TRUE(col.hists().empty());
}

// ----------------------------------------------------------------------
// mgmt query plane
// ----------------------------------------------------------------------

struct NullApp final : MiddleboxApp {
  std::string name() const override { return "nullapp"; }
  void on_frame(int, PacketPtr p, FhFrame&, MbContext& ctx) override {
    ctx.drop(std::move(p));
  }
};

TEST(ObsMgmt, ExportersReachableThroughMgmtVerbs) {
  run_traced(20);

  NullApp app;
  MiddleboxRuntime rt(MiddleboxRuntime::Config{}, app);
  MgmtEndpoint ep(rt);

  const std::string trace = ep.handle("obs trace");
  EXPECT_TRUE(valid_json(trace));
  EXPECT_NE(trace.find("\"name\":\"slot\""), std::string::npos);

  EXPECT_NE(ep.handle("obs prom").find("rb_obs_slots_total"),
            std::string::npos);
  EXPECT_NE(ep.handle("obs csv").find("deadline_miss"), std::string::npos);
  EXPECT_NE(ep.handle("obs stats").find("slots=20"), std::string::npos);
  EXPECT_EQ(ep.handle("obs start"), "ok");
  EXPECT_TRUE(obs::enabled());
  EXPECT_EQ(ep.handle("obs stop"), "ok");
  EXPECT_FALSE(obs::enabled());
  // Unknown subverbs answer with usage, not app delegation.
  EXPECT_NE(ep.handle("obs bogus").find("unknown obs"), std::string::npos);
  obs::Collector::instance().reset();
}

// ----------------------------------------------------------------------
// Telemetry satellites: gauge interning and inc/counter symmetry
// ----------------------------------------------------------------------

TEST(TelemetryGauges, InternedAndStringApisShareOneStore) {
  Telemetry t;
  const auto id = t.intern_gauge("util");
  EXPECT_EQ(id, t.intern_gauge("util"));  // idempotent
  t.set_gauge(id, 0.25);
  EXPECT_DOUBLE_EQ(t.gauge(id), 0.25);
  EXPECT_DOUBLE_EQ(t.gauge("util"), 0.25);
  t.set_gauge("util", 0.75);  // string path hits the same slot
  EXPECT_DOUBLE_EQ(t.gauge(id), 0.75);
  EXPECT_DOUBLE_EQ(t.gauge("absent"), 0.0);  // lookup must not intern junk

  const auto snap = t.gauges();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.at("util"), 0.75);
}

TEST(TelemetryGauges, GaugesAndCountersAreIndependentNamespaces) {
  Telemetry t;
  const auto cid = t.intern("x");
  const auto gid = t.intern_gauge("x");
  t.inc(cid, 3);
  t.set_gauge(gid, 1.5);
  EXPECT_EQ(t.counter("x"), 3u);
  EXPECT_DOUBLE_EQ(t.gauge("x"), 1.5);
}

TEST(TelemetrySymmetry, OutOfRangeIdsAreCheckedOnBothPaths) {
  Telemetry t;
  const auto id = t.intern("only");
  t.inc(id);
  const Telemetry::CounterId bogus = 999;
  const Telemetry::GaugeId bogus_g = 999;
#ifdef NDEBUG
  // Release: both directions are checked no-ops — inc() must not write
  // out of bounds (it used to be unchecked while counter() was checked).
  t.inc(bogus, 7);
  EXPECT_EQ(t.counter(bogus), 0u);
  t.set_gauge(bogus_g, 3.0);
  EXPECT_DOUBLE_EQ(t.gauge(bogus_g), 0.0);
  EXPECT_EQ(t.counter(id), 1u);  // valid state untouched
  ASSERT_EQ(t.counters().size(), 1u);
#else
  // Debug: both directions assert, symmetrically.
  EXPECT_DEATH(t.inc(bogus, 7), "CounterId");
  EXPECT_DEATH((void)t.counter(bogus), "CounterId");
  EXPECT_DEATH(t.set_gauge(bogus_g, 3.0), "GaugeId");
  EXPECT_DEATH((void)t.gauge(bogus_g), "GaugeId");
#endif
}

TEST(TelemetryThreading, PublishOffWorkerThreadIsAllowed) {
  // The coordinator (this thread) may publish/subscribe freely; the
  // worker-thread assert is exercised implicitly by the parallel city
  // runs above (cell jobs run as shard coordinators on pool workers).
  Telemetry t;
  int got = 0;
  t.subscribe([&](const TelemetrySample&) { ++got; });
  t.publish({0, "k", 1.0});
  EXPECT_EQ(got, 1);
  EXPECT_FALSE(on_exec_worker_thread());
}

}  // namespace
}  // namespace rb
