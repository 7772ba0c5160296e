// rbperf: the repository benchmark.
//
//   rbperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--git-sha <sha>]
//
// Runs one workload as a closed loop (one thread advances virtual
// time a slot at a time; a slot starts when the previous one finished),
// checks the simulation's outputs, and prints as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, measured untraced; with
// --trace 1 they are the per-layer ones from a traced run. Exit status is
// 0 only when every check passed. See perfbench/README.md.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "iq/kernels/kernels.h"
#include "rigs.h"

#ifndef RBPERF_BUILD_TYPE
#define RBPERF_BUILD_TYPE "unknown"
#endif

namespace rbperf {
namespace {

/// Slots run after attach before anything is measured (caches fill,
/// schedulers reach steady backlog).
constexpr int kWarmupSlots = 200;
/// Fixed virtual window for the simulated outputs (sim_*, error share):
/// the first slots of every measured window, so they repeat exactly
/// however fast the host runs.
constexpr int kSimSlots = 1000;
/// The measured window is cut into chunks this long. On a shared host
/// the speed of a core changes for seconds at a time with what the other
/// guests run; the timings are what three quarters of the chunks sustain
/// (see Sustained), which repeats across runs where medians do not.
constexpr double kChunkS = 0.25;
/// The city's timed set-ups use its serial conductor: on a shared
/// virtual machine the parallel conductor's wall time follows how fast
/// the hypervisor wakes idle vCPUs (it swung 5x between runs), not the
/// program. The workers = 4 conductor is checked against it.
constexpr int kTimedCityWorkers = 0;
/// Traced runs alternate untraced and traced chunks of this many slots,
/// so host noise hits both sides of the tracing-overhead ratio alike.
constexpr int kChunkSlots = 50;

struct Args {
  Workload workload = Workload::Das5Loaded;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string git_sha = "unknown";
};

struct Spec {
  int setup_reps;  // set-ups per run; setup_s is their median
  int attach_max;  // slots allowed to reach all-UEs-attached
};

Spec spec_of(Workload w) {
  switch (w) {
    case Workload::Das5Loaded: return {21, 600};
    case Workload::RuShare2Loaded: return {21, 800};
    case Workload::City16Nh: return {7, 800};
  }
  return {1, 800};
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      const auto w = parse_workload(v);
      if (!w) return false;
      a.workload = *w;
      have_w = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_s = end && *end == '\0' && a.seconds > 0 && a.seconds <= 600;
    } else if (k == "--trace") {
      have_t = v == "0" || v == "1";
      a.trace = v == "1";
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_w && have_seed && have_s && have_t;
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Named pass/fail checks; the run is correct when all pass.
struct Checks {
  std::vector<std::pair<std::string, bool>> list;
  void add(const std::string& name, bool ok) {
    list.emplace_back(name, ok);
    if (!ok) std::fprintf(stderr, "rbperf: check failed: %s\n", name.c_str());
  }
  bool all() const {
    for (const auto& c : list)
      if (!c.second) return false;
    return true;
  }
};

/// Run `n` slots, traced into `t` when given.
void run_slots(Rig& rig, int n, Trace* t = nullptr) {
  for (int i = 0; i < n; ++i) {
    if (t)
      rig.run_slot_traced(*t);
    else
      rig.run_slot();
  }
}

/// Warm up, then run the fixed virtual window of the simulated outputs.
SimResult sim_window(Rig& rig, Trace* t = nullptr) {
  run_slots(rig, kWarmupSlots, t);
  rig.begin_sim();
  run_slots(rig, kSimSlots, t);
  return rig.end_sim();
}

/// City fingerprint after attach and the simulated window, with the
/// conductor on `workers` threads. The serial city (workers = 0) is the
/// reference the parallel conductor must match byte for byte; this is the
/// only check that runs with more than one worker actually busy.
std::string city_fingerprint(const Args& a, int workers, Checks& checks) {
  auto rig = make_rig(a.workload, a.seed, workers);
  checks.add("city attaches with workers=" + std::to_string(workers),
             rig->attach(spec_of(a.workload).attach_max, false));
  sim_window(*rig);
  return rig->fingerprint();
}

struct Window {
  std::vector<double> wall_us;  // per slot
  std::vector<Chunk> chunks;    // kChunkS stretches, in order
  double on_cpu_share = 0;      // of the window, for the driver thread
  SimResult sim;                // over the first kSimSlots
  Counters delta;               // over the whole window
};

/// The measured closed loop: at least kSimSlots, then until `seconds`.
Window measure(Rig& rig, double seconds) {
  Window w;
  w.wall_us.reserve(std::size_t(seconds * 20'000) + kSimSlots);
  rig.begin_sim();
  const Counters c0 = rig.counters();
  const std::int64_t t0 = now_ns();
  const std::int64_t cpu0 = thread_cpu_ns();
  Chunk chunk;
  std::int64_t chunk_t0 = t0;
  const auto close_chunk = [&](std::int64_t end) {
    chunk.wall_ns = double(end - chunk_t0);
    w.chunks.push_back(chunk);
    chunk = Chunk{w.wall_us.size(), 0, 0};
    chunk_t0 = end;
  };
  for (;;) {
    const std::int64_t a = now_ns();
    rig.run_slot();
    const std::int64_t b = now_ns();
    w.wall_us.push_back(double(b - a) / 1000.0);
    if (w.wall_us.size() == std::size_t(kSimSlots)) w.sim = rig.end_sim();
    ++chunk.slots;
    if (double(b - chunk_t0) >= kChunkS * 1e9) close_chunk(b);
    if (w.wall_us.size() >= std::size_t(kSimSlots) &&
        double(b - t0) >= seconds * 1e9)
      break;
  }
  if (w.chunks.empty()) close_chunk(now_ns());  // shorter than one chunk
  w.on_cpu_share = double(thread_cpu_ns() - cpu0) / double(now_ns() - t0);
  w.delta = rig.counters() - c0;
  return w;
}

struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double error_share = 0;
  std::string meta;  // extra JSON fields for the metadata line
};

Outcome run_end_to_end(const Args& a, Checks& checks) {
  const Spec spec = spec_of(a.workload);
  const bool city = a.workload == Workload::City16Nh;
  const std::string parallel_fp = city ? city_fingerprint(a, 4, checks) : "";

  std::vector<double> setup_s;
  SimResult first_sim;
  std::unique_ptr<Rig> rig;
  bool attached = true;
  for (int r = 0; r < spec.setup_reps; ++r) {
    rig.reset();  // one topology alive at a time: peak RSS is one rig's
    const std::int64_t t0 = now_ns();
    rig = make_rig(a.workload, a.seed, kTimedCityWorkers);
    attached = rig->attach(spec.attach_max, false) && attached;
    setup_s.push_back(double(now_ns() - t0) / 1e9);
    if (r > 0) continue;
    first_sim = sim_window(*rig);
    if (city)
      checks.add("city fingerprint: workers=4 == workers=0",
                 rig->fingerprint() == parallel_fp);
  }

  checks.add("every UE attaches, in every set-up", attached);

  // The last set-up is measured; its first kSimSlots repeat the window
  // the first set-up simulated.
  run_slots(*rig, kWarmupSlots);
  const Window w = measure(*rig, a.seconds);
  checks.add("sim outputs identical across set-ups", w.sim == first_sim);
  const double err = w.sim.frames.error_share();
  if (!city)
    checks.add("error_share == 0 on a single-cell workload", err == 0.0);

  const Sustained t = sustained(w.wall_us, w.chunks);
  std::vector<double> rates;
  for (const Chunk& c : w.chunks) rates.push_back(c.rate());

  Outcome o;
  o.metrics = {
      {"slots_per_s", t.slots_per_s, "1/s"},
      {"slot_wall_p50_us", t.wall_p50_us, "us"},
      {"slot_wall_p90_us", t.wall_p90_us, "us"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"sim_dl_mbps", w.sim.dl_mbps, "Mbps"},
      {"sim_ul_mbps", w.sim.ul_mbps, "Mbps"},
      {"frames_ok_share", 1.0 - err, "ratio"},
  };
  o.attempted = w.delta.all.received;
  o.failed = w.delta.all.errors;
  o.error_share = err;
  const auto q = quartiles(setup_s);
  o.meta = "\"measured_slots\": " + std::to_string(w.wall_us.size()) +
           ", \"chunks\": " + std::to_string(w.chunks.size()) +
           ", \"slots_per_s_median_chunk\": " + json_number(median(rates)) +
           ", \"slot_wall_p50_us_all_slots\": " +
           json_number(median(w.wall_us)) +
           ", \"on_cpu_share\": " + json_number(w.on_cpu_share) +
           ", \"setup_reps\": " + std::to_string(spec.setup_reps) +
           ", \"setup_s_q1\": " + json_number(q[0]) +
           ", \"setup_s_q3\": " + json_number(q[1]);
  if (city)
    o.meta += ", \"timed_city_workers\": " + std::to_string(kTimedCityWorkers);
  return o;
}

Outcome run_traced(const Args& a, Checks& checks) {
  const Spec spec = spec_of(a.workload);
  const bool city = a.workload == Workload::City16Nh;
  // Reference: the same set-up and window through the program's own
  // conductor, untraced.
  SimResult ref_sim;
  std::string ref_fp;
  {
    auto ref = make_rig(a.workload, a.seed);
    checks.add("every UE attaches (untraced)",
               ref->attach(spec.attach_max, false));
    ref_sim = sim_window(*ref);
    ref_fp = ref->fingerprint();
  }
  if (city)
    checks.add("city fingerprint: workers=4 == workers=0",
               city_fingerprint(a, 0, checks) == ref_fp);

  auto rig = make_rig(a.workload, a.seed);
  checks.add("every UE attaches (traced)", rig->attach(spec.attach_max, true));
  Trace warm;
  const SimResult sim = sim_window(*rig, &warm);
  checks.add("traced sim outputs == untraced", sim == ref_sim);
  checks.add("traced fingerprint == untraced", rig->fingerprint() == ref_fp);
  if (!city)
    checks.add("error_share == 0 on a single-cell workload",
               sim.frames.error_share() == 0.0);

  Trace t;
  Counters d{};
  double plain_ns = 0;
  std::uint64_t plain_slots = 0;
  const std::int64_t t0 = now_ns();
  while (t.slots == 0 || double(now_ns() - t0) < a.seconds * 1e9) {
    for (int i = 0; i < kChunkSlots; ++i) {
      const std::int64_t s0 = now_ns();
      rig->run_slot();
      plain_ns += double(now_ns() - s0);
      ++plain_slots;
    }
    const Counters c0 = rig->counters();
    run_slots(*rig, kChunkSlots, &t);
    d += rig->counters() - c0;
  }

  const double slots = double(t.slots);
  const auto per_slot_us = [&](double ns) { return ns / slots / 1000.0; };
  const auto per_slot = [&](double v) { return v / slots; };
  const double coverage = t.timed_ns / t.wall_ns;
  if (!city)
    checks.add("timed calls cover >= 95% of the traced slot wall",
               coverage >= 0.95);
  const double pump_ns = t.pump_dl_ns + t.pump_ul_ns;
  const double plain_wall = plain_ns / double(plain_slots);
  const double traced_wall = t.wall_ns / slots;
  const Pools pools = rig->pools();

  Outcome o;
  o.metrics = {
      {"ran.ru.dl_us", per_slot_us(t.ru_dl_ns), "us"},
      {"ran.ru.ul_us", per_slot_us(t.ru_ul_ns), "us"},
      {"ran.ru.frames", per_slot(double(d.ru.received + d.ru_tx)), "1/slot"},
      {"ran.ru.errors", double(d.ru.errors), "count"},
      {"core.pump_dl_us", per_slot_us(t.pump_dl_ns), "us"},
      {"core.pump_ul_us", per_slot_us(t.pump_ul_ns), "us"},
      {"core.begin_us", per_slot_us(t.mb_begin_ns), "us"},
      {"core.frames", per_slot(double(d.core.received)), "1/slot"},
      {"core.ns_per_frame",
       d.core.received ? pump_ns / double(d.core.received) : 0.0, "ns"},
      {"core.pump_passes", per_slot(double(t.pump_calls)), "1/slot"},
      {"core.passes_useful_ratio",
       t.pump_calls ? double(t.pump_useful) / double(t.pump_calls) : 0.0,
       "ratio"},
      {"core.cache_useful_ratio",
       d.cache_ops ? 1.0 - double(d.cache_stale) / double(d.cache_ops) : 1.0,
       "ratio"},
      {"core.errors", double(d.core.errors), "count"},
      {"ran.du.begin_us", per_slot_us(t.du_begin_ns), "us"},
      {"ran.du.rx_us", per_slot_us(t.du_rx_ns), "us"},
      {"ran.du.frames_tx", per_slot(double(d.du_tx)), "1/slot"},
      {"ran.air.us", per_slot_us(t.air_ns), "us"},
      {"sim.traffic_us", per_slot_us(t.traffic_ns), "us"},
      {"city.cell_job_us",
       t.cell_jobs ? t.cell_job_ns / double(t.cell_jobs) / 1000.0 : 0.0, "us"},
      {"city.worker_busy_max_us", per_slot_us(t.busy_max_ns), "us"},
      {"city.worker_imbalance", city ? per_slot(t.imbalance) : 0.0, "ratio"},
      {"city.dispatch_us", per_slot_us(t.dispatch_ns), "us"},
      {"city.barrier_us", per_slot_us(t.barrier_ns), "us"},
      {"city.xlink_frames", per_slot(double(d.xlink_frames)), "1/slot"},
      {"net.pool_in_use", double(pools.in_use), "count"},
      {"net.pool_arena_mib", pools.arena_mib, "MiB"},
      {"net.pool_alloc_failures", double(pools.alloc_failures), "count"},
      {"trace.overhead_pct", (1.0 - plain_wall / traced_wall) * 100.0, "%"},
      {"trace.unaccounted_us", per_slot_us(t.wall_ns - t.timed_ns), "us"},
  };
  o.attempted = d.all.received;
  o.failed = d.all.errors;
  o.error_share = sim.frames.error_share();
  o.meta = "\"measured_slots\": " + std::to_string(t.slots) +
           ", \"untraced_slots\": " + std::to_string(plain_slots) +
           ", \"timed_coverage\": " + json_number(coverage);
  return o;
}

}  // namespace
}  // namespace rbperf

int main(int argc, char** argv) {
  using namespace rbperf;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: rbperf --workload das5_loaded|rushare2_loaded|"
                 "city16_nh --seed N --seconds S --trace 0|1 "
                 "[--git-sha SHA]\n");
    return 2;
  }

  Checks checks;
  Outcome o;
  try {
    o = a.trace ? run_traced(a, checks) : run_end_to_end(a, checks);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rbperf: %s\n", e.what());
    return 1;
  }
  checks.add("every metric is a finite number", all_finite(o.metrics));

  std::printf("%-28s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : o.metrics)
    std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const auto& [name, ok] : checks.list)
    std::printf("check %-58s %s\n", name.c_str(), ok ? "ok" : "FAILED");

  std::string checks_json;
  for (const auto& [name, ok] : checks.list)
    checks_json += std::string(checks_json.empty() ? "" : ", ") + "\"" +
                   name + "\": " + (ok ? "true" : "false");
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"seconds\": %s, \"host_cores\": %u, \"iq_kernel_tier\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"warmup_slots\": %d, "
      "\"sim_slots\": %d, %s, \"error_share\": %s, \"checks\": {%s}}}\n",
      workload_name(a.workload), static_cast<unsigned long long>(a.seed),
      a.trace ? 1 : 0, json_number(a.seconds).c_str(),
      std::thread::hardware_concurrency(),
      rb::kernel_tier_name(rb::iq_kernel_tier()), RBPERF_BUILD_TYPE,
      a.git_sha.c_str(), kWarmupSlots, kSimSlots, o.meta.c_str(),
      json_number(o.error_share).c_str(), checks_json.c_str());

  const bool ok = checks.all();
  std::printf("%s\n", result_json(ok, o.attempted, o.failed, o.metrics).c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}
