// City-scale conductor throughput: cells x UEs -> slots/s, RSS and p99
// slot wall time under the virtual-time conductor (ROADMAP item 1, the
// dense-deployment story of section 2 made concrete: many sectors, one
// box). Sweeps 1..64 cells (100 with RB_BENCH_FULL=1), each cell a full
// Deployment slice (DU + RU + prbmon middlebox + UE) stamped over the
// campus grid by CityBuilder.
//
// Emits BENCH_city_scale.json and exits nonzero when the near-linear
// gate fails: aggregate cell-slots/s at 16 cells must reach
// 0.625 x min(16, host_cores) x the 1-cell slots/s. The floor adapts to
// the host so a 1-core CI box gates on conductor overhead staying small
// rather than on parallel speedup it cannot produce.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "city/city.h"

namespace rb::bench {
namespace {

constexpr int kWarmupSlots = 40;
constexpr int kMeasureSlots = 200;

/// Resident set size in MiB, from /proc/self/status (Linux only; 0 when
/// unavailable). Read while the city is alive; packet pools commit only
/// the slots they hand out, so it follows each city's own footprint.
double rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

struct Result {
  int cells = 0;
  int workers = 0;
  double slots_per_s = 0;      // city slots (all cells advance together)
  double cell_slots_per_s = 0; // aggregate = cells x slots_per_s
  double p99_slot_us = 0;
  double rss_mib = 0;
  bool attached = false;
};

Result run_city(int n_cells, int workers) {
  city::CityConfig cfg;
  cfg.n_cells = n_cells;
  cfg.ues_per_cell = 1;
  cfg.workers = workers;
  auto c = city::build_city(cfg);

  Result r;
  r.cells = n_cells;
  r.workers = workers;
  r.attached = c->attach_all(800);
  c->run_slots(kWarmupSlots);

  std::vector<double> slot_us(std::size_t{kMeasureSlots}, 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < kMeasureSlots; ++s) {
    const auto s0 = std::chrono::steady_clock::now();
    c->run_slots(1);
    const auto s1 = std::chrono::steady_clock::now();
    slot_us[std::size_t(s)] =
        std::chrono::duration<double, std::micro>(s1 - s0).count();
  }
  const auto t1 = std::chrono::steady_clock::now();

  const double wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.slots_per_s = double(kMeasureSlots) / wall_s;
  r.cell_slots_per_s = r.slots_per_s * double(n_cells);
  std::sort(slot_us.begin(), slot_us.end());
  r.p99_slot_us = slot_us[std::size_t(double(kMeasureSlots) * 0.99)];
  r.rss_mib = rss_mib();
  return r;
}

}  // namespace
}  // namespace rb::bench

int main() {
  using namespace rb::bench;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int worker_cap = int(std::min(hw, 16u));
  const double slot_budget_us =
      double(rb::slot_duration_ns(rb::Scs::kHz30)) / 1000.0;

  header("City-scale conductor: slots/s, RSS and p99 slot time vs cells",
         "ROADMAP item 1 (city-scale scale-out), src/city conductor");
  row("host cores: %u, workers capped at %d, %d measured slots/point, "
      "slot budget %.0f us",
      hw, worker_cap, kMeasureSlots, slot_budget_us);
  row("");
  row("%6s %8s %10s %16s %13s %10s", "cells", "workers", "slots/s",
      "cell-slots/s", "p99 slot us", "RSS MiB");

  std::vector<int> sweep{1, 2, 4, 8, 16, 32, 64};
  if (std::getenv("RB_BENCH_FULL")) sweep.push_back(100);

  std::vector<Result> results;
  bool all_attached = true;
  for (int n : sweep) {
    const Result r = run_city(n, std::min(n, worker_cap));
    all_attached = all_attached && r.attached;
    row("%6d %8d %10.1f %16.1f %13.1f %10.1f", r.cells, r.workers,
        r.slots_per_s, r.cell_slots_per_s, r.p99_slot_us, r.rss_mib);
    results.push_back(r);
  }

  // Near-linear gate, normalized per cell: with W usable workers a
  // perfectly scaling conductor sustains W x base cell-slots/s; require
  // 62.5% of that at 16 cells.
  const Result* base = nullptr;
  const Result* at16 = nullptr;
  for (const auto& r : results) {
    if (r.cells == 1) base = &r;
    if (r.cells == 16) at16 = &r;
  }
  const double usable = std::min(16.0, double(hw));
  const double required =
      base ? 0.625 * usable * base->slots_per_s : 0.0;
  const bool gate_ok =
      base && at16 && at16->cell_slots_per_s >= required && all_attached;
  row("");
  row("near-linear gate: 16 cells aggregate %.1f cell-slots/s vs required "
      "%.1f (0.625 x %.0f x %.1f base)  -> %s",
      at16 ? at16->cell_slots_per_s : 0.0, required, usable,
      base ? base->slots_per_s : 0.0, gate_ok ? "PASS" : "FAIL");

  std::FILE* f = std::fopen("BENCH_city_scale.json", "w");
  if (f) {
    std::fprintf(f, "{\n  \"host_cores\": %u,\n  \"measure_slots\": %d,\n",
                 hw, kMeasureSlots);
    std::fprintf(f, "  \"slot_budget_us\": %.1f,\n", slot_budget_us);
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(f,
                   "    {\"cells\": %d, \"workers\": %d, "
                   "\"slots_per_s\": %.1f, \"cell_slots_per_s\": %.1f, "
                   "\"p99_slot_us\": %.1f, \"rss_mib\": %.1f}%s\n",
                   r.cells, r.workers, r.slots_per_s, r.cell_slots_per_s,
                   r.p99_slot_us, r.rss_mib,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"gate\": {\"required_cell_slots_per_s\": %.1f, "
                 "\"actual_cell_slots_per_s\": %.1f, \"pass\": %s}\n}\n",
                 required, at16 ? at16->cell_slots_per_s : 0.0,
                 gate_ok ? "true" : "false");
    std::fclose(f);
    row("wrote BENCH_city_scale.json");
  }
  return gate_ok ? 0 : 1;
}
