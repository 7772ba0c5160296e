// Observability overhead: wall-clock cost of the obs subsystem on the
// Figure 12 chain (two MNO DUs -> rushare -> das -> switch -> 4 RUs),
// the most instrumented scenario in the repo (every span type fires:
// packet, action, combine, tx, link, slot).
//
// Modes: obs disabled (the baseline every production run pays: one
// relaxed atomic load per instrumentation site) vs obs enabled (ring
// pushes + per-slot barrier merge + budget/histogram folding). The
// enabled mode must stay under 5% overhead; CI gates on the exit code.
// A 100-slot Perfetto/Chrome trace of the chain is written as a side
// product (first argv, default BENCH_obs_trace.json).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/export.h"
#include "obs/obs.h"

namespace rb {
namespace {

constexpr int kWarmupSlots = 200;
constexpr int kMeasureSlots = 500;

/// The Figure 12 chain, hand-wired (trimmed: fixed UE positions, no floor
/// walk). Its RU-share accepts UL only from MacAddr::mb(1), so it
/// quarantines the DAS stage's merged UL, which carries a member RU's
/// source MAC: no UE attaches and the chain carries SSB and PRACH but no
/// user traffic. bench_fig12_chain builds the live chain via Deployment.
struct ChainRig {
  Deployment d;
  Deployment::DuHandle du_a, du_b;
  std::vector<Deployment::RuHandle> rus;

  ChainRig() {
    const Hertz ca = aligned_du_center_frequency(bench::kBand78Center, 273,
                                                 106, 10, Scs::kHz30);
    const Hertz cb = aligned_du_center_frequency(bench::kBand78Center, 273,
                                                 106, 150, Scs::kHz30);
    du_a = d.add_du(bench::cell_cfg(MHz(40), ca, 1), srsran_profile(), 0);
    du_b = d.add_du(bench::cell_cfg(MHz(40), cb, 2), srsran_profile(), 1);
    for (int i = 0; i < 4; ++i)
      rus.push_back(d.add_ru(bench::ru_site(d.plan.ru_position(0, i), 4,
                                            MHz(100), bench::kBand78Center),
                             std::uint8_t(i), du_a.du->fh()));

    RuShareConfig scfg;
    scfg.ru_macs = {MacAddr::mb(1)};
    scfg.ru_n_prb = 273;
    scfg.ru_center_freq = bench::kBand78Center;
    for (auto* duh : {&du_a, &du_b}) {
      ShareDu sd;
      sd.mac = duh->du->config().du_mac;
      sd.du_id = duh->du->config().du_id;
      sd.n_prb = duh->du->config().cell.n_prb();
      sd.center_freq = duh->du->config().cell.center_freq;
      sd.prb_offset = Deployment::prb_offset_in_ru(duh->du->config().cell,
                                                   d.air.ru(rus[0].id));
      scfg.dus.push_back(sd);
    }
    d.apps.push_back(std::make_unique<RuShareMiddlebox>(scfg));
    MiddleboxRuntime::Config rc;
    rc.name = "rushare";
    rc.fh = du_a.du->fh();
    rc.fh.carrier_prbs = 273;
    d.runtimes.push_back(
        std::make_unique<MiddleboxRuntime>(rc, *d.apps.back()));
    MiddleboxRuntime& rushare_rt = *d.runtimes.back();
    Port& sh_south = d.new_port("rushare.south");
    rushare_rt.add_port("south", sh_south);
    Port& sh_na = d.new_port("rushare.north0");
    rushare_rt.add_port("north0", sh_na, du_a.du->fh());
    Port& sh_nb = d.new_port("rushare.north1");
    rushare_rt.add_port("north1", sh_nb, du_b.du->fh());
    Port::connect(*du_a.port, sh_na, 1'000);
    Port::connect(*du_b.port, sh_nb, 1'000);

    DasConfig dcfg;
    dcfg.du_mac = du_a.du->config().du_mac;
    for (auto& r : rus) dcfg.ru_macs.push_back(r.mac);
    d.apps.push_back(std::make_unique<DasMiddlebox>(dcfg));
    MiddleboxRuntime::Config dc;
    dc.name = "das";
    dc.fh = du_a.du->fh();
    dc.fh.carrier_prbs = 273;
    d.runtimes.push_back(
        std::make_unique<MiddleboxRuntime>(dc, *d.apps.back()));
    MiddleboxRuntime& das_rt = *d.runtimes.back();
    Port& das_north = d.new_port("das.north");
    Port& das_south = d.new_port("das.south");
    das_rt.add_port("north", das_north);
    das_rt.add_port("south", das_south);
    Port::connect(sh_south, das_north, Deployment::kHopLatencyNs);

    EmbeddedSwitch& sw = d.new_switch("fabric");
    Port& sw_mb = sw.add_port("das");
    Port::connect(das_south, sw_mb, 500);
    sw.add_static_entry(dcfg.du_mac, sw_mb);
    sw.add_static_entry(du_b.du->config().du_mac, sw_mb);
    for (auto& r : rus) {
      Port& sw_ru = sw.add_port("ru");
      Port::connect(*r.port, sw_ru, 500);
      sw.add_static_entry(r.mac, sw_ru);
    }
    d.engine.add_middlebox(rushare_rt);
    d.engine.add_middlebox(das_rt);

    for (auto* duh : {&du_a, &du_b}) {
      const int off = Deployment::prb_offset_in_ru(duh->du->config().cell,
                                                   d.air.ru(rus[0].id));
      for (auto& r : rus) d.air.assign_ru(duh->cell, r.id, off);
    }
    d.add_ue(d.plan.near_ru(0, 0, 2.0), &du_a, 500, 50, 1);
    d.add_ue(d.plan.near_ru(0, 3, 2.0), &du_b, 500, 50, 2);
  }
};

struct Result {
  double wall_ms = 0;
  double slots_per_s = 0;
  std::uint64_t events = 0;
  bool attached = false;  // every UE attached after warmup
};

Result run_mode(bool obs_on) {
  auto& col = obs::Collector::instance();
  col.reset();  // both modes start from a disabled, empty collector
  ChainRig rig;
  rig.d.engine.run_slots(kWarmupSlots);
  const bool attached = rig.d.attach_all(0);  // 0 slots: reads state only

  if (obs_on) {
    obs::ObsConfig cfg;
    cfg.tracing = false;  // budgets/histograms only: the steady-state mode
    col.start(cfg);
  }
  const auto t0 = std::chrono::steady_clock::now();
  rig.d.engine.run_slots(kMeasureSlots);
  const auto t1 = std::chrono::steady_clock::now();

  Result r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.slots_per_s = double(kMeasureSlots) * 1000.0 / r.wall_ms;
  r.events = col.total_events();
  r.attached = attached;
  col.reset();
  return r;
}

/// 100-slot fully-traced run; returns the Chrome-trace/Perfetto JSON.
std::string capture_trace() {
  auto& col = obs::Collector::instance();
  ChainRig rig;
  rig.d.engine.run_slots(kWarmupSlots);
  col.start();  // tracing on: retain the raw spans
  rig.d.engine.run_slots(100);
  col.stop();
  std::string json = obs::chrome_trace_json(col);
  col.reset();
  return json;
}

}  // namespace
}  // namespace rb

int main(int argc, char** argv) {
  using namespace rb;

  bench::header("Observability overhead: tracing on vs off, Fig.12 chain",
                "src/obs acceptance gate (<5% enabled, exit code enforced)");
  bench::row("rushare+das chain, %d measured slots", kMeasureSlots);
  bench::row("");
  bench::row("%-10s %12s %12s %10s %14s", "mode", "wall ms", "slots/s",
             "overhead", "events merged");

  // Best-of-three per mode: the comparison is against scheduler noise.
  const auto best = [](bool obs_on) {
    Result r = run_mode(obs_on);
    for (int i = 0; i < 2; ++i) {
      Result again = run_mode(obs_on);
      if (again.wall_ms < r.wall_ms) r = again;
    }
    return r;
  };
  const Result off = best(false);
  const Result on = best(true);

  const double overhead = (on.wall_ms - off.wall_ms) / off.wall_ms;
  bench::row("%-10s %12.1f %12.1f %10s %14llu", "off", off.wall_ms,
             off.slots_per_s, "-", (unsigned long long)off.events);
  bench::row("%-10s %12.1f %12.1f %9.2f%% %14llu", "on", on.wall_ms,
             on.slots_per_s, overhead * 100.0, (unsigned long long)on.events);

  const bool ok = overhead < 0.05;
  bench::row("");
  bench::row("UEs attached through the chain: %s%s",
             on.attached ? "yes" : "NO",
             on.attached ? "" : " (idle chain: no user traffic)");
  bench::row("enabled overhead under 5%%: %s", ok ? "yes" : "NO");

  // Perfetto artifact: a fully-traced 100-slot window of the same chain.
  const std::string trace_path =
      argc > 1 ? argv[1] : "BENCH_obs_trace.json";
  const std::string json = capture_trace();
  if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    bench::row("wrote %s (%zu bytes; open at https://ui.perfetto.dev)",
               trace_path.c_str(), json.size());
  }

  if (std::FILE* f = std::fopen("BENCH_obs_overhead.json", "w")) {
    std::fprintf(f,
                 "{\n  \"measure_slots\": %d,\n  \"off_wall_ms\": %.2f,\n"
                 "  \"on_wall_ms\": %.2f,\n  \"overhead\": %.4f,\n"
                 "  \"overhead_ok\": %s,\n  \"attached\": %s,\n"
                 "  \"events_merged\": %llu\n}\n",
                 kMeasureSlots, off.wall_ms, on.wall_ms, overhead,
                 ok ? "true" : "false", on.attached ? "true" : "false",
                 (unsigned long long)on.events);
    std::fclose(f);
    bench::row("wrote BENCH_obs_overhead.json");
  }
  return ok ? 0 : 1;
}
