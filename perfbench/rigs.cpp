#include "rigs.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "city/city.h"
#include "obs/obs.h"
#include "ran/vendor.h"
#include "sim/deployment.h"

namespace rbperf {
namespace {

constexpr rb::Hertz kBand78Center = rb::GHz(3) + rb::MHz(460);

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Uniform in [0, 1).
double unit(std::uint64_t& s) { return double(splitmix64(s) >> 11) * 0x1.0p-53; }

/// Move a UE to a seeded spot on the circle around the RU it stands next
/// to (RU 1 of its floor in a building whose south-west corner is
/// `origin`), keeping the distance the paper's rig uses. The channel
/// model depends on distance, so the seed changes where UEs are and not
/// their link budget: every seed attaches and offers the same radio load.
rb::Position orbit(rb::Position p, const rb::Floorplan& fp,
                   const rb::Position& origin, std::uint64_t& rng) {
  const rb::Position ru = fp.ru_position(p.floor, 1);
  const double cx = origin.x + ru.x;
  const double cy = origin.y + ru.y;
  const double r = std::hypot(p.x - cx, p.y - cy);
  const double a = 2.0 * std::numbers::pi * unit(rng);
  p.x = origin.x + std::clamp(ru.x + r * std::cos(a), 0.5, fp.width_m - 0.5);
  p.y = origin.y + std::clamp(ru.y + r * std::sin(a), 0.5, fp.depth_m - 0.5);
  return p;
}

/// Single-cell rigs: orbit every UE around its RU in the one building.
void place_ues(rb::Deployment& d, std::uint64_t& rng) {
  for (rb::UeId ue = 0; ue < rb::UeId(d.air.num_ues()); ++ue)
    d.air.set_ue_position(
        ue, orbit(d.air.ue_position(ue), d.plan, rb::Position{}, rng));
}

bool all_attached_in(const rb::AirModel& air) {
  for (rb::UeId ue = 0; ue < rb::UeId(air.num_ues()); ++ue)
    if (!air.is_attached(ue)) return false;
  return true;
}

double mbps(std::uint64_t bits, std::int64_t window_ns) {
  return window_ns <= 0 ? 0.0 : double(bits) * 1000.0 / double(window_ns);
}

void add_deployment(Counters& c, const rb::Deployment& d) {
  for (const auto& du : d.dus) {
    c.all += du_frames(du->stats());
    c.du_tx += du->stats().cplane_tx + du->stats().uplane_tx;
  }
  for (const auto& ru : d.rus) {
    const FrameCounts f = ru_frames(ru->stats());
    c.all += f;
    c.ru += f;
    c.ru_tx += ru->stats().uplane_tx + ru->stats().prach_tx;
  }
  for (const auto& rt : d.runtimes) {
    const auto counters = rt->telemetry().counters();
    const FrameCounts f = runtime_frames(counters);
    c.all += f;
    c.core += f;
    c.cache_ops += rt->telemetry().counter("cache_ops");
    c.cache_stale += rt->telemetry().counter("cache_stale_dropped");
  }
}

void add_pool(Pools& p, const rb::PacketPool& pool) {
  p.in_use += pool.in_use();
  p.arena_mib += double(pool.arena_bytes()) / (1024.0 * 1024.0);
  p.alloc_failures += pool.alloc_failures();
}

/// The runtimes' pools plus the process-wide one the DUs and RUs use.
Pools all_pools(const std::vector<const rb::Deployment*>& deps) {
  Pools p;
  for (const rb::Deployment* d : deps)
    for (const auto& rt : d->runtimes) add_pool(p, rt->pool());
  add_pool(p, rb::PacketPool::default_pool());
  return p;
}

/// Everything the simulation of one deployment decides, in fixed order.
std::string digest(const rb::Deployment& d) {
  std::ostringstream os;
  os << "slot=" << d.engine.current_slot() << "\n";
  for (const auto& rt : d.runtimes) {
    os << rt->config().name << "\n";
    for (const auto& [k, v] : rt->telemetry().counters())
      os << k << "=" << v << "\n";
  }
  for (const auto& du : d.dus) {
    const rb::DuStats& s = du->stats();
    os << "du c=" << s.cplane_tx << " u=" << s.uplane_tx
       << " r=" << s.uplane_rx << " late=" << s.late_drops
       << " perr=" << s.parse_errors << " udf=" << s.ul_decode_fail
       << " prach=" << s.prach_detections << " pool=" << s.pool_exhausted
       << "\n";
  }
  for (const auto& ru : d.rus) {
    const rb::RuStats& s = ru->stats();
    os << "ru c=" << s.cplane_rx << " u=" << s.uplane_rx
       << " tx=" << s.uplane_tx << " late=" << s.late_drops
       << " perr=" << s.parse_errors << " port=" << s.unexpected_port_drops
       << " nocp=" << s.uplane_without_cplane << " prach=" << s.prach_tx
       << " pool=" << s.pool_exhausted << "\n";
  }
  for (rb::UeId ue = 0; ue < rb::UeId(d.air.num_ues()); ++ue)
    os << "ue" << ue << " att=" << d.air.is_attached(ue)
       << " cell=" << d.air.serving_cell(ue) << " dl=" << d.air.dl_bits(ue)
       << " ul=" << d.air.ul_bits(ue) << "\n";
  return os.str();
}

/// Time one call into a layer: adds its duration to `acc` and `t.timed_ns`.
template <typename F>
void timed(Trace& t, double& acc, F&& f) {
  const std::int64_t a = now_ns();
  f();
  const double ns = double(now_ns() - a);
  acc += ns;
  t.timed_ns += ns;
}

// ----------------------------------------------------------------------
// Single-cell rigs
// ----------------------------------------------------------------------

class CellRig final : public Rig {
 public:
  explicit CellRig(std::unique_ptr<rb::Deployment> d) : d_(std::move(d)) {
    // The traced slot replays SlotEngine's serial phase order and has no
    // access to its begin-of-slot hooks, which fault links and
    // controllers register.
    if (!d_->faults.empty() || !d_->controllers.empty())
      throw std::logic_error("traced slot cannot replay engine hooks");
  }

  void run_slot() override { d_->engine.run_slots(1); }
  void run_slot_traced(Trace& t) override;

  bool all_attached() const override { return all_attached_in(d_->air); }

  void begin_sim() override {
    d_->air.reset_counters();
    sim_start_slot_ = d_->engine.current_slot();
    sim_start_ = counters().all;
  }

  SimResult end_sim() const override {
    const std::int64_t window =
        (d_->engine.current_slot() - sim_start_slot_) *
        rb::slot_duration_ns(d_->engine.clock().scs());
    SimResult r;
    for (rb::UeId ue = 0; ue < rb::UeId(d_->air.num_ues()); ++ue) {
      r.dl_mbps += mbps(d_->air.dl_bits(ue), window);
      r.ul_mbps += mbps(d_->air.ul_bits(ue), window);
    }
    r.frames = counters().all - sim_start_;
    return r;
  }

  Counters counters() const override {
    Counters c;
    add_deployment(c, *d_);
    return c;
  }

  Pools pools() const override { return all_pools({d_.get()}); }
  std::string fingerprint() const override { return digest(*d_); }

 private:
  void pump_all(Trace& t, double& acc, std::int64_t slot, std::int64_t t0);

  std::unique_ptr<rb::Deployment> d_;
};

/// SlotEngine::run_one_slot_serial, phase for phase, through the public
/// entry points, with each call timed. The simulation must come out
/// identical to the engine's own; rbperf checks that on every traced run.
void CellRig::run_slot_traced(Trace& t) {
  rb::Deployment& d = *d_;
  rb::SlotEngine& e = d.engine;
  const std::int64_t w0 = now_ns();
  const std::int64_t slot = e.current_slot();
  const std::int64_t t0 = e.elapsed_ns();
  const std::int64_t dur = rb::slot_duration_ns(e.clock().scs());
  rb::obs::slot_spans(slot, t0, dur);

  timed(t, t.air_ns, [&] { d.air.begin_slot(slot); });
  timed(t, t.traffic_ns, [&] { d.traffic.on_slot(slot); });
  timed(t, t.mb_begin_ns, [&] {
    for (auto& rt : d.runtimes) rt->begin_slot(slot);
  });
  timed(t, t.du_begin_ns, [&] {
    for (auto& du : d.dus) du->begin_slot(slot, t0);
  });
  pump_all(t, t.pump_dl_ns, slot, t0);
  timed(t, t.ru_dl_ns, [&] {
    for (auto& ru : d.rus) ru->process_dl(slot, t0);
  });
  timed(t, t.air_ns, [&] { d.air.resolve_dl(slot); });
  timed(t, t.ru_ul_ns, [&] {
    for (auto& ru : d.rus) ru->emit_ul(slot, t0);
  });
  pump_all(t, t.pump_ul_ns, slot, t0);
  timed(t, t.du_rx_ns, [&] {
    for (auto& du : d.dus) du->process_rx(slot, t0);
  });

  if (rb::obs::enabled())
    rb::obs::Collector::instance().commit_slot(slot, t0, dur);
  e.restore_clock_symbols(e.clock().total_symbols() + rb::kSymbolsPerSlot);
  ++t.slots;
  t.wall_ns += double(now_ns() - w0);
}

/// The engine's pump loop: every runtime, until a pass moves nothing
/// (at most 8 passes).
void CellRig::pump_all(Trace& t, double& acc, std::int64_t slot,
                       std::int64_t t0) {
  for (int pass = 0; pass < 8; ++pass) {
    bool moved = false;
    for (auto& rt : d_->runtimes) {
      bool m = false;
      timed(t, acc, [&] { m = rt->pump(slot, t0); });
      ++t.pump_calls;
      t.pump_useful += m ? 1 : 0;
      moved = m || moved;
    }
    if (!moved) break;
  }
}

/// Fig 10a rig: one 100 MHz DU, a DAS middlebox, one RU on each of five
/// floors and one UE per floor at 600/60 Mbps.
std::unique_ptr<Rig> make_das5(std::uint64_t seed) {
  auto d = std::make_unique<rb::Deployment>();
  rb::CellConfig cell;
  cell.pci = 1;
  auto du = d->add_du(cell, rb::srsran_profile(), 0);
  std::vector<rb::Deployment::RuHandle> rus;
  for (int f = 0; f < 5; ++f) {
    rb::RuSite site;
    site.pos = d->plan.ru_position(f, 1);
    rus.push_back(d->add_ru(site, std::uint8_t(f), du.du->fh()));
  }
  std::vector<rb::Deployment::RuHandle*> ptrs;
  for (auto& r : rus) ptrs.push_back(&r);
  // Two modelled merge workers: five RUs exceed one core's UL merge
  // budget (paper 6.4.1), as in the Fig 10a bench.
  d->add_das(du, ptrs, rb::DriverKind::Dpdk, 2);
  for (int f = 0; f < 5; ++f)
    d->add_ue(d->plan.near_ru(f, 1, 4.0), &du, 600, 60);
  place_ues(*d, seed);
  return std::make_unique<CellRig>(std::move(d));
}

/// Fig 10b rig: two 40 MHz DUs on aligned grids share one 100 MHz RU
/// through RU-share; one pci-locked UE per DU at 500/50 Mbps.
std::unique_ptr<Rig> make_rushare2(std::uint64_t seed) {
  auto d = std::make_unique<rb::Deployment>();
  rb::RuSite site;
  site.pos = d->plan.ru_position(0, 1);
  rb::CellConfig a;
  a.pci = 1;
  a.bandwidth = rb::MHz(40);
  a.center_freq = rb::aligned_du_center_frequency(kBand78Center, 273, 106,
                                                  10, rb::Scs::kHz30);
  rb::CellConfig b = a;
  b.pci = 2;
  b.center_freq = rb::aligned_du_center_frequency(kBand78Center, 273, 106,
                                                  150, rb::Scs::kHz30);
  auto du_a = d->add_du(a, rb::srsran_profile(), 0);
  auto du_b = d->add_du(b, rb::srsran_profile(), 1);
  auto ru = d->add_ru(site, 0, du_a.du->fh());
  d->add_rushare({&du_a, &du_b}, ru);
  d->add_ue(d->plan.near_ru(0, 1, 5.0), &du_a, 500, 50, 1);
  d->add_ue(d->plan.near_ru(0, 1, -5.0), &du_b, 500, 50, 2);
  place_ues(*d, seed);
  return std::make_unique<CellRig>(std::move(d));
}

// ----------------------------------------------------------------------
// City
// ----------------------------------------------------------------------

class CityRig final : public Rig {
 public:
  CityRig(std::uint64_t seed, int workers);

  void run_slot() override { city_->run_slots(1); }
  void run_slot_traced(Trace& t) override;

  bool all_attached() const override {
    for (std::size_t i = 0; i < city_->num_cells(); ++i)
      if (!all_attached_in(city_->cell(i).dep->air)) return false;
    return true;
  }

  void begin_sim() override {
    for (std::size_t i = 0; i < city_->num_cells(); ++i)
      city_->cell(i).dep->air.reset_counters();
    sim_start_slot_ = city_->current_slot();
    sim_start_ = counters().all;
  }

  SimResult end_sim() const override;
  Counters counters() const override;

  Pools pools() const override {
    std::vector<const rb::Deployment*> deps;
    for (std::size_t i = 0; i < city_->num_cells(); ++i)
      deps.push_back(city_->cell(i).dep.get());
    return all_pools(deps);
  }

  std::string fingerprint() const override { return city_->fingerprint(); }

 private:
  struct Stamp {
    std::int64_t pre = 0;
    std::int64_t end = 0;
    std::thread::id tid{};
  };

  std::unique_ptr<rb::city::City> city_;
  /// Written by the worker running each cell's job, read by the main thread
  /// after City::run_slots returns (the pool's hand-off orders them).
  std::vector<Stamp> stamps_;
  bool tracing_ = false;
};

CityRig::CityRig(std::uint64_t seed, int workers) {
  rb::city::CityConfig cfg;
  cfg.n_cells = 16;
  cfg.ues_per_cell = 1;
  cfg.prbmon = true;
  cfg.neutral_host = true;
  cfg.workers = workers;
  city_ = rb::city::build_city(cfg);

  // The neutral-host guest UE exists twice (real in the host shard,
  // mirror in the guest shard) and must stay at one position.
  const rb::city::NeutralHostShare& share = city_->share(0);
  const rb::Floorplan& fp = cfg.campus.building;
  for (std::size_t i = 0; i < city_->num_cells(); ++i) {
    rb::Deployment& d = *city_->cell(i).dep;
    for (rb::UeId ue : city_->cell(i).ues) {
      const bool twin = (int(i) == share.host_cell && ue == share.real_ue) ||
                        (int(i) == share.guest_cell && ue == share.mirror_ue);
      if (twin) continue;
      d.air.set_ue_position(ue, orbit(d.air.ue_position(ue), fp,
                                       cfg.campus.building_origin(int(i)),
                                       seed));
    }
  }
  rb::AirModel& host = city_->cell(std::size_t(share.host_cell)).dep->air;
  rb::AirModel& guest = city_->cell(std::size_t(share.guest_cell)).dep->air;
  const rb::Position twin_pos =
      orbit(host.ue_position(share.real_ue), fp,
             cfg.campus.building_origin(share.host_cell), seed);
  host.set_ue_position(share.real_ue, twin_pos);
  guest.set_ue_position(share.mirror_ue, twin_pos);

  stamps_.resize(city_->num_cells());
  for (std::size_t i = 0; i < city_->num_cells(); ++i) {
    rb::SlotEngine& e = city_->cell(i).dep->engine;
    Stamp* s = &stamps_[i];
    e.add_pre_slot_hook([this, s](std::int64_t, std::int64_t) {
      if (tracing_) s->pre = now_ns();
    });
    e.add_end_slot_hook([this, s](std::int64_t) {
      if (!tracing_) return;
      s->end = now_ns();
      s->tid = std::this_thread::get_id();
    });
  }
}

void CityRig::run_slot_traced(Trace& t) {
  tracing_ = true;
  const std::int64_t s0 = now_ns();
  city_->run_slots(1);
  const std::int64_t s1 = now_ns();
  tracing_ = false;

  struct Worker {
    std::thread::id tid;
    std::int64_t busy = 0;
    std::int64_t first = 0;
  };
  std::vector<Worker> workers;
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  std::int64_t last_end = s0;
  for (const Stamp& s : stamps_) {
    const std::int64_t job = s.end - s.pre;
    t.cell_job_ns += double(job);
    ++t.cell_jobs;
    spans.emplace_back(s.pre, s.end);
    last_end = std::max(last_end, s.end);
    auto it = std::find_if(workers.begin(), workers.end(),
                           [&](const Worker& w) { return w.tid == s.tid; });
    if (it == workers.end()) {
      workers.push_back(Worker{s.tid, job, s.pre});
    } else {
      it->busy += job;
      it->first = std::min(it->first, s.pre);
    }
  }

  std::int64_t busy_max = 0, busy_sum = 0, first_max = s0;
  for (const Worker& w : workers) {
    busy_max = std::max(busy_max, w.busy);
    busy_sum += w.busy;
    first_max = std::max(first_max, w.first);
  }
  // Wall time covered by at least one cell job.
  std::sort(spans.begin(), spans.end());
  std::int64_t covered = 0, cur_a = 0, cur_b = -1;
  for (const auto& [a, b] : spans) {
    if (a > cur_b) {
      covered += std::max<std::int64_t>(0, cur_b - cur_a);
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  covered += std::max<std::int64_t>(0, cur_b - cur_a);

  ++t.slots;
  t.wall_ns += double(s1 - s0);
  t.timed_ns += double(covered);
  t.busy_max_ns += double(busy_max);
  t.imbalance += busy_sum > 0 ? double(busy_max) * double(workers.size()) /
                                    double(busy_sum)
                              : 1.0;
  t.dispatch_ns += double(first_max - s0);
  t.barrier_ns += double(s1 - last_end);
}

SimResult CityRig::end_sim() const {
  const std::int64_t window =
      (city_->current_slot() - sim_start_slot_) * rb::slot_duration_ns(city_->scs());
  const rb::city::NeutralHostShare& share = city_->share(0);
  SimResult r;
  for (std::size_t i = 0; i < city_->num_cells(); ++i) {
    const rb::AirModel& a = city_->cell(i).dep->air;
    for (rb::UeId ue = 0; ue < rb::UeId(a.num_ues()); ++ue) {
      // The guest UE's real twin only mirrors the counters its guest
      // shard already holds; count the guest UE once.
      if (int(i) == share.host_cell && ue == share.real_ue) continue;
      r.dl_mbps += mbps(a.dl_bits(ue), window);
      r.ul_mbps += mbps(a.ul_bits(ue), window);
    }
  }
  r.frames = counters().all - sim_start_;
  return r;
}

Counters CityRig::counters() const {
  Counters c;
  for (std::size_t i = 0; i < city_->num_cells(); ++i)
    add_deployment(c, *city_->cell(i).dep);
  for (std::size_t i = 0; i < city_->num_xlinks(); ++i) {
    const rb::city::XLink& x = city_->xlink(i);
    c.all.errors += x.dropped_ab + x.dropped_ba;
    c.xlink_frames += x.forwarded_ab + x.forwarded_ba;
  }
  return c;
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::Das5Loaded, Workload::RuShare2Loaded,
                     Workload::City16Nh})
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::Das5Loaded: return "das5_loaded";
    case Workload::RuShare2Loaded: return "rushare2_loaded";
    case Workload::City16Nh: return "city16_nh";
  }
  return "?";
}

Counters Counters::operator-(const Counters& o) const {
  Counters c;
  c.all = all - o.all;
  c.ru = ru - o.ru;
  c.ru_tx = ru_tx - o.ru_tx;
  c.core = core - o.core;
  c.cache_ops = cache_ops - o.cache_ops;
  c.cache_stale = cache_stale - o.cache_stale;
  c.du_tx = du_tx - o.du_tx;
  c.xlink_frames = xlink_frames - o.xlink_frames;
  return c;
}

Counters& Counters::operator+=(const Counters& o) {
  all += o.all;
  ru += o.ru;
  ru_tx += o.ru_tx;
  core += o.core;
  cache_ops += o.cache_ops;
  cache_stale += o.cache_stale;
  du_tx += o.du_tx;
  xlink_frames += o.xlink_frames;
  return *this;
}

bool SimResult::operator==(const SimResult& o) const {
  return dl_mbps == o.dl_mbps && ul_mbps == o.ul_mbps &&
         frames.received == o.frames.received &&
         frames.errors == o.frames.errors;
}

bool Rig::attach(int max_slots, bool traced) {
  Trace scratch;
  for (int i = 0; i < max_slots; ++i) {
    if (all_attached()) return true;
    if (traced)
      run_slot_traced(scratch);
    else
      run_slot();
  }
  return all_attached();
}

std::unique_ptr<Rig> make_rig(Workload w, std::uint64_t seed,
                              int city_workers) {
  // Each workload draws from its own stream of the seed.
  std::uint64_t rng = seed ^ (0x243f6a8885a308d3ull * (std::uint64_t(w) + 1));
  switch (w) {
    case Workload::Das5Loaded: return make_das5(rng);
    case Workload::RuShare2Loaded: return make_rushare2(rng);
    case Workload::City16Nh: return std::make_unique<CityRig>(rng, city_workers);
  }
  return nullptr;
}

}  // namespace rbperf
