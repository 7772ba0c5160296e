#include "city/city.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "common/thread_flags.h"
#include "common/timing.h"
#include "obs/obs.h"

namespace rb::city {

City::City(int workers, Scs scs, ChannelParams channel)
    : scs_(scs), channel_(channel) {
  if (workers > 0) pool_ = std::make_unique<exec::WorkerPool>(workers);
}

City::~City() {
  // Packets that crossed a shard boundary were allocated from the sending
  // shard's pool: guest-DU match windows, its port queue and any ring
  // residue must be released before cells_ (and the pools inside) die in
  // an order unrelated to who allocated what.
  for (auto& s : shares_)
    if (s->guest_du != nullptr) s->guest_du->drop_pending_rx();
  for (auto& x : xlinks_) {
    PacketPtr p;
    while (x->ab.try_pop(p)) p.reset();
    while (x->ba.try_pop(p)) p.reset();
  }
}

City::CellShard& City::add_cell(std::string name) {
  auto shard = std::make_unique<CellShard>();
  shard->name = std::move(name);
  shard->dep = std::make_unique<Deployment>(channel_, scs_);
  // Namespace everything the builders generate with the shard name, so
  // port/runtime/controller names stay unique city-wide and telemetry
  // series carry the cell label (satellite 1).
  shard->dep->name_prefix = shard->name + "/";
  shard->dep->cell_label = shard->name;
  cells_.push_back(std::move(shard));
  return *cells_.back();
}

XLink& City::add_xlink(std::string name) {
  xlinks_.push_back(std::make_unique<XLink>(std::move(name)));
  return *xlinks_.back();
}

NeutralHostShare& City::add_share(NeutralHostShare s) {
  shares_.push_back(std::make_unique<NeutralHostShare>(std::move(s)));
  return *shares_.back();
}

void City::add_guest_du(int cell_idx, DuModel& du) {
  // The guest DU is stepped at virtual slot V = T+1 while its home shard
  // runs city slot T, at the very top of the slot: its frames for V cross
  // the xlink ring at barrier T and are pumped by the host shard during
  // slot T+1 = V — on time, with SSB/PRACH periodicity unchanged. UL
  // return frames re-enter its port queue two barriers later, which is
  // why a guest DU is built with a widened UL matching window.
  DuModel* d = &du;
  const Scs scs = scs_;
  cells_[std::size_t(cell_idx)]->dep->engine.add_pre_slot_hook(
      [d, scs](std::int64_t slot, std::int64_t t0) {
        const std::int64_t dur = slot_duration_ns(scs);
        d->begin_slot(slot + 1, t0 + dur);
        d->process_rx(slot + 1, t0 + dur);
      });
}

void City::finalize() {
  if (finalized_) return;
  finalized_ = true;
  jobctx_.clear();
  jobs_.clear();
  jobctx_.reserve(cells_.size());
  const int n_workers = pool_ ? pool_->size() : 1;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    CellShard& c = *cells_[i];
    // The conductor owns observability: engines must not emit slot spans
    // or commit the collector themselves (one commit per city slot, at
    // the barrier, with every worker parked).
    c.dep->engine.set_external_obs(true);
    CellShard* cp = &c;
    c.dep->engine.add_end_slot_hook(
        [cp](std::int64_t) { ++cp->slots_run; });
    if (!c.dep->runtimes.empty()) {
      c.mgmt = std::make_unique<MgmtEndpoint>(*c.dep->runtimes.front());
      if (!c.dep->controllers.empty())
        c.mgmt->set_ctrl(c.dep->controllers.front().get());
      c.mgmt->set_city(this);
    }
    jobctx_.push_back(CellJob{this, int(i)});
  }
  for (std::size_t i = 0; i < jobctx_.size(); ++i)
    jobs_.push_back(exec::WorkerPool::Job{&job_trampoline, &jobctx_[i],
                                          int(i) % n_workers});
}

void City::job_trampoline(void* arg, int worker) {
  (void)worker;
  auto* j = static_cast<CellJob*>(arg);
  j->c->run_cell(j->idx);
}

void City::run_cell(int idx) {
  // A cell job is a shard-local coordinator: it may publish telemetry,
  // run controllers and pump middleboxes that assert they are not on an
  // engine worker thread.
  ShardCoordinatorScope scope;
  CellShard& c = *cells_[std::size_t(idx)];
  const auto w0 = std::chrono::steady_clock::now();
  c.dep->engine.run_slots(1);
  const auto w1 = std::chrono::steady_clock::now();
  c.last_job_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(w1 - w0).count();
  c.max_job_ns = std::max(c.max_job_ns, c.last_job_ns);
}

void City::run_one_slot() {
  if (!finalized_) finalize();
  const std::int64_t dur = slot_duration_ns(scs_);
  const std::int64_t t0 = slot_ * dur;
  obs::slot_spans(slot_, t0, dur);
  if (pool_) {
    pool_->run(jobs_);
  } else {
    for (std::size_t i = 0; i < cells_.size(); ++i) run_cell(int(i));
  }
  barrier(t0, dur);
  ++slot_;
}

void City::barrier(std::int64_t t0, std::int64_t dur) {
  // Everything below runs on the conductor with all workers parked, in
  // fixed creation order — the single ordering both execution modes
  // share, which is what keeps serial == parallel(N) bit-identical.
  for (auto& xl : xlinks_) {
    PacketPtr p;
    while (xl->ab.try_pop(p)) {
      ++xl->forwarded_ab;
      xl->b.inject(std::move(p));
    }
    while (xl->ba.try_pop(p)) {
      ++xl->forwarded_ba;
      xl->a.inject(std::move(p));
    }
  }
  for (auto& s : shares_) bridge(*s);
  if (obs::enabled())
    obs::Collector::instance().commit_slot(slot_, t0, dur);
}

void City::bridge(NeutralHostShare& s) {
  AirModel& ga = cells_[std::size_t(s.guest_cell)]->dep->air;
  AirModel& ha = cells_[std::size_t(s.host_cell)]->dep->air;

  // (a) PRACH detections the guest DU made this slot (from U-plane that
  // physically crossed the share) complete the real UE's attachment in
  // the host shard, where the radio state lives.
  const std::uint64_t det = s.guest_du->stats().prach_detections;
  if (det != s.prach_seen) {
    s.prach_seen = det;
    ha.complete_prach(s.mirror_cell_air, slot_);
  }

  // (b) Attachment: the host shard is authoritative (its UE attaches
  // through the actual SSB/PRACH datapath); the mirror UE in the guest
  // air is forced to track it so the guest DU keeps scheduling.
  const bool att =
      ha.is_attached(s.real_ue) &&
      ha.same_cell_identity(ha.serving_cell(s.real_ue), s.mirror_cell_air);
  ga.sync_ue_attach(s.mirror_ue, att, s.guest_cell_air);

  // (c) Allocations the guest DU published for virtual slot T+1 are
  // republished into the host shard's mirror cell (UE ids remapped), so
  // the shared RU synthesizes the guest UE's UL signal and the host air
  // credits its DL against what the RU actually radiated. They survive
  // the host engine's begin_slot(T+1), which only clears stale slots.
  if (ga.alloc_slot(s.guest_cell_air) == slot_ + 1) {
    std::vector<DlAlloc> dl = ga.dl_allocs(s.guest_cell_air);
    for (auto& a : dl)
      if (a.ue == s.mirror_ue) a.ue = s.real_ue;
    std::vector<UlAlloc> ul = ga.ul_allocs(s.guest_cell_air);
    for (auto& a : ul)
      if (a.ue == s.mirror_ue) a.ue = s.real_ue;
    ha.publish_dl_alloc(s.mirror_cell_air, slot_ + 1, std::move(dl));
    ha.publish_ul_alloc(s.mirror_cell_air, slot_ + 1, std::move(ul));
  }

  // (d) Result counters: DL is authoritative where the RU radiates (the
  // host shard), UL where the combined U-plane is validated (the guest
  // DU's shard). Absolute overwrites, so replays stay exact.
  ga.sync_ue_dl(s.mirror_ue, ha.dl_bits(s.real_ue), ha.dl_errors(s.real_ue),
                ha.dl_unradiated(s.real_ue));
  ha.sync_ue_ul(s.real_ue, ga.ul_bits(s.mirror_ue),
                ga.ul_errors(s.mirror_ue));
}

void City::run_slots(int n) {
  for (int i = 0; i < n; ++i) run_one_slot();
}

bool City::attach_all(int max_slots) {
  const auto all_attached = [this] {
    for (const auto& c : cells_) {
      const AirModel& a = c->dep->air;
      for (UeId ue = 0; ue < UeId(a.num_ues()); ++ue)
        if (!a.is_attached(ue)) return false;
    }
    return true;
  };
  for (int i = 0; i < max_slots; ++i) {
    if (all_attached()) return true;
    run_one_slot();
  }
  return all_attached();
}

void City::measure(int slots) {
  for (auto& c : cells_) c->dep->air.reset_counters();
  run_slots(slots);
  measure_window_ns_ = std::int64_t(slots) * slot_duration_ns(scs_);
}

double City::dl_mbps(int cell_idx, UeId ue) const {
  if (measure_window_ns_ <= 0) return 0.0;
  return double(cells_[std::size_t(cell_idx)]->dep->air.dl_bits(ue)) *
         1000.0 / double(measure_window_ns_);
}

double City::ul_mbps(int cell_idx, UeId ue) const {
  if (measure_window_ns_ <= 0) return 0.0;
  return double(cells_[std::size_t(cell_idx)]->dep->air.ul_bits(ue)) *
         1000.0 / double(measure_window_ns_);
}

std::string City::fingerprint() const {
  std::ostringstream os;
  for (const auto& cp : cells_) {
    const CellShard& c = *cp;
    const Deployment& d = *c.dep;
    os << "== " << c.name << " slot=" << d.engine.current_slot() << "\n";
    for (const auto& rt : d.runtimes) {
      os << rt->config().name << "\n";
      for (const auto& [k, v] : rt->telemetry().counters())
        os << k << "=" << v << "\n";
    }
    os << d.fault_dump() << d.ctrl_dump();
    for (const auto& du : d.dus) {
      const DuStats& st = du->stats();
      os << "du" << int(du->config().du_id) << " c=" << st.cplane_tx
         << " u=" << st.uplane_tx << " r=" << st.uplane_rx
         << " late=" << st.late_drops << " perr=" << st.parse_errors
         << " udf=" << st.ul_decode_fail << " prach=" << st.prach_detections
         << "\n";
    }
    for (UeId ue = 0; ue < UeId(d.air.num_ues()); ++ue)
      os << "ue" << ue << " att=" << d.air.is_attached(ue)
         << " srv=" << d.air.serving_cell(ue) << " dl=" << d.air.dl_bits(ue)
         << " dlerr=" << d.air.dl_errors(ue)
         << " unrad=" << d.air.dl_unradiated(ue)
         << " ul=" << d.air.ul_bits(ue) << " ulerr=" << d.air.ul_errors(ue)
         << "\n";
  }
  for (const auto& x : xlinks_)
    os << x->name << " ab=" << x->forwarded_ab << " ba=" << x->forwarded_ba
       << " drop=" << (x->dropped_ab + x->dropped_ba) << "\n";
  for (const auto& s : shares_)
    os << s->name << " prach=" << s->prach_seen << "\n";
  return os.str();
}

std::vector<std::uint8_t> City::checkpoint() const {
  state::StateWriter w;
  w.begin_section(state::kSecCityMeta, 1);
  w.u32(std::uint32_t(cells_.size()));
  w.i64(slot_);
  w.u32(std::uint32_t(shares_.size()));
  for (const auto& s : shares_) w.u64(s->prach_seen);
  w.u32(std::uint32_t(xlinks_.size()));
  for (const auto& x : xlinks_) {
    w.u64(x->forwarded_ab);
    w.u64(x->forwarded_ba);
    w.u64(x->dropped_ab);
    w.u64(x->dropped_ba);
  }
  w.end_section();
  for (const auto& c : cells_) {
    // Nested whole-deployment blob: at the city barrier the xlink rings
    // are empty and in-flight crossings sit in the shards' port RX
    // queues, which rb::checkpoint captures.
    const std::vector<std::uint8_t> blob = rb::checkpoint(*c->dep);
    w.begin_section(state::kSecCityCell, 1);
    w.str(c->name);
    w.u32(std::uint32_t(blob.size()));
    w.bytes(blob);
    w.end_section();
  }
  return w.finish();
}

RestoreResult City::restore(const std::vector<std::uint8_t>& blob) {
  state::StateReader r(blob);
  state::SectionInfo info;
  bool meta = false;
  std::size_t cell_i = 0;
  while (r.next_section(&info)) {
    if (info.id == state::kSecCityMeta && info.version == 1) {
      if (r.u32() != cells_.size())
        return {state::StateError::kMismatch, "city.n_cells"};
      slot_ = r.i64();
      if (r.u32() != shares_.size())
        return {state::StateError::kMismatch, "city.n_shares"};
      for (auto& s : shares_) s->prach_seen = r.u64();
      if (r.u32() != xlinks_.size())
        return {state::StateError::kMismatch, "city.n_xlinks"};
      for (auto& x : xlinks_) {
        x->forwarded_ab = r.u64();
        x->forwarded_ba = r.u64();
        x->dropped_ab = r.u64();
        x->dropped_ba = r.u64();
      }
      meta = true;
    } else if (info.id == state::kSecCityCell && info.version == 1) {
      if (cell_i >= cells_.size())
        return {state::StateError::kMismatch, "city.extra_cell"};
      CellShard& c = *cells_[cell_i];
      if (r.str() != c.name)
        return {state::StateError::kMismatch, "city.cell_name"};
      const std::uint32_t n = r.count(1);
      std::vector<std::uint8_t> sub(n);
      r.bytes(sub);
      if (!r.ok()) break;
      RestoreResult rr = rb::restore(*c.dep, sub);
      if (!rr.ok()) {
        rr.detail = c.name + "/" + rr.detail;
        return rr;
      }
      ++cell_i;
    }
    r.skip_section();
  }
  if (!r.ok()) return {r.error(), "city"};
  if (!meta || cell_i != cells_.size())
    return {state::StateError::kTruncated, "city"};
  return {};
}

std::string City::city_mgmt(const std::string& cmd) {
  std::istringstream is(cmd);
  std::string what;
  is >> what;
  std::ostringstream os;
  if (what.empty() || what == "list") {
    os << "cells=" << cells_.size() << " slot=" << slot_ << " mode="
       << (pool_ ? "parallel(" + std::to_string(pool_->size()) + ")"
                 : std::string("serial"))
       << "\n";
    for (const auto& c : cells_) {
      const Deployment& d = *c->dep;
      std::size_t attached = 0;
      for (UeId ue = 0; ue < UeId(d.air.num_ues()); ++ue)
        if (d.air.is_attached(ue)) ++attached;
      os << c->name << " dus=" << d.dus.size() << " rus=" << d.rus.size()
         << " mbs=" << d.runtimes.size() << " ues=" << d.air.num_ues()
         << " attached=" << attached << "\n";
    }
    return os.str();
  }
  if (what == "budget") {
    const std::int64_t budget = slot_duration_ns(scs_);
    os << "slot_budget_ns=" << budget << "\n";
    for (const auto& c : cells_)
      os << c->name << " slots=" << c->slots_run
         << " last_ns=" << c->last_job_ns << " max_ns=" << c->max_job_ns
         << (c->max_job_ns > budget ? " OVER" : "") << "\n";
    return os.str();
  }
  if (what == "rings") {
    if (xlinks_.empty()) return "no xlinks\n";
    for (const auto& x : xlinks_)
      os << x->name << " depth_ab=" << x->ab.size_approx()
         << " depth_ba=" << x->ba.size_approx() << " cap=" << x->ab.capacity()
         << " fwd_ab=" << x->forwarded_ab << " fwd_ba=" << x->forwarded_ba
         << " dropped=" << (x->dropped_ab + x->dropped_ba) << "\n";
    return os.str();
  }
  if (what == "cell") {
    std::string name;
    is >> name;
    std::string rest;
    std::getline(is, rest);
    const std::size_t at = rest.find_first_not_of(' ');
    rest = at == std::string::npos ? "" : rest.substr(at);
    for (auto& c : cells_) {
      if (c->name != name) continue;
      if (!c->mgmt) return "cell '" + name + "' has no middlebox";
      return c->mgmt->handle(rest);
    }
    return "unknown cell '" + name + "'";
  }
  return "unknown city subcommand (list|budget|rings|cell <name> <verb>)";
}

}  // namespace rb::city
