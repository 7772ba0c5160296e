#include "mb/das.h"

#include <algorithm>
#include <sstream>

#include "common/iq_stats.h"
#include "obs/obs.h"

namespace rb {

namespace {
/// Absolute slot index (mod the 256-frame wrap) of a radio time point.
std::int64_t abs_slot(const SlotPoint& at, int spsf) {
  return (std::int64_t(at.frame) * 10 + at.subframe) * spsf + at.slot;
}
}  // namespace

void DasMiddlebox::on_frame(int in_port, PacketPtr p, FhFrame& frame,
                            MbContext& ctx) {
  if (in_port == kNorth) {
    downlink(std::move(p), frame, ctx);
  } else {
    uplink(std::move(p), frame, ctx);
  }
}

void DasMiddlebox::downlink(PacketPtr p, FhFrame& frame, MbContext& ctx) {
  // Replicate to every RU of the distribution set (A2), steering each copy
  // by rewriting the destination MAC (A1). The original carries the last.
  for (std::size_t i = 0; i + 1 < cfg_.ru_macs.size(); ++i) {
    PacketPtr copy = ctx.replicate(*p);
    if (!copy) continue;
    ctx.forward(std::move(copy), kSouth, cfg_.ru_macs[i]);
  }
  if (!cfg_.ru_macs.empty()) {
    ctx.forward(std::move(p), kSouth, cfg_.ru_macs.back());
  } else {
    ctx.drop(std::move(p));
  }
  (void)frame;
}

bool DasMiddlebox::group_done(std::uint64_t key) const {
  return std::find(done_.begin(), done_.end(), key) != done_.end();
}

void DasMiddlebox::uplink(PacketPtr p, FhFrame& frame, MbContext& ctx) {
  if (!frame.is_uplane()) {
    // RUs only originate U-plane; anything else goes to the DU untouched.
    ctx.forward(std::move(p), kNorth, cfg_.du_mac);
    return;
  }
  const auto& u = frame.uplane();
  const FrameInfo& fi = ctx.frame_info();  // burst classify-table row
  // PRACH streams are forwarded per-RU; the DU's detector is idempotent
  // and benefits from every RU's capture.
  if (fi.prach) {
    ctx.forward(std::move(p), kNorth, cfg_.du_mac);
    return;
  }

  // A copy carrying a radio time other than the current slot straggled in
  // after its group's slot ended (reorder hold across the boundary, or a
  // severely delayed release); its group was already flushed.
  const int spsf = slots_per_subframe(cfg_.scs);
  const std::int64_t wrap = 256LL * 10 * spsf;
  if (abs_slot(u.at, spsf) != ctx.slot() % wrap) {
    ctx.telemetry().inc("das_late_copies");
    ctx.drop(std::move(p));
    return;
  }

  // Cache until all RUs delivered this (symbol, antenna port) fragment
  // (A3). Fragmented jumbo payloads split deterministically, so the first
  // section's start PRB identifies matching fragments across RUs; the
  // distinct source-MAC count tells when every RU's copy arrived. The
  // burst classify table precomputed this exact key.
  const std::uint64_t key = fi.cache_key;
  if (group_done(key)) {
    // The group was combined without this copy: too late to contribute.
    ctx.telemetry().inc("das_late_copies");
    ctx.drop(std::move(p));
    return;
  }

  // Per-symbol deadline: any open group whose first copy is older than
  // the deadline relative to this arrival will not complete in time -
  // combine what it has. Oldest first; stop at the first fresh group.
  if (cfg_.combine_deadline_ns > 0) {
    while (!pending_.empty() &&
           pending_.front().first_rx_ns + cfg_.combine_deadline_ns <
               p->rx_time_ns) {
      combine_group(pending_.front().key, ctx);
    }
  }

  ctx.charge_cache_op();
  const std::int64_t rx_ns = p->rx_time_ns;
  ctx.cache().put(key, CachedPacket{std::move(p), frame, kSouth});
  auto* entries = ctx.cache().find(key);
  if (!entries) return;  // evicted under cap pressure
  if (entries->size() == 1) pending_.push_back({key, rx_ns});
  // Completion is judged against the *active* combine set: an ejected
  // member's copy is cached (and later dropped at combine as an ejected
  // copy) but never holds the group open.
  std::size_t distinct_rus = 0;
  for (std::size_t i = 0; i < cfg_.ru_macs.size(); ++i) {
    if (!active_[i]) continue;
    for (const auto& e : *entries) {
      if (e.frame.eth.src == cfg_.ru_macs[i]) {
        ++distinct_rus;
        break;
      }
    }
  }
  if (distinct_rus < active_members()) return;
  combine_group(key, ctx);
}

std::size_t DasMiddlebox::active_members() const {
  std::size_t n = 0;
  for (bool a : active_)
    if (a) ++n;
  return n;
}

int DasMiddlebox::member_index(const MacAddr& mac) const {
  const auto it = std::find(cfg_.ru_macs.begin(), cfg_.ru_macs.end(), mac);
  return it == cfg_.ru_macs.end() ? -1 : int(it - cfg_.ru_macs.begin());
}

bool DasMiddlebox::member_active(const MacAddr& mac) const {
  const int i = member_index(mac);
  return i >= 0 && active_[std::size_t(i)];
}

bool DasMiddlebox::set_member_active(const MacAddr& mac, bool active) {
  const int i = member_index(mac);
  if (i < 0) return false;
  if (active_[std::size_t(i)] == active) return true;
  if (!active && active_members() <= 1) return false;  // keep one alive
  active_[std::size_t(i)] = active;
  return true;
}

void DasMiddlebox::combine_group(std::uint64_t key, MbContext& ctx) {
  static const std::uint16_t kSpanName =
      obs::Collector::instance().intern_name("das.combine");
  const double c0 = ctx.cost_ns();
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->key == key) {
      pending_.erase(it);
      break;
    }
  }
  done_.push_back(key);
  // The worker scratch arena replaces per-group vector allocations: after
  // warm-up, taking the batch, deduping copies and collecting source
  // spans all reuse capacity held by the arena.
  MbScratch& sc = ctx.scratch();
  auto& batch = sc.batch;
  ctx.cache().take_into(key, batch);
  ctx.charge_cache_op();
  if (batch.empty()) return;
  iqstats::raise_hwm(iqstats::arena_batch_hwm(), batch.size());

  // Element-wise IQ sum per section (A4), one copy per distinct RU: a
  // duplicated fronthaul frame must not double that RU's signal.
  auto& copies = sc.copies;
  copies.clear();
  for (std::size_t i = 0; i < cfg_.ru_macs.size(); ++i) {
    if (!active_[i]) continue;  // ejected member: its copy is discarded
    for (auto& e : batch) {
      if (e.frame.eth.src == cfg_.ru_macs[i]) {
        copies.push_back(&e);
        break;
      }
    }
  }
  iqstats::raise_hwm(iqstats::arena_copies_hwm(), copies.size());
  if (batch.size() > copies.size()) {
    // Count each copy left out under exactly one reason. `copies` holds
    // one copy per active member, so any other active member's copy is a
    // duplicate.
    std::uint64_t ejected = 0, unknown = 0;
    for (const auto& e : batch) {
      const int m = member_index(e.frame.eth.src);
      if (m < 0)
        ++unknown;
      else if (!active_[std::size_t(m)])
        ++ejected;
    }
    const std::uint64_t duplicate =
        batch.size() - copies.size() - ejected - unknown;
    if (duplicate) ctx.telemetry().inc("das_duplicate_copies", duplicate);
    if (ejected) ctx.telemetry().inc("das_ejected_copies", ejected);
    if (unknown) ctx.telemetry().inc("das_unknown_source_copies", unknown);
  }
  if (copies.empty()) {
    // Copies from unknown sources only; nothing trustworthy to combine.
    ctx.telemetry().inc("das_merge_failures");
    for (auto& e : batch) ctx.drop(std::move(e.pkt));
    return;
  }

  CachedPacket& primary = *copies.front();
  const auto& psec = primary.frame.uplane().sections;
  bool ok = true;
  auto& srcs = sc.srcs;
  auto& src_comps = sc.src_comps;
  for (std::size_t si = 0; ok && si < psec.size(); ++si) {
    srcs.clear();
    src_comps.clear();
    for (auto* e : copies) {
      const auto& esec = e->frame.uplane().sections;
      if (si >= esec.size() ||
          esec[si].num_prb != psec[si].num_prb ||
          esec[si].start_prb != psec[si].start_prb) {
        ok = false;
        break;
      }
      srcs.push_back(
          e->pkt->bytes(esec[si].payload_offset, esec[si].payload_len));
      src_comps.push_back(esec[si].comp);
    }
    if (!ok) break;
    iqstats::raise_hwm(iqstats::arena_srcs_hwm(), srcs.size());
    // Merge into the primary packet's payload in place. Each copy is
    // decoded at its own udCompHdr width (a controller-adapted RU may run
    // fewer mantissa bits than its peers); the sum is recompressed at the
    // primary's width, so the byte length is unchanged.
    auto dst = primary.pkt->raw().subspan(psec[si].payload_offset,
                                          psec[si].payload_len);
    const std::size_t written = ctx.merge_payloads(
        std::span<const std::span<const std::uint8_t>>(srcs.data(),
                                                       srcs.size()),
        std::span<const CompConfig>(src_comps.data(), src_comps.size()),
        psec[si].num_prb, psec[si].comp, dst);
    ok = written == psec[si].payload_len;
  }
  if (!ok) {
    ctx.telemetry().inc("das_merge_failures");
    for (auto& e : batch) ctx.drop(std::move(e.pkt));
    return;
  }
  const std::size_t expected = active_members();
  if (copies.size() < expected) {
    ctx.telemetry().inc("das_partial_merges");
    ctx.telemetry().inc("das_missing_copies",
                        std::uint64_t(expected - copies.size()));
  } else {
    ctx.telemetry().inc("das_merges");
  }
  ctx.forward(std::move(primary.pkt), kNorth, cfg_.du_mac);
  for (auto& e : batch) {
    if (e.pkt) ctx.drop(std::move(e.pkt));  // A1 drop of the constituents
  }
  ctx.trace_span(kSpanName, c0, copies.size());
}

void DasMiddlebox::on_pump_idle(std::int64_t slot, MbContext& ctx) {
  (void)slot;
  // Everything that was going to arrive this phase has: flush every open
  // group rather than letting it rot until the slot boundary.
  while (!pending_.empty()) combine_group(pending_.front().key, ctx);
}

void DasMiddlebox::on_slot(std::int64_t slot, MbContext& ctx) {
  (void)slot;
  // The idle flush empties pending_ before the slot ends; anything left
  // means the combiner stalled on a group (must stay zero).
  if (!pending_.empty())
    ctx.telemetry().inc("das_combiner_stalls", pending_.size());
  pending_.clear();
  done_.clear();
  ctx.telemetry().set_gauge("das_active_members", double(active_members()));
}

std::string DasMiddlebox::on_mgmt(const std::string& cmd) {
  std::istringstream is(cmd);
  std::string verb;
  is >> verb;
  if (verb == "rus") {
    std::ostringstream os;
    for (const auto& m : cfg_.ru_macs) os << m.str() << "\n";
    return os.str();
  }
  if (verb == "members") {
    std::ostringstream os;
    for (std::size_t i = 0; i < cfg_.ru_macs.size(); ++i)
      os << cfg_.ru_macs[i].str() << " "
         << (active_[i] ? "active" : "inactive") << "\n";
    return os.str();
  }
  if (verb == "set-member") {
    std::string mac, state;
    is >> mac >> state;
    if (state != "on" && state != "off") return "usage: set-member <mac> on|off";
    return set_member_active(MacAddr::parse(mac), state == "on") ? "ok"
                                                                 : "refused";
  }
  if (verb == "add-ru") {
    std::string mac;
    is >> mac;
    cfg_.ru_macs.push_back(MacAddr::parse(mac));
    active_.push_back(true);
    return "ok";
  }
  if (verb == "combine") {
    std::ostringstream os;
    os << "deadline_ns=" << cfg_.combine_deadline_ns
       << " pending=" << pending_.size() << " done=" << done_.size() << "\n";
    return os.str();
  }
  if (verb == "set-deadline") {
    std::int64_t ns = 0;
    if (is >> ns) {
      cfg_.combine_deadline_ns = ns;
      return "ok";
    }
    return "usage: set-deadline <ns>";
  }
  return "unknown command";
}


void DasMiddlebox::save_state(state::StateWriter& w) const {
  w.u32(std::uint32_t(active_.size()));
  for (bool a : active_) w.b(a);
  w.u32(std::uint32_t(pending_.size()));
  for (const Pending& p : pending_) {
    w.u64(p.key);
    w.i64(p.first_rx_ns);
  }
  w.u32(std::uint32_t(done_.size()));
  for (std::uint64_t k : done_) w.u64(k);
}

void DasMiddlebox::load_state(state::StateReader& r) {
  if (r.count(1) != active_.size()) {
    r.fail(state::StateError::kMismatch);
    return;
  }
  for (std::size_t i = 0; i < active_.size(); ++i) active_[i] = r.b();
  pending_.assign(r.count(16), Pending{});
  for (Pending& p : pending_) {
    p.key = r.u64();
    p.first_rx_ns = r.i64();
  }
  done_.assign(r.count(8), 0);
  for (std::uint64_t& k : done_) k = r.u64();
}

}  // namespace rb
