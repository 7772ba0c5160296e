#include "mb/prbmon.h"

#include <sstream>

#include "obs/obs.h"

namespace rb {

void PrbMonitorMiddlebox::on_frame(int in_port, PacketPtr p, FhFrame& frame,
                                   MbContext& ctx) {
  // Gate on the burst classify-table row: plane, PRACH and antenna-port
  // facts without touching the frame variant.
  const FrameInfo& fi = ctx.frame_info();
  if (!fi.cplane && !fi.prach && fi.eaxc.ru_port == 0) {
    // Algorithm 1 over antenna port 0 (one spatial sample of the grid).
    const auto& u = frame.uplane();
    const bool dl = !fi.uplink;
    const std::uint8_t thr = dl ? cfg_.thr_dl : cfg_.thr_ul;
    // PRBs outside any section were never transported: idle by definition.
    // The per-PRB exponent reads are deliberately untraced (hundreds per
    // frame); this one span covers the whole scan instead.
    static const std::uint16_t kScanName =
        obs::Collector::instance().intern_name("prbmon.scan");
    const double c0 = ctx.cost_ns();
    int utilized = 0;
    for (const auto& sec : u.sections) {
      for (int prb = 0; prb < sec.num_prb; ++prb) {
        const std::uint8_t e = ctx.prb_exponent(*p, sec, prb);
        utilized += (e > thr) ? 1 : 0;
      }
    }
    ctx.trace_span(kScanName, c0, std::uint64_t(utilized));
    if (dl) {
      dl_prb_acc_ += double(utilized) / double(cfg_.n_prb);
      ++current_.dl_symbols;
    } else {
      ul_prb_acc_ += double(utilized) / double(cfg_.n_prb);
      ++current_.ul_symbols;
    }
  }
  // Transparent forwarding: north <-> south, addressing untouched.
  ctx.forward(std::move(p), in_port == kNorth ? kSouth : kNorth);
}

void PrbMonitorMiddlebox::on_slot(std::int64_t slot, MbContext& ctx) {
  // Close the previous slot's estimate and publish it.
  if (current_.dl_symbols > 0 || current_.ul_symbols > 0) {
    current_.dl_util =
        current_.dl_symbols ? dl_prb_acc_ / current_.dl_symbols : 0.0;
    current_.ul_util =
        current_.ul_symbols ? ul_prb_acc_ / current_.ul_symbols : 0.0;
    estimates_.push_back(current_);
    while (estimates_.size() > kMaxWindow) estimates_.pop_front();
    ctx.telemetry().publish(
        {current_.slot, "prb_util_dl", current_.dl_util});
    ctx.telemetry().publish(
        {current_.slot, "prb_util_ul", current_.ul_util});
    if (!gauges_ready_) {
      g_util_dl_ = ctx.telemetry().intern_gauge("prb_util_dl");
      g_util_ul_ = ctx.telemetry().intern_gauge("prb_util_ul");
      gauges_ready_ = true;
    }
    ctx.telemetry().set_gauge(g_util_dl_, current_.dl_util);
    ctx.telemetry().set_gauge(g_util_ul_, current_.ul_util);
  }
  current_ = PrbUtilEstimate{};
  current_.slot = slot;
  dl_prb_acc_ = ul_prb_acc_ = 0.0;
}

std::string PrbMonitorMiddlebox::on_mgmt(const std::string& cmd) {
  std::istringstream is(cmd);
  std::string verb;
  is >> verb;
  if (verb == "thresholds") {
    std::ostringstream os;
    os << "thr_dl=" << int(cfg_.thr_dl) << " thr_ul=" << int(cfg_.thr_ul);
    return os.str();
  }
  if (verb == "set-thr") {
    std::string dir;
    int v = 0;
    is >> dir >> v;
    if (dir == "dl") cfg_.thr_dl = std::uint8_t(v);
    else if (dir == "ul") cfg_.thr_ul = std::uint8_t(v);
    else return "unknown direction";
    return "ok";
  }
  return "unknown command";
}


namespace {

void save_estimate(state::StateWriter& w, const PrbUtilEstimate& e) {
  w.i64(e.slot);
  w.f64(e.dl_util);
  w.f64(e.ul_util);
  w.i32(e.dl_symbols);
  w.i32(e.ul_symbols);
}

void load_estimate(state::StateReader& r, PrbUtilEstimate& e) {
  e.slot = r.i64();
  e.dl_util = r.f64();
  e.ul_util = r.f64();
  e.dl_symbols = r.i32();
  e.ul_symbols = r.i32();
}

}  // namespace

void PrbMonitorMiddlebox::save_state(state::StateWriter& w) const {
  save_estimate(w, current_);
  w.f64(dl_prb_acc_);
  w.f64(ul_prb_acc_);
  w.u32(std::uint32_t(estimates_.size()));
  for (const PrbUtilEstimate& e : estimates_) save_estimate(w, e);
}

void PrbMonitorMiddlebox::load_state(state::StateReader& r) {
  load_estimate(r, current_);
  dl_prb_acc_ = r.f64();
  ul_prb_acc_ = r.f64();
  estimates_.clear();
  for (std::uint32_t i = 0, n = r.count(32); i < n && r.ok(); ++i) {
    PrbUtilEstimate e;
    load_estimate(r, e);
    estimates_.push_back(e);
  }
}

}  // namespace rb
