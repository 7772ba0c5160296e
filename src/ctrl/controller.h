// Closed-loop fronthaul adaptation controller (ROADMAP item: "close the
// loop").
//
// A deterministic, slot-synchronous control loop: every slot, at the
// engine's begin-of-slot barrier, the controller samples per-link quality
// signals (fault-layer loss/delay counters, runtime parse rejects,
// last-slot latency watermarks), folds them into EWMAs, runs a hysteresis
// policy and actuates typed CtrlActions - degrade the link's BFP width,
// eject the RU from its DAS combine set (or gate its dMIMO participation),
// and readmit/restore once the link heals.
//
// Determinism contract (DESIGN.md section 4g):
//  * Sensors are virtual-time counters only; all arithmetic is fixed-order
//    double EWMA updates on the coordinator thread. Wall-clock feeds
//    nothing but the obs decision span and the ctrlstats watermarks.
//  * Actions apply at the slot barrier, before any entity or middlebox
//    touches the new slot, so every packet of a slot sees the same knob
//    settings in every replay.
//  * dump() renders the full controller state in fixed order for the
//    chaos-suite determinism snapshots.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/mgmt.h"
#include "ctrl/actions.h"
#include "net/fault.h"
#include "state/serialize.h"

namespace rb {
class MiddleboxRuntime;
}

namespace rb::ctrl {

/// Controller policy knobs. Thresholds act on EWMAs of per-slot samples;
/// hysteresis (hold/recover streaks + per-link dwell) keeps the loop from
/// flapping on bursty noise.
struct CtrlConfig {
  std::string name = "ctrl";
  Scs scs = Scs::kHz30;  // for slot -> virtual-time decision timestamps
  double alpha = 1.0 / 16;  // EWMA smoothing factor

  // Width adaptation: sustained loss above `loss_reduce` trades mantissa
  // bits for headroom (the paper's shaping-to-fronthaul-quality knob).
  double loss_reduce = 0.015;
  int degraded_iq_width = 7;

  // Ejection: a link whose injected one-way delay EWMA exceeds the DU
  // latency budget poisons every combine it participates in (the merged
  // uplink inherits the last copy's lateness); drop it from the set.
  std::int64_t delay_eject_ns = 25'000;
  double loss_eject = 0.20;

  // Recovery: readmit after a sustained healthy streak.
  double loss_recover = 0.005;
  std::int64_t delay_recover_ns = 8'000;

  int hold_slots = 8;           // consecutive breach slots before acting
  int recover_hold_slots = 64;  // consecutive healthy slots before undoing
  int dwell_slots = 40;         // min slots between actions on one link

  bool enable_width = true;
  bool enable_membership = true;
};

/// One supervised link: where its quality signals come from and how to
/// actuate decisions about it.
struct LinkSpec {
  std::string name;
  /// Uplink-direction fault counters (the quality tap). Required.
  const FaultStats* ul_stats = nullptr;
  /// Optional: the middlebox runtime the link feeds, for parse-reject and
  /// slot-latency sensors.
  MiddleboxRuntime* rt = nullptr;
  /// Applies a CtrlAction to the real knob; returns false if refused
  /// (e.g. ejecting the last active DAS member).
  std::function<bool(const CtrlAction&)> actuate;
  /// Verb used to eject/readmit this link (DAS membership or dMIMO gate).
  CtrlVerb eject_verb = CtrlVerb::SetDasMember;
  int nominal_iq_width = 9;
};

class AdaptationController final : public CtrlMgmtHandler {
 public:
  explicit AdaptationController(CtrlConfig cfg);

  /// Register a supervised link; returns its index.
  int add_link(LinkSpec spec);

  /// Slot-barrier decision pass. Register with
  /// SlotEngine::add_begin_slot_hook (Deployment::add_controller does).
  void on_slot(std::int64_t slot);

  /// Per-link state, exposed for tests and the bench.
  enum class LinkMode : std::uint8_t { Healthy, WidthReduced, Ejected };
  LinkMode mode(int link) const { return links_[std::size_t(link)].mode; }
  double loss_ewma(int link) const {
    return links_[std::size_t(link)].loss_ewma;
  }
  double delay_ewma_ns(int link) const {
    return links_[std::size_t(link)].delay_ewma_ns;
  }
  std::uint64_t actions_applied() const { return actions_applied_; }
  int num_links() const { return int(links_.size()); }
  const CtrlConfig& config() const { return cfg_; }

  /// Fixed-order dump of the full controller state, for determinism
  /// snapshots (chaos fingerprints) and the mgmt "ctrl status" verb.
  std::string dump() const;

  // CtrlMgmtHandler: "status" | "links" | "auto on|off" |
  // "force <link> eject|admit|width <w>".
  std::string ctrl_mgmt(const std::string& cmd) override;

  /// Checkpoint EWMAs, hysteresis streaks, modes and the decision log.
  /// Link topology (specs) is config: restore requires the same links in
  /// the same order and fails with kMismatch otherwise.
  void save_state(state::StateWriter& w) const;
  void load_state(state::StateReader& r);

  /// Live-retune of the policy thresholds (hitless reconfiguration). The
  /// structural fields (name, scs) are kept; per-link state is untouched,
  /// so streaks re-evaluate against the new thresholds next slot.
  void retune(const CtrlConfig& cfg);

 private:
  struct LinkState {
    LinkSpec spec;
    FaultStats seen{};               // previous-slot counter snapshot
    std::uint64_t seen_rejects = 0;  // previous-slot parse-reject total
    double loss_ewma = 0;
    double delay_ewma_ns = 0;
    double reject_ewma = 0;
    int breach_streak = 0;
    int healthy_streak = 0;
    std::int64_t last_action_slot = -(1 << 30);
    LinkMode mode = LinkMode::Healthy;
    bool width_reduced = false;
    std::uint64_t actions = 0;
  };

  void sample(LinkState& ls);
  void decide(LinkState& ls, int index, std::int64_t slot);
  bool apply(LinkState& ls, CtrlAction a);
  void publish_stats() const;

  CtrlConfig cfg_;
  std::vector<LinkState> links_;
  std::vector<CtrlAction> log_;  // bounded decision log (newest last)
  std::uint64_t actions_applied_ = 0;
  std::uint64_t decision_slots_ = 0;
  bool auto_enabled_ = true;
  std::uint16_t obs_name_ = 0;   // interned "ctrl.decide"
  std::uint16_t obs_track_ = 0;  // interned track (cfg_.name)
};

}  // namespace rb::ctrl
