// Hitless operations over a running Deployment (ISSUE 7).
//
// Two slot-barrier operations built on the src/state serialization layer:
//
//  * checkpoint()/restore(): snapshot every stateful component of a
//    running deployment into one versioned blob and rebuild an identical
//    deployment to the same virtual time. A restored run's determinism
//    snapshot is bit-identical to an uninterrupted run (tests/test_state).
//
//  * ReconfigManager: zero-loss live reconfiguration. Operators describe
//    the desired settings of the reconfigurable surface (DAS combine-set
//    membership, dMIMO participation gates, failover targets/hysteresis,
//    controller thresholds, RU uplink BFP widths); the manager diffs the
//    request against live state, queues only the deltas and applies them
//    at the engine's begin-of-slot barrier - before any entity or
//    middlebox touches the new slot, so every packet of a slot sees the
//    same knob settings and no packet is dropped by the act of
//    reconfiguring.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mgmt.h"
#include "sim/deployment.h"
#include "state/serialize.h"

namespace rb {

// --- checkpoint / restore ---------------------------------------------

/// Serialize the full mutable state of `d` (clock, air, traffic, ports,
/// switches, DUs, RUs, fault links, middlebox runtimes + apps,
/// controllers) into a versioned blob. Call at the slot barrier (between
/// run_slots calls).
std::vector<std::uint8_t> checkpoint(const Deployment& d);

/// Result of a restore attempt. On failure `error` is the first typed
/// error hit and `detail` names the section; `d` may be partially
/// restored - restore onto a freshly built identical deployment.
struct RestoreResult {
  state::StateError error = state::StateError::kNone;
  std::string detail;
  bool ok() const { return error == state::StateError::kNone; }
};

/// Restore a checkpoint onto `d`, which must have been built by the same
/// builder calls as the checkpointed deployment (same entity counts in
/// the same order - validated, kMismatch otherwise). Unknown sections
/// (from a newer writer) are skipped. Never throws, never UB: corrupted
/// or truncated blobs return a typed error.
RestoreResult restore(Deployment& d, const std::vector<std::uint8_t>& blob);

// --- live reconfiguration ---------------------------------------------

/// One typed reconfiguration operation (the unit of diffing + audit).
struct ReconfigOp {
  enum class Kind : std::uint8_t {
    DasSetMember,     // runtimes[index]: ru mac active/inactive
    DmimoSetGate,     // runtimes[index]: rus[arg] gate closed/open
    FailoverTarget,   // runtimes[index]: steer to port arg
    FailoverRetune,   // runtimes[index]: liveness/dwell/confirm/failback
    CtrlRetune,       // controllers[index]: threshold retune
    RuSetUlIqWidth,   // rus[index]: uplink BFP mantissa width
  };
  Kind kind = Kind::DasSetMember;
  std::size_t index = 0;  // runtime / controller / ru index
  MacAddr mac{};          // DasSetMember
  int arg = 0;            // gate slot / port / width / liveness_slots
  bool enable = true;     // member active / gate open / failback
  // FailoverRetune extras (arg = liveness_slots).
  int min_dwell_slots = 0;
  int failback_confirm_slots = 1;
  ctrl::CtrlConfig ctrl_cfg{};  // CtrlRetune

  std::string str() const;
};

/// Desired settings of the reconfigurable surface. Only what is listed
/// is reconciled; everything else is left untouched.
struct DesiredConfig {
  struct DasMember {
    std::size_t runtime = 0;
    MacAddr mac{};
    bool active = true;
  };
  struct DmimoGate {
    std::size_t runtime = 0;
    std::size_t ru = 0;
    bool gated = false;
  };
  struct FailoverTarget {
    std::size_t runtime = 0;
    int port = FailoverMiddlebox::kPrimary;
  };
  struct FailoverTuning {
    std::size_t runtime = 0;
    int liveness_slots = 3;
    bool failback = true;
    int min_dwell_slots = 0;
    int failback_confirm_slots = 1;
  };
  struct CtrlTuning {
    std::size_t controller = 0;
    ctrl::CtrlConfig cfg{};
  };
  struct RuWidth {
    std::size_t ru = 0;
    int width = 9;
  };

  std::vector<DasMember> das_members;
  std::vector<DmimoGate> dmimo_gates;
  std::vector<FailoverTarget> failover_targets;
  std::vector<FailoverTuning> failover_tunings;
  std::vector<CtrlTuning> ctrl_tunings;
  std::vector<RuWidth> ru_widths;
};

/// Applies desired-state reconfigurations at the slot barrier.
///
/// Usage: construct once over a built deployment (registers its barrier
/// hook), then request(desired) any time - including from another
/// planning thread between slots. Deltas apply at the next begin-of-slot;
/// no-op requests (desired == live) queue nothing.
class ReconfigManager final : public ReconfigMgmtHandler {
 public:
  explicit ReconfigManager(Deployment& d);

  /// Diff `desired` against live state and queue the delta ops. Returns
  /// the number of ops queued (0 = already converged). Invalid indices
  /// are counted rejected and skipped.
  std::size_t request(const DesiredConfig& desired);

  /// Queue one explicit op (no diffing).
  void queue(ReconfigOp op) { pending_.push_back(std::move(op)); }

  /// Number of ops waiting for the next barrier.
  std::size_t pending() const { return pending_.size(); }

  /// Totals (also exported process-wide as rb_reconfig_* via src/obs).
  std::uint64_t applied() const { return applied_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t batches() const { return batches_; }

  /// Newest-last audit log of applied ops (bounded).
  const std::vector<std::string>& log() const { return log_; }

  // ReconfigMgmtHandler: "status" | "log" | "pending".
  std::string reconfig_mgmt(const std::string& cmd) override;

  /// Barrier hook body; exposed so tests can drive it directly.
  void on_slot(std::int64_t slot);

 private:
  bool apply(const ReconfigOp& op);

  Deployment* d_;
  std::vector<ReconfigOp> pending_;
  std::vector<std::string> log_;
  std::uint64_t applied_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t batches_ = 0;
  std::uint16_t obs_name_ = 0;   // interned "reconfig.apply"
  std::uint16_t obs_track_ = 0;  // interned "reconfig"
};

}  // namespace rb
