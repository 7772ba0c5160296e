// Typed actuation interface of the adaptation controller.
//
// The controller never pokes middlebox internals directly: every decision
// is expressed as a CtrlAction and handed to the actuator the deployment
// registered for that link. Actions are applied at the slot barrier (the
// engine's begin-of-slot hook, before any entity touches the new slot),
// so every packet of a slot observes the same knob settings.
#pragma once

#include <cstdint>
#include <string>

namespace rb::ctrl {

enum class CtrlVerb : std::uint8_t {
  /// Adapt the link's uplink BFP mantissa width (value = new iq_width).
  SetUlIqWidth,
  /// Admit (enable) or eject (disable) the RU from its DAS combine set.
  SetDasMember,
  /// Open (enable) or close (disable) the RU's dMIMO participation gate.
  SetDmimoGate,
};

const char* verb_name(CtrlVerb v);

struct CtrlAction {
  CtrlVerb verb = CtrlVerb::SetUlIqWidth;
  int link = -1;          // controller link index the decision came from
  int value = 0;          // SetUlIqWidth: the new mantissa width
  bool enable = true;     // SetDasMember/SetDmimoGate: participate or not
  std::int64_t slot = 0;  // slot the action takes effect

  std::string str() const;
};

}  // namespace rb::ctrl
