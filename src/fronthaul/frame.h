// Whole-frame assembly and classification: Ethernet + eCPRI + CUS-plane.
//
// This is the entry point the datapath uses: a middlebox, DU or RU receives
// raw bytes from a port, calls parse_frame_into() once with a reused
// FhFrame, and gets a typed view telling it whether it holds a C-plane or
// U-plane message, for which eAxC, and where the IQ payloads live inside
// the buffer.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>

#include "fronthaul/cplane.h"
#include "fronthaul/ecpri.h"
#include "fronthaul/ethernet.h"
#include "fronthaul/uplane.h"

namespace rb {

/// Parsed view of one fronthaul Ethernet frame.
struct FhFrame {
  EthHeader eth{};
  EcpriHeader ecpri{};
  std::variant<CPlaneMsg, UPlaneMsg> msg;

  bool is_cplane() const { return std::holds_alternative<CPlaneMsg>(msg); }
  bool is_uplane() const { return std::holds_alternative<UPlaneMsg>(msg); }
  const CPlaneMsg& cplane() const { return std::get<CPlaneMsg>(msg); }
  const UPlaneMsg& uplane() const { return std::get<UPlaneMsg>(msg); }
  CPlaneMsg& cplane() { return std::get<CPlaneMsg>(msg); }
  UPlaneMsg& uplane() { return std::get<UPlaneMsg>(msg); }

  Direction direction() const {
    return is_cplane() ? cplane().direction : uplane().direction;
  }
  SlotPoint at() const { return is_cplane() ? cplane().at : uplane().at; }
};

/// Parse a full frame into a fresh FhFrame: the allocating convenience
/// wrapper over parse_frame_into() for tests and tools (nothing on the
/// simulated datapath calls it). Returns nullopt for anything that is not
/// a valid eCPRI CUS-plane frame (the middleboxes forward such frames
/// untouched). On failure the optional out-parameter reports the typed
/// reason, so callers can count rejects per reason.
std::optional<FhFrame> parse_frame(std::span<const std::uint8_t> frame,
                                   const FhContext& ctx,
                                   ParseError* err = nullptr);

/// Parse into a reused FhFrame: the section vectors keep their capacity
/// across calls, so a steady-state parse of uniform traffic touches no
/// heap. Same accept/reject semantics as parse_frame(); on reject `out`
/// holds unspecified (but valid) contents.
bool parse_frame_into(std::span<const std::uint8_t> frame,
                      const FhContext& ctx, FhFrame& out,
                      ParseError* err = nullptr);

/// Build a complete C-plane frame into `buf`; returns the frame length or
/// 0 if the buffer is too small.
std::size_t build_cplane_frame(std::span<std::uint8_t> buf,
                               const EthHeader& eth, const EaxcId& eaxc,
                               std::uint8_t seq_id, const CPlaneMsg& msg,
                               const FhContext& ctx);

/// Build a complete U-plane frame into `buf`. Optionally reports the
/// absolute payload offsets of the written sections through out_sections.
std::size_t build_uplane_frame(std::span<std::uint8_t> buf,
                               const EthHeader& eth, const EaxcId& eaxc,
                               std::uint8_t seq_id, const UPlaneMsg& hdr,
                               std::span<const USectionData> sections,
                               const FhContext& ctx,
                               std::vector<USection>* out_sections = nullptr);

/// Rewrite the Ethernet destination/source in place (action A1 core).
/// Returns false if the frame is shorter than an Ethernet header.
bool rewrite_eth_addrs(std::span<std::uint8_t> frame,
                       const std::optional<MacAddr>& new_dst,
                       const std::optional<MacAddr>& new_src);

/// Rewrite the eAxC id (ecpriPcid/Rtcid) in place - the dMIMO antenna-port
/// remap primitive. Returns false on malformed frame.
bool rewrite_eaxc(std::span<std::uint8_t> frame, const EaxcId& eaxc);

/// Offset of the eCPRI header within a frame (after VLAN detection), or 0
/// if malformed.
std::size_t ecpri_offset(std::span<const std::uint8_t> frame);

}  // namespace rb
