// O-RAN U-plane message codec (WG4 CUS-plane spec section 6).
//
// Parsing produces *views*: each section records the byte range of its
// compressed payload within the original frame so middleboxes can inspect
// or rewrite IQ data in place without copying (action A4), and read BFP
// exponents without decompressing (Algorithm 1).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/timing.h"
#include "fronthaul/fh_config.h"
#include "fronthaul/parse_error.h"

namespace rb {

/// One U-plane data section, with its payload located in the parent frame.
struct USection {
  std::uint16_t section_id = 0;  // 12 bits
  bool rb = false;
  bool sym_inc = false;
  std::uint16_t start_prb = 0;   // startPrbu
  int num_prb = 0;               // effective count (0 on wire = whole carrier)
  CompConfig comp{};
  std::size_t payload_offset = 0;  // absolute offset within the frame
  std::size_t payload_len = 0;

  friend bool operator==(const USection&, const USection&) = default;
};

struct UPlaneMsg {
  Direction direction = Direction::Uplink;
  std::uint8_t payload_version = 1;
  std::uint8_t filter_index = 0;
  SlotPoint at{};
  std::vector<USection> sections;

  friend bool operator==(const UPlaneMsg&, const UPlaneMsg&) = default;
};

/// Section descriptor for building: payload supplied as pre-compressed
/// bytes (the normal datapath case - the producer compressed per PRB).
struct USectionData {
  std::uint16_t section_id = 0;
  std::uint16_t start_prb = 0;
  int num_prb = 0;
  std::span<const std::uint8_t> payload;  // compressed, num_prb * prb_bytes
  /// Per-section compression override. The udCompHdr on the wire (and the
  /// payload sizing) follow this when set; otherwise the context default
  /// applies. This is how a link running a controller-adapted width emits
  /// frames that peers decode correctly packet-by-packet.
  std::optional<CompConfig> comp;

  const CompConfig& effective_comp(const FhContext& ctx) const {
    return comp ? *comp : ctx.comp;
  }
};

/// Encode the radio-application layer of a U-plane message. `base_offset`
/// is the absolute offset of `w`'s start within the full frame; returned
/// sections (if `out_sections` non-null) carry absolute payload offsets.
bool encode_uplane(BufWriter& w, const UPlaneMsg& hdr,
                   std::span<const USectionData> sections,
                   const FhContext& ctx, std::size_t base_offset = 0,
                   std::vector<USection>* out_sections = nullptr);

/// Parse the radio-application layer. `base_offset` is the offset of the
/// reader's start within the full frame buffer (payload offsets are
/// reported absolute).
std::optional<UPlaneMsg> parse_uplane(BufReader& r, const FhContext& ctx,
                                      std::size_t base_offset,
                                      ParseError* err = nullptr);

/// Parse into a reused message (section-vector capacity is kept across
/// calls - the burst-parse hot path). Same semantics as parse_uplane().
bool parse_uplane_into(BufReader& r, const FhContext& ctx,
                       std::size_t base_offset, UPlaneMsg& m,
                       ParseError* err = nullptr);

/// A section list fragmented into frames, frame-major: frame i carries
/// parts[ends[i-1], ends[i]). Reused across calls it keeps its capacity,
/// so a steady-state split touches no heap.
struct MtuSplit {
  std::vector<USectionData> parts;
  std::vector<std::size_t> ends;

  std::size_t frames() const { return ends.size(); }
  std::span<const USectionData> frame(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return std::span(parts).subspan(begin, ends[i] - begin);
  }
};

/// Fragment a section list across frames so no frame exceeds
/// `max_frame_bytes` (e.g. wide-mantissa 100 MHz payloads overflow a 9 KB
/// jumbo frame and must be split, as real stacks do at the MTU). Sections
/// larger than the budget are split by PRBs; fragmentation is
/// deterministic so peers produce matching fragments. Overwrites `out`;
/// an empty section list yields no frames.
void split_sections_for_mtu(std::span<const USectionData> sections,
                            const FhContext& ctx, MtuSplit& out,
                            std::size_t max_frame_bytes = 8'800);

}  // namespace rb
