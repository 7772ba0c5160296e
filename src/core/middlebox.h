// The RANBooster middlebox template (paper section 3.2.2).
//
// A developer writes a MiddleboxApp: a handler invoked per fronthaul frame
// with an MbContext exposing the four RANBooster actions:
//   A1  forward()/drop()           - redirection & drop
//   A2  replicate()                - packet cloning
//   A3  cache()                    - keyed packet store
//   A4  payload helpers            - O-RAN header & IQ modification
// The MiddleboxRuntime owns the ports/drivers, parses frames, invokes the
// handler, and does the cost/latency accounting that the evaluation
// (Figures 15-16) measures. The same template builds all four reference
// applications in src/mb.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/small_vec.h"
#include "core/cache.h"
#include "core/telemetry.h"
#include "fronthaul/frame.h"
#include "net/driver.h"
#include "net/packet.h"
#include "ran/engine.h"

namespace rb {

/// Deterministic per-operation work costs (nanoseconds). Calibrated to the
/// FlexRAN-grade kernels of the paper's testbed so the latency/scaling
/// results of section 6.4 reproduce; our scalar codec's real timings are
/// reported separately by bench_fig15b. See DESIGN.md.
struct WorkCosts {
  double forward_ns = 80;
  double clone_per_kb_ns = 40;
  double clone_base_ns = 100;
  /// Zero-copy replicate (refcount bump + private-head copy) - the cheap
  /// path replication takes when the frame is payload-share eligible.
  double replicate_ref_ns = 28;
  double cache_op_ns = 35;
  double hdr_rewrite_ns = 25;
  double per_prb_decompress_ns = 4.3;
  double per_prb_compress_ns = 6.0;
  double per_prb_copy_ns = 1.2;
  double per_prb_scan_ns = 0.5;
};

enum class DriverKind : std::uint8_t { Dpdk, Xdp };

class MiddleboxRuntime;

/// Per-worker scratch arena for the combine hot path: the A3 take batch,
/// the per-RU dedup set and the per-section source spans reuse their
/// capacity across packets, so a steady-state combine makes no heap
/// allocations. One instance per thread (a city cell job runs its
/// runtimes on one thread, and chain re-entrancy never interleaves two
/// combines on one thread); hand out via MbContext::scratch().
struct MbScratch {
  std::vector<CachedPacket> batch;
  std::vector<CachedPacket*> copies;
  std::vector<std::span<const std::uint8_t>> srcs;
  std::vector<CompConfig> src_comps;  // per-source widths (mixed-width merge)
};

/// Classification of one parsed frame, produced by the burst parse pass:
/// the per-packet facts every app otherwise re-derives from the frame
/// (stream identity, radio time, combine keys). Exposed to handlers via
/// MbContext::frame_info() for the duration of on_frame().
struct FrameInfo {
  SlotPoint at{};             // radio time point of the message
  EaxcId eaxc{};              // stream identity
  CompConfig comp{};          // first section's compression (msg comp for C)
  std::uint64_t cache_key = 0;  // PacketCache::key(at, eaxc, cplane, frag_tag)
  std::uint16_t start_prb = 0;  // first section's PRB range
  std::uint16_t num_prb = 0;
  std::uint16_t payload_off = 0;  // first U section's payload offset/length
  std::uint16_t payload_len = 0;  // (zero-copy replicate eligibility)
  std::uint8_t n_sections = 0;  // saturated at 255
  std::uint8_t frag_tag = 0;  // first U section's start_prb & 0xff (DAS
                              // fragment pairing)
  bool cplane = false;
  bool uplink = false;        // message direction
  bool prach = false;         // non-zero du_port: PRACH / mixed numerology
  bool type3 = false;         // C-plane section type 3
};

/// Action facade handed to the handler. Bound to the runtime and to the
/// worker/time context of the packet being processed.
class MbContext {
 public:
  // --- A1: redirection & drop ---------------------------------------
  /// Rewrite addressing (optionally) and transmit on `out_port`.
  void forward(PacketPtr p, int out_port,
               std::optional<MacAddr> dst = std::nullopt,
               std::optional<MacAddr> src = std::nullopt);
  /// Drop: account and release.
  void drop(PacketPtr p);

  // --- A2: replication ----------------------------------------------
  PacketPtr replicate(const Packet& p);

  // --- A3: caching --------------------------------------------------
  PacketCache& cache();
  /// Account one cache operation (put/take).
  void charge_cache_op();
  /// This worker's combine scratch arena (see MbScratch). Valid only for
  /// the duration of the current handler invocation.
  MbScratch& scratch();

  // --- A4: payload inspection & modification -------------------------
  /// Rewrite the eAxC (antenna port remap). Charges a header rewrite.
  bool rewrite_eaxc(Packet& p, const EaxcId& eaxc);
  /// BFP exponent of one PRB of a U-plane section (no decompression).
  std::uint8_t prb_exponent(const Packet& p, const USection& sec, int prb);
  /// Element-wise merge of N compressed section payloads into `dst`
  /// (decompress + sum + recompress). Returns bytes written, 0 on error.
  std::size_t merge_payloads(
      std::span<const std::span<const std::uint8_t>> srcs, int n_prb,
      const CompConfig& cfg, std::span<std::uint8_t> dst);
  /// Mixed-width merge: each source decoded at its own per-packet
  /// udCompHdr config, recompressed at `dst_cfg` (the width the merged
  /// frame's header advertises).
  std::size_t merge_payloads(
      std::span<const std::span<const std::uint8_t>> srcs,
      std::span<const CompConfig> src_cfgs, int n_prb,
      const CompConfig& dst_cfg, std::span<std::uint8_t> dst);
  /// Aligned compressed-PRB copy between payloads (no codec work).
  bool copy_prbs(std::span<const std::uint8_t> src, int src_prb,
                 std::span<std::uint8_t> dst, int dst_prb, int n_prb,
                 const CompConfig& cfg);
  /// Misaligned copy: decompress, shift by `shift_sc` sub-carriers,
  /// recompress (the expensive path Figure 6 motivates avoiding).
  bool copy_prbs_misaligned(std::span<const std::uint8_t> src, int src_prb,
                            std::span<std::uint8_t> dst, int dst_prb,
                            int n_prb, int shift_sc, const CompConfig& cfg);
  /// Explicit cost charge for custom A4 work.
  void charge(double ns);
  /// Draw a fresh packet from the middlebox pool (for assembled frames).
  PacketPtr alloc_packet();

  // --- environment ----------------------------------------------------
  Telemetry& telemetry();
  /// Default (config) fronthaul context.
  const FhContext& fh() const;
  /// Per-port fronthaul context: M-plane provisioning differs per link
  /// (e.g. RU sharing: each DU's carrier defines its numPrbu==0 meaning).
  const FhContext& fh(int port) const;
  std::int64_t slot() const { return slot_; }
  std::int64_t slot_start_ns() const { return slot_start_ns_; }

  /// Precomputed classification of the frame being handled (burst parse
  /// table row). Valid only during on_frame(); on_other, on_slot and
  /// on_pump_idle contexts have no frame and must not call it.
  const FrameInfo& frame_info() const { return *info_; }

  /// Modeled cost accumulated so far for the current packet (ns). Pair
  /// with trace_span() to attribute an app-level phase.
  double cost_ns() const { return cost_ns_; }
  /// Emit an obs Combine span covering [cost_begin, cost_ns()) of this
  /// packet's modeled time, on the runtime's track. `name` is an
  /// obs-interned name id; no-op while obs is disabled.
  void trace_span(std::uint16_t name, double cost_begin,
                  std::uint64_t arg = 0);

 private:
  friend class MiddleboxRuntime;
  MbContext(MiddleboxRuntime* rt, int in_port, std::int64_t slot,
            std::int64_t slot_start_ns)
      : rt_(rt), in_port_(in_port), slot_(slot), slot_start_ns_(slot_start_ns),
        start_ns_(slot_start_ns) {}

  /// Emit an obs Action event covering [cost_begin, cost_ns()).
  void trace_action(std::uint16_t name, double cost_begin,
                    std::uint64_t arg = 0);

  MiddleboxRuntime* rt_;
  int in_port_;
  std::int64_t slot_;
  std::int64_t slot_start_ns_;
  double cost_ns_ = 0.0;          // accumulated for the current packet
  std::int64_t start_ns_ = 0;     // when the worker started this packet
  const FrameInfo* info_ = nullptr;  // burst table row (on_frame only)
  /// Emitted packets. Inline storage covers the common fan-out (DAS
  /// replicates to a handful of RUs) without a per-packet allocation.
  SmallVec<std::pair<PacketPtr, int>, 8> tx_queue_;
};

/// User-provided middlebox logic.
class MiddleboxApp {
 public:
  virtual ~MiddleboxApp() = default;
  virtual std::string name() const = 0;
  /// Handler for a parsed fronthaul frame. Take ownership of `p` via the
  /// context actions (forward/drop/cache); unconsumed packets are dropped.
  virtual void on_frame(int in_port, PacketPtr p, FhFrame& frame,
                        MbContext& ctx) = 0;
  /// Non-fronthaul traffic (default: transparent drop).
  virtual void on_other(int in_port, PacketPtr p, MbContext& ctx);
  /// Where this frame's processing would run under the XDP split
  /// (Table 1); determines the AF_XDP punt charge under DriverKind::Xdp.
  virtual ProcessingLocus locus(const FhFrame& frame) const {
    (void)frame;
    return ProcessingLocus::Userspace;
  }
  /// Management command hook ("set key value" / "get key").
  virtual std::string on_mgmt(const std::string& cmd) {
    (void)cmd;
    return "unknown command";
  }
  /// Slot boundary notification.
  virtual void on_slot(std::int64_t slot, MbContext& ctx) {
    (void)slot;
    (void)ctx;
  }
  /// Called when a pump pass finds no pending traffic: every packet that
  /// was going to arrive this phase has been processed. Apps holding
  /// partial per-symbol state (DAS combine groups) use this as their
  /// deadline to flush whatever arrived instead of waiting forever.
  /// Must be idempotent; emitting packets marks the pump as productive.
  virtual void on_pump_idle(std::int64_t slot, MbContext& ctx) {
    (void)slot;
    (void)ctx;
  }
  /// Checkpoint hook: write every field a restored instance needs to
  /// resume bit-identically into the runtime's open state section.
  /// Stateless apps keep the no-op default. load_state must read exactly
  /// what save_state wrote (the section framing tolerates a shorter read,
  /// but a restored run then diverges).
  virtual void save_state(state::StateWriter& w) const { (void)w; }
  virtual void load_state(state::StateReader& r) { (void)r; }
};

/// Runtime: ports, drivers, parse loop, accounting. Implements Pumpable so
/// the SlotEngine can drive it.
class MiddleboxRuntime final : public Pumpable {
 public:
  struct Config {
    std::string name = "mb";
    /// Cell shard this runtime belongs to (city mode). When non-empty,
    /// Prometheus series rendered by the mgmt endpoint carry a
    /// cell="<label>" label; empty keeps single-cell output byte-identical.
    std::string cell;
    FhContext fh{};
    DriverKind driver = DriverKind::Dpdk;
    DriverCosts driver_costs{};
    WorkCosts work{};
    int n_workers = 1;
    std::size_t pool_capacity = 8192;
    /// Packet-cache entry cap (0 = unbounded): under sustained loss,
    /// never-combined entries are evicted oldest-first with telemetry.
    std::size_t cache_max_entries = 4096;
  };

  MiddleboxRuntime(Config cfg, MiddleboxApp& app);

  /// Register a port; returns its index (used by forward()). `fh`
  /// overrides the config fronthaul context for frames of this port.
  int add_port(const std::string& name, Port& port,
               std::optional<FhContext> fh = std::nullopt);
  int num_ports() const { return int(drivers_.size()); }
  Port& port(int idx) { return drivers_[std::size_t(idx)]->port(); }

  // Pumpable:
  bool pump(std::int64_t slot, std::int64_t slot_start_ns) override;
  void begin_slot(std::int64_t slot) override;

  /// CPU utilization of the middlebox core(s) over the window since the
  /// last reset_cpu(): 1.0 for DPDK (poll), busy/wall for XDP.
  double cpu_utilization(std::int64_t now_ns) const;
  void reset_cpu(std::int64_t now_ns);

  Telemetry& telemetry() { return telemetry_; }
  PacketCache& cache() { return cache_; }
  MiddleboxApp& app() { return *app_; }
  const Config& config() const { return cfg_; }
  PacketPool& pool() { return pool_; }

  /// Max packet added-latency observed in the last completed slot (ns).
  std::int64_t last_slot_max_latency_ns() const {
    return last_slot_max_latency_ns_;
  }

  /// Burst telemetry: power-of-two-bucketed histograms over (a) packets
  /// drained per productive pump (rb_burst_size) and (b) packets per
  /// 32-slot dispatch chunk, i.e. descriptor-ring occupancy
  /// (rb_burst_occupancy). Rendered by the mgmt "prom" verb.
  struct BurstHist {
    static constexpr std::array<std::uint32_t, 6> kLe{1, 2, 4, 8, 16, 32};
    std::array<std::uint64_t, kLe.size()> bucket{};  // cumulative (le)
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    void record(std::size_t v) {
      for (std::size_t i = 0; i < kLe.size(); ++i)
        if (v <= kLe[i]) ++bucket[i];
      ++count;
      sum += v;
    }
  };
  const BurstHist& burst_size_hist() const { return burst_size_hist_; }
  const BurstHist& burst_occupancy_hist() const { return burst_occ_hist_; }

  /// Per-packet cost sampling (latency microbenchmarks): called after each
  /// handler invocation with the parsed frame (null for non-fronthaul)
  /// and the modeled processing cost.
  using CostSampler = std::function<void(const FhFrame*, double cost_ns)>;
  void set_cost_sampler(CostSampler s) { cost_sampler_ = std::move(s); }

  /// Checkpoint the runtime's mutable state — telemetry, cached packets
  /// (re-parsed on load via the per-port fronthaul context), latency
  /// watermarks — then the app's own state via its save_state hook, all
  /// into the caller's open section. Call only at the slot barrier:
  /// worker availability is empty there by construction.
  void save_state(state::StateWriter& w) const;
  void load_state(state::StateReader& r);

 private:
  friend class MbContext;

  /// One pump's worth of packets, owned by the runtime and reused across
  /// pumps (the zero-alloc burst descriptor). Packets are drained from
  /// every port into the arrival arrays, ordered by an index sort, then
  /// parsed/classified and dispatched in kChunk-packet bursts through the
  /// SoA table below.
  struct Burst {
    static constexpr std::size_t kChunk = Driver::kRxBurst;
    // Arrival arrays (whole pump, parallel):
    std::vector<PacketPtr> pkt;
    std::vector<std::int32_t> in_port;
    /// (rx_time_ns, drain sequence): sorting pairs reproduces the
    /// stable-by-arrival order of std::stable_sort without its allocation.
    std::vector<std::pair<std::int64_t, std::uint32_t>> order;
    // Parse/classify table for the current chunk (SoA):
    std::array<FhFrame, kChunk> frame;   // capacity reused across chunks
    std::array<ParseError, kChunk> perr;
    std::array<FrameInfo, kChunk> info;
    std::array<bool, kChunk> ok;
    /// Per-chunk staged TX, flushed after the chunk's dispatch pass in
    /// the exact per-packet emission order.
    std::vector<std::pair<PacketPtr, int>> txq;
  };

  /// Parse one received frame into `out` through the per-port fronthaul
  /// context; on reject, counts the typed reason (`parse_reject_<reason>`).
  /// The single parse-and-reject integration point for the burst path and
  /// for cache re-parse on state restore.
  bool parse_rx_frame(int in_port, const Packet& p, FhFrame& out,
                      ParseError& perr);
  /// Fill one classify-table row from a parsed frame.
  static void classify_frame(const FhFrame& f, FrameInfo& info);
  /// Act stage: run the handler + cost/latency accounting for one packet
  /// of the current chunk, staging its TX into burst_.txq.
  void dispatch_packet(int in_port, PacketPtr p, FhFrame* frame,
                       const FrameInfo* info, ParseError perr,
                       std::int64_t slot, std::int64_t slot_start_ns);
  /// Give the app its end-of-phase deadline callback; returns true if it
  /// emitted anything.
  bool pump_idle(std::int64_t slot, std::int64_t slot_start_ns);
  /// Pick the worker with the earliest availability.
  std::size_t pick_worker() const;
  /// Transmit on `out` (bounds pre-checked).
  void send(int out, PacketPtr pkt);

  /// Pre-interned telemetry handles for the per-packet hot path (avoids
  /// the string hash/compare per counter bump).
  struct HotCounters {
    Telemetry::CounterId pkts_forwarded, pkts_dropped, pkts_replicated,
        replicate_failures, cache_ops, iq_merges, pool_exhausted, cplane_rx,
        uplane_rx, non_fh_rx, cache_evicted, cache_stale;
    /// Per-reason parse rejects ("parse_reject_<reason>").
    std::array<Telemetry::CounterId, kParseErrorCount> parse_reject{};
    /// Cache-pressure gauges, refreshed at every slot barrier (exported
    /// as rb_cache_entries / rb_cache_evictions by the prom mgmt verb).
    Telemetry::GaugeId cache_entries, cache_evictions;
  };

  Config cfg_;
  MiddleboxApp* app_;
  PacketPool pool_;
  std::vector<std::unique_ptr<Driver>> drivers_;
  std::vector<FhContext> port_fh_;
  std::vector<std::int64_t> worker_free_at_;
  PacketCache cache_;
  Telemetry telemetry_;
  HotCounters hot_;
  std::uint16_t obs_track_ = 0;  // obs track id for this runtime's spans
  std::int64_t cpu_window_start_ns_ = 0;
  std::int64_t slot_max_latency_ns_ = 0;
  std::int64_t last_slot_max_latency_ns_ = 0;
  std::int64_t current_slot_start_ns_ = 0;
  std::uint64_t cache_evictions_seen_ = 0;
  Burst burst_;
  BurstHist burst_size_hist_;
  BurstHist burst_occ_hist_;
  CostSampler cost_sampler_;
};

}  // namespace rb
