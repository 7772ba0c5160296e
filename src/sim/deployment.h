// Deployment builder: assembles DUs, RUs, middleboxes, fabric and UEs into
// runnable topologies, owning every object. This is the experiment-facing
// API: each paper scenario (baseline cell, DAS floor, dMIMO, shared RU,
// RU sharing chained with DAS, DAS over dMIMO) is a few builder calls.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/middlebox.h"
#include "ctrl/controller.h"
#include "net/fault.h"
#include "mb/das.h"
#include "mb/dmimo.h"
#include "mb/failover.h"
#include "mb/prbmon.h"
#include "mb/rushare.h"
#include "net/switch.h"
#include "ran/engine.h"
#include "sim/floorplan.h"
#include "sim/traffic.h"

namespace rb {

class Deployment {
 public:
  explicit Deployment(ChannelParams channel = {}, Scs scs = Scs::kHz30);

  struct DuHandle {
    DuModel* du = nullptr;
    Port* port = nullptr;
    CellId cell = -1;
    int index = -1;
  };
  struct RuHandle {
    RuModel* ru = nullptr;
    Port* port = nullptr;
    RuId id = -1;
    MacAddr mac{};
    int index = -1;
  };

  // --- building blocks ------------------------------------------------
  /// Create a DU + cell. The cell is registered with the AirModel; the
  /// fronthaul context is derived from the vendor profile. City mode can
  /// build a DU that the engine does NOT drive (`engine_driven = false`):
  /// a neutral-host guest DU stepped by the conductor at a virtual slot
  /// offset instead; `ul_match_slots > 1` widens its UL matching window
  /// (see DuConfig::ul_match_slots).
  DuHandle add_du(CellConfig cell, const VendorProfile& vendor,
                  std::uint8_t du_index, bool engine_driven = true,
                  int ul_match_slots = 1);

  /// Create an RU at a site. `fh` must match the driving DU's framing.
  RuHandle add_ru(const RuSite& site, std::uint8_t ru_index,
                  const FhContext& fh);

  /// Plain deployment: wire DU <-> RU directly and assign the RU to the
  /// cell (identity layer map, given PRB offset).
  void connect_direct(DuHandle& du, RuHandle& ru, int prb_offset = 0,
                      std::vector<LayerMap> layers = {});

  /// DAS middlebox between one DU and a set of RUs (paper 4.1).
  MiddleboxRuntime& add_das(DuHandle& du, const std::vector<RuHandle*>& rus,
                            DriverKind driver = DriverKind::Dpdk,
                            int workers = 1);

  /// dMIMO middlebox combining RUs into one virtual RU (paper 4.2).
  MiddleboxRuntime& add_dmimo(DuHandle& du, const std::vector<RuHandle*>& rus,
                              DriverKind driver = DriverKind::Dpdk,
                              bool copy_ssb = true);

  /// One tenant of an RU share. `port` is the far end of the share's
  /// north link: the DU's own port, or a city xlink endpoint when the DU
  /// lives in another shard. `cell` is the tenant's cell in this
  /// deployment's air, which the shared RU radiates. A DuHandle of this
  /// deployment converts implicitly (its own port and cell, 1 us link).
  struct ShareTenant {
    ShareTenant(const DuHandle* h) : du(h->du), port(h->port), cell(h->cell) {}
    ShareTenant(DuModel* d, Port* p, CellId c, std::int64_t latency = 1'000)
        : du(d), port(p), cell(c), latency_ns(latency) {}
    DuModel* du;
    Port* port;
    CellId cell;
    std::int64_t latency_ns = 1'000;
  };

  /// RU-sharing middlebox: several DUs over one RU (paper 4.3).
  /// PRB offsets are derived from the DU/RU center frequencies (aligned
  /// grids, Appendix A.1.1) unless `shift_sc` forces misalignment.
  MiddleboxRuntime& add_rushare(const std::vector<ShareTenant>& tenants,
                                RuHandle& ru,
                                DriverKind driver = DriverKind::Dpdk,
                                int shift_sc = 0);

  /// RU sharing chained with DAS (paper 6.3.2, Figure 12): the tenants
  /// share a virtual RU that a DAS stage distributes over `rus`, so every
  /// tenant cell radiates from every RU at its slice. The RUs must share
  /// one grid. The share accepts UL from any member RU's MAC (the DAS
  /// forwards merged UL with a member's source MAC) and addresses DL to
  /// the first. Both stages use the DPDK driver.
  struct ShareChain {
    MiddleboxRuntime* share = nullptr;  ///< DU-facing RU-share stage
    MiddleboxRuntime* das = nullptr;    ///< RU-facing DAS stage
  };
  ShareChain add_rushare(const std::vector<ShareTenant>& tenants,
                         const std::vector<RuHandle*>& rus);

  /// DAS over dMIMO (paper 6.3.2, Figure 14): a DAS stage distributes one
  /// cell through one fabric to a dMIMO stage per group of RUs (e.g. per
  /// floor). The DAS addresses each stage by its group's first RU MAC, the
  /// source the stage gives its UL. All stages use the DPDK driver.
  struct DasChain {
    MiddleboxRuntime* das = nullptr;       ///< DU-facing DAS stage
    std::vector<MiddleboxRuntime*> dmimo;  ///< one stage per group, in order
  };
  DasChain add_das(DuHandle& du,
                   const std::vector<std::vector<RuHandle*>>& groups);

  /// Transparent PRB monitor between a DU and an RU (paper 4.4).
  MiddleboxRuntime& add_prbmon(DuHandle& du, RuHandle& ru,
                               DriverKind driver = DriverKind::Dpdk);

  /// Resilience middlebox: primary/standby DU in front of one RU (paper
  /// 8.1). The standby runs the same cell (state replication out of
  /// scope); the middlebox fails over on fronthaul-heartbeat loss.
  MiddleboxRuntime& add_failover(DuHandle& primary, DuHandle& standby,
                                 RuHandle& ru,
                                 DriverKind driver = DriverKind::Dpdk);

  /// Attach a fault-injection plan to the link `near` is plugged into.
  /// `tx_plan` perturbs frames leaving `near`, `rx_plan` frames arriving
  /// at it (i.e. leaving the peer). The link must already be connected.
  /// Scheduled flaps are driven from the engine's begin-of-slot hook, so
  /// call this after the topology is built but before running slots.
  FaultyLink& add_fault(Port& near, const FaultPlan& tx_plan,
                        const FaultPlan& rx_plan = {}, std::string name = "");

  /// Fixed-order dump of every fault link's counters, for determinism
  /// snapshots and chaos-test fingerprints.
  std::string fault_dump() const;

  /// Closed-loop adaptation controller, ticked at the engine's
  /// begin-of-slot barrier (after the fault hooks registered so far, so
  /// it samples a fully settled previous slot). Supervised links are
  /// added with ctrl_watch().
  ctrl::AdaptationController& add_controller(ctrl::CtrlConfig cfg = {});

  /// Supervise one RU fronthaul link: quality comes from `link`'s A->B
  /// direction (add_fault with `near` = the RU's port makes that the
  /// uplink), actuation targets `rt`'s middlebox (DAS membership or dMIMO
  /// gate, chosen by the app's type) plus the RU's uplink BFP width.
  /// Returns the controller's link index.
  int ctrl_watch(ctrl::AdaptationController& c, FaultyLink& link,
                 MiddleboxRuntime& rt, RuHandle& ru);

  /// Fixed-order dump of every controller's state, for determinism
  /// snapshots (ISSUE 6: controller state is part of the fingerprint).
  std::string ctrl_dump() const;

  /// UE with optional offered traffic through a DU.
  UeId add_ue(const Position& pos, DuHandle* du = nullptr,
              double dl_mbps = 0, double ul_mbps = 0, int pci_lock = -1,
              int max_layers = 4);

  // --- running & measuring ---------------------------------------------
  /// Warm up until all UEs attach (SSB + PRACH through the datapath).
  bool attach_all(int max_slots = 600) {
    return engine.run_until_attached(max_slots);
  }
  /// Reset throughput counters, run `slots`, remember the window.
  void measure(int slots);
  double dl_mbps(UeId ue) const;
  double ul_mbps(UeId ue) const;

  /// PRB offset of a DU's grid inside an RU's grid (aligned case).
  static int prb_offset_in_ru(const CellConfig& du_cell, const RuSite& ru);

  /// Link latency between two chained middlebox stages: two PCIe
  /// crossings (VF out, VF in) through the SR-IOV embedded switch (paper
  /// Figure 8).
  static constexpr std::int64_t kHopLatencyNs = 1'200;

  // --- members (public on purpose: experiments poke at everything) -----
  /// City mode: prepended to every generated port/switch/runtime/ctrl
  /// name (e.g. "c3/") so names stay unique across cell shards. Set
  /// before building; empty (the default) changes nothing.
  std::string name_prefix;
  /// City mode: stamped into every runtime's Config::cell so telemetry
  /// and Prometheus series carry a cell label. Empty = no label.
  std::string cell_label;

  AirModel air;
  SlotEngine engine;
  TrafficGen traffic;
  Floorplan plan;

  std::vector<std::unique_ptr<Port>> ports;
  std::vector<std::unique_ptr<EmbeddedSwitch>> switches;
  std::vector<std::unique_ptr<DuModel>> dus;
  std::vector<std::unique_ptr<RuModel>> rus;
  std::vector<std::unique_ptr<MiddleboxApp>> apps;
  std::vector<std::unique_ptr<MiddleboxRuntime>> runtimes;
  std::vector<std::unique_ptr<FaultyLink>> faults;
  std::vector<std::unique_ptr<ctrl::AdaptationController>> controllers;

  Port& new_port(const std::string& name);
  EmbeddedSwitch& new_switch(const std::string& name);

 private:
  /// Create the runtime for `app`, named "<name_prefix><kind><index>",
  /// register it with the engine and own both.
  MiddleboxRuntime& add_runtime(std::unique_ptr<MiddleboxApp> app,
                                const char* kind, const FhContext& fh,
                                DriverKind driver, int workers = 1);
  /// A south member of a fan-out fabric: the switch port `name` links to
  /// `port` and routes `mac` there.
  struct FabricMember {
    std::string name;
    Port* port;
    MacAddr mac;
  };
  /// One member per RU: switch port "ru<index>" routing the RU's MAC.
  static std::vector<FabricMember> ru_members(
      const std::vector<RuHandle*>& rus);
  /// Wire a fan-out middlebox (DAS, dMIMO): port "south" reaches
  /// `members` through the embedded switch "<rt name>.fabric", whose port
  /// "mb" routes `north_macs`. Returns port "north" (index 0), unlinked.
  Port& add_fabric(MiddleboxRuntime& rt,
                   const std::vector<MacAddr>& north_macs,
                   const std::vector<FabricMember>& members);
  /// dMIMO runtime for `rus` under `du` (its SSB window), each RU's
  /// antennas assigned to the next cell layers, with its fabric to `rus`
  /// wired. The north port is left for the caller to link.
  MiddleboxRuntime& add_dmimo_stage(DuHandle& du,
                                    const std::vector<RuHandle*>& rus,
                                    DriverKind driver, bool copy_ssb);
  /// RU-share runtime with its tenants' north links wired and every
  /// tenant cell assigned to every RU of `rus` at its slice. The south
  /// port is left for the caller to link.
  MiddleboxRuntime& add_share_stage(const std::vector<ShareTenant>& tenants,
                                    const std::vector<RuHandle*>& rus,
                                    DriverKind driver, int shift_sc);

  std::int64_t measure_window_ns_ = 0;
};

}  // namespace rb
