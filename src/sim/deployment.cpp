#include "sim/deployment.h"

#include <stdexcept>

namespace rb {

Deployment::Deployment(ChannelParams channel, Scs scs)
    : air(ChannelModel(channel), scs), engine(air, scs) {
  engine.set_traffic_hook([this](std::int64_t slot) { traffic.on_slot(slot); });
}

Port& Deployment::new_port(const std::string& name) {
  ports.push_back(std::make_unique<Port>(name));
  return *ports.back();
}

EmbeddedSwitch& Deployment::new_switch(const std::string& name) {
  switches.push_back(std::make_unique<EmbeddedSwitch>(name));
  return *switches.back();
}

Deployment::DuHandle Deployment::add_du(CellConfig cell,
                                        const VendorProfile& vendor,
                                        std::uint8_t du_index,
                                        bool engine_driven,
                                        int ul_match_slots) {
  cell.finalize();
  cell.tdd = vendor.tdd;
  // PRACH occasions must land on a full uplink slot of the vendor's TDD
  // pattern (and the 20-slot period must stay aligned with it).
  for (std::size_t s = 0; s < cell.tdd.slots.size(); ++s) {
    if (cell.tdd.ul_symbols(std::int64_t(s)) == kSymbolsPerSlot) {
      cell.prach.slot_offset = int(s);
      break;
    }
  }
  const CellId cid = air.add_cell(cell);
  DuConfig cfg;
  cfg.cell = cell;
  cfg.vendor = vendor;
  cfg.du_mac = MacAddr::du(du_index);
  cfg.ru_mac = MacAddr::ru(du_index);  // logical; middleboxes re-steer
  cfg.du_id = du_index;
  cfg.ul_match_slots = ul_match_slots;
  Port& port = new_port(name_prefix + "du" + std::to_string(du_index));
  dus.push_back(std::make_unique<DuModel>(cfg, air, cid, port));
  if (engine_driven) engine.add_du(*dus.back());
  DuHandle h;
  h.du = dus.back().get();
  h.port = &port;
  h.cell = cid;
  h.index = int(dus.size()) - 1;
  return h;
}

Deployment::RuHandle Deployment::add_ru(const RuSite& site,
                                        std::uint8_t ru_index,
                                        const FhContext& fh) {
  const RuId rid = air.add_ru(site);
  RuModelConfig cfg;
  cfg.site = site;
  cfg.ru_mac = MacAddr::ru(ru_index);
  cfg.fh = fh;
  cfg.fh.carrier_prbs = prbs_for_bandwidth(site.bandwidth, Scs::kHz30);
  Port& port = new_port(name_prefix + "ru" + std::to_string(ru_index));
  rus.push_back(std::make_unique<RuModel>(cfg, air, rid, port));
  engine.add_ru(*rus.back());
  RuHandle h;
  h.ru = rus.back().get();
  h.port = &port;
  h.id = rid;
  h.mac = cfg.ru_mac;
  h.index = int(rus.size()) - 1;
  return h;
}

void Deployment::connect_direct(DuHandle& du, RuHandle& ru, int prb_offset,
                                std::vector<LayerMap> layers) {
  Port::connect(*du.port, *ru.port, /*latency_ns=*/1'000);
  air.assign_ru(du.cell, ru.id, prb_offset, std::move(layers));
  // The DU addresses MacAddr::ru(du_index); point it at the real RU.
  // (Direct wire: addressing is checked by the RU only via eth parse.)
}

int Deployment::prb_offset_in_ru(const CellConfig& du_cell, const RuSite& ru) {
  const int ru_prbs = prbs_for_bandwidth(ru.bandwidth, Scs::kHz30);
  const Hertz ru_prb0 = ru.center_freq - 12 * scs_hz(Scs::kHz30) * ru_prbs / 2;
  return int((du_cell.prb0_freq() - ru_prb0) / (12 * scs_hz(Scs::kHz30)));
}

MiddleboxRuntime& Deployment::add_runtime(std::unique_ptr<MiddleboxApp> app,
                                          const char* kind,
                                          const FhContext& fh,
                                          DriverKind driver, int workers) {
  MiddleboxRuntime::Config rc;
  rc.name = name_prefix + kind + std::to_string(runtimes.size());
  rc.cell = cell_label;
  rc.fh = fh;
  rc.driver = driver;
  rc.n_workers = workers;
  apps.push_back(std::move(app));
  runtimes.push_back(std::make_unique<MiddleboxRuntime>(rc, *apps.back()));
  engine.add_middlebox(*runtimes.back());
  return *runtimes.back();
}

std::vector<Deployment::FabricMember> Deployment::ru_members(
    const std::vector<RuHandle*>& rus) {
  std::vector<FabricMember> out;
  for (auto* r : rus)
    out.push_back({"ru" + std::to_string(r->index), r->port, r->mac});
  return out;
}

Port& Deployment::add_fabric(MiddleboxRuntime& rt,
                             const std::vector<MacAddr>& north_macs,
                             const std::vector<FabricMember>& members) {
  Port& north = new_port(rt.config().name + ".north");
  Port& south = new_port(rt.config().name + ".south");
  rt.add_port("north", north);  // index 0: DasMiddlebox/DmimoMiddlebox::kNorth
  rt.add_port("south", south);

  EmbeddedSwitch& sw = new_switch(rt.config().name + ".fabric");
  Port& sw_mb = sw.add_port("mb");
  Port::connect(south, sw_mb, 500);
  for (const MacAddr& mac : north_macs) sw.add_static_entry(mac, sw_mb);
  for (const FabricMember& m : members) {
    Port& sw_port = sw.add_port(m.name);
    Port::connect(*m.port, sw_port, 500);
    sw.add_static_entry(m.mac, sw_port);
  }
  return north;
}

MiddleboxRuntime& Deployment::add_das(DuHandle& du,
                                      const std::vector<RuHandle*>& ru_list,
                                      DriverKind driver, int workers) {
  DasConfig cfg;
  cfg.du_mac = du.du->config().du_mac;
  for (auto* r : ru_list) cfg.ru_macs.push_back(r->mac);
  MiddleboxRuntime& rt = add_runtime(std::make_unique<DasMiddlebox>(cfg),
                                     "das", du.du->fh(), driver, workers);
  Port::connect(*du.port, add_fabric(rt, {cfg.du_mac}, ru_members(ru_list)),
                1'000);
  for (auto* r : ru_list) air.assign_ru(du.cell, r->id, /*prb_offset=*/0);
  return rt;
}

MiddleboxRuntime& Deployment::add_dmimo_stage(
    DuHandle& du, const std::vector<RuHandle*>& ru_list, DriverKind driver,
    bool copy_ssb) {
  DmimoConfig cfg;
  cfg.du_mac = du.du->config().du_mac;
  cfg.copy_ssb = copy_ssb;
  const auto& ssb = du.du->config().cell.ssb;
  cfg.ssb_start_prb = ssb.start_prb;
  cfg.ssb_n_prb = ssb.n_prb;
  cfg.ssb_period_slots = ssb.period_slots;
  cfg.ssb_first_symbol = ssb.first_symbol;
  cfg.ssb_n_symbols = ssb.n_symbols;
  int base = 0;
  for (auto* r : ru_list) {
    const int ants = air.ru(r->id).n_antennas;
    cfg.rus.push_back({r->mac, ants});
    std::vector<LayerMap> layers;
    for (int a = 0; a < ants && base + a < du.du->config().cell.max_layers;
         ++a)
      layers.push_back({base + a, a});
    air.assign_ru(du.cell, r->id, 0, std::move(layers));
    base += ants;
  }
  MiddleboxRuntime& rt = add_runtime(std::make_unique<DmimoMiddlebox>(cfg),
                                     "dmimo", du.du->fh(), driver);
  add_fabric(rt, {cfg.du_mac}, ru_members(ru_list));
  return rt;
}

MiddleboxRuntime& Deployment::add_dmimo(DuHandle& du,
                                        const std::vector<RuHandle*>& ru_list,
                                        DriverKind driver, bool copy_ssb) {
  MiddleboxRuntime& rt = add_dmimo_stage(du, ru_list, driver, copy_ssb);
  Port::connect(*du.port, rt.port(DmimoMiddlebox::kNorth), 1'000);
  return rt;
}

Deployment::DasChain Deployment::add_das(
    DuHandle& du, const std::vector<std::vector<RuHandle*>>& groups) {
  // The DAS addresses each group by its first RU's MAC, the source its
  // dMIMO stage gives every UL frame it forwards north. It gets two merge
  // workers: Figure 14's five branches exceed one core's merge budget.
  DasChain chain;
  DasConfig cfg;
  cfg.du_mac = du.du->config().du_mac;
  for (const auto& g : groups) cfg.ru_macs.push_back(g.front()->mac);
  chain.das = &add_runtime(std::make_unique<DasMiddlebox>(cfg), "das",
                           du.du->fh(), DriverKind::Dpdk, /*workers=*/2);
  std::vector<FabricMember> stages;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    MiddleboxRuntime& rt =
        add_dmimo_stage(du, groups[i], DriverKind::Dpdk, /*copy_ssb=*/true);
    chain.dmimo.push_back(&rt);
    stages.push_back({rt.config().name, &rt.port(DmimoMiddlebox::kNorth),
                      cfg.ru_macs[i]});
  }
  Port::connect(*du.port, add_fabric(*chain.das, {cfg.du_mac}, stages),
                1'000);
  return chain;
}

MiddleboxRuntime& Deployment::add_share_stage(
    const std::vector<ShareTenant>& tenants,
    const std::vector<RuHandle*>& rus, DriverKind driver, int shift_sc) {
  RuShareConfig cfg;
  cfg.ru_macs.clear();
  for (auto* r : rus) cfg.ru_macs.push_back(r->mac);
  const RuSite& site = air.ru(rus.front()->id);
  cfg.ru_n_prb = prbs_for_bandwidth(site.bandwidth, Scs::kHz30);
  cfg.ru_center_freq = site.center_freq;
  cfg.shift_sc = shift_sc;
  for (const ShareTenant& t : tenants) {
    const DuConfig& dc = t.du->config();
    ShareDu sd;
    sd.mac = dc.du_mac;
    sd.du_id = dc.du_id;
    sd.n_prb = dc.cell.n_prb();
    sd.center_freq = dc.cell.center_freq;
    sd.prb_offset = prb_offset_in_ru(dc.cell, site);
    cfg.dus.push_back(sd);
    for (auto* r : rus) air.assign_ru(t.cell, r->id, sd.prb_offset);
  }
  // South-side framing: the RU's carrier defines numPrbu==0 semantics.
  FhContext fh = tenants.front().du->fh();
  fh.carrier_prbs = cfg.ru_n_prb;
  MiddleboxRuntime& rt = add_runtime(std::make_unique<RuShareMiddlebox>(cfg),
                                     "rushare", fh, driver);
  Port& south = new_port(rt.config().name + ".south");
  rt.add_port("south", south);  // index 0 == RuShareMiddlebox::kSouth
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    Port& north = new_port(rt.config().name + ".north" + std::to_string(i));
    // Each DU link is parsed with that DU's own carrier provisioning.
    rt.add_port("north" + std::to_string(i), north, tenants[i].du->fh());
    Port::connect(*tenants[i].port, north, tenants[i].latency_ns);
  }
  return rt;
}

MiddleboxRuntime& Deployment::add_rushare(
    const std::vector<ShareTenant>& tenants, RuHandle& ru, DriverKind driver,
    int shift_sc) {
  MiddleboxRuntime& rt = add_share_stage(tenants, {&ru}, driver, shift_sc);
  Port::connect(rt.port(RuShareMiddlebox::kSouth), *ru.port, 1'000);
  return rt;
}

Deployment::ShareChain Deployment::add_rushare(
    const std::vector<ShareTenant>& tenants,
    const std::vector<RuHandle*>& rus) {
  MiddleboxRuntime& share =
      add_share_stage(tenants, rus, DriverKind::Dpdk, 0);
  // The DAS stage carries the shared RU grid, framed like the share's
  // south side. Its fabric sends every tenant's UL north to the share,
  // which re-addresses each tenant's slice. It gets two merge workers: on
  // one, a symbol's per-antenna-port merges queue behind each other and,
  // after the share's demux and the extra hop, the last port reaches the
  // DU past its reception window, which fails every UL slot.
  std::vector<MacAddr> tenant_macs;
  for (const ShareTenant& t : tenants)
    tenant_macs.push_back(t.du->config().du_mac);
  DasConfig cfg;
  cfg.du_mac = tenant_macs.front();
  for (auto* r : rus) cfg.ru_macs.push_back(r->mac);
  MiddleboxRuntime& das = add_runtime(std::make_unique<DasMiddlebox>(cfg),
                                      "das", share.config().fh,
                                      DriverKind::Dpdk, /*workers=*/2);
  Port::connect(share.port(RuShareMiddlebox::kSouth),
                add_fabric(das, tenant_macs, ru_members(rus)), kHopLatencyNs);
  return {&share, &das};
}

MiddleboxRuntime& Deployment::add_prbmon(DuHandle& du, RuHandle& ru,
                                         DriverKind driver) {
  PrbMonConfig cfg;
  cfg.n_prb = du.du->config().cell.n_prb();
  MiddleboxRuntime& rt = add_runtime(
      std::make_unique<PrbMonitorMiddlebox>(cfg), "prbmon", du.du->fh(),
      driver);
  Port& north = new_port(rt.config().name + ".north");
  Port& south = new_port(rt.config().name + ".south");
  rt.add_port("north", north);
  rt.add_port("south", south);
  Port::connect(*du.port, north, 1'000);
  Port::connect(south, *ru.port, 1'000);
  air.assign_ru(du.cell, ru.id, 0);
  return rt;
}

MiddleboxRuntime& Deployment::add_failover(DuHandle& primary,
                                           DuHandle& standby, RuHandle& ru,
                                           DriverKind driver) {
  FailoverConfig cfg;
  cfg.ru_mac = ru.mac;
  cfg.primary_du_mac = primary.du->config().du_mac;
  cfg.standby_du_mac = standby.du->config().du_mac;
  MiddleboxRuntime& rt = add_runtime(std::make_unique<FailoverMiddlebox>(cfg),
                                     "failover", primary.du->fh(), driver);
  Port& south = new_port(rt.config().name + ".south");
  Port& n_pri = new_port(rt.config().name + ".primary");
  Port& n_sby = new_port(rt.config().name + ".standby");
  rt.add_port("south", south);     // FailoverMiddlebox::kSouth
  rt.add_port("primary", n_pri);   // kPrimary
  rt.add_port("standby", n_sby);   // kStandby
  Port::connect(south, *ru.port, 1'000);
  Port::connect(*primary.port, n_pri, 1'000);
  Port::connect(*standby.port, n_sby, 1'000);
  // Both cells (same PCI, warm standby) radiate via the same RU.
  air.assign_ru(primary.cell, ru.id, 0);
  air.assign_ru(standby.cell, ru.id, 0);
  return rt;
}

FaultyLink& Deployment::add_fault(Port& near, const FaultPlan& tx_plan,
                                  const FaultPlan& rx_plan, std::string name) {
  Port* peer = near.peer();
  if (!peer) throw std::runtime_error("add_fault: port is not connected");
  if (name.empty())
    name = "fault:" + near.name() + "<->" + peer->name();
  faults.push_back(
      std::make_unique<FaultyLink>(std::move(name), near, *peer, tx_plan,
                                   rx_plan));
  FaultyLink* link = faults.back().get();
  engine.add_begin_slot_hook(
      [link](std::int64_t slot) { link->begin_slot(slot); });
  return *link;
}

std::string Deployment::fault_dump() const {
  std::string out;
  for (const auto& f : faults) out += f->dump();
  return out;
}

ctrl::AdaptationController& Deployment::add_controller(ctrl::CtrlConfig cfg) {
  if (cfg.name == "ctrl")
    cfg.name = name_prefix + "ctrl" + std::to_string(controllers.size());
  controllers.push_back(
      std::make_unique<ctrl::AdaptationController>(std::move(cfg)));
  ctrl::AdaptationController* c = controllers.back().get();
  engine.add_begin_slot_hook([c](std::int64_t slot) { c->on_slot(slot); });
  return *c;
}

int Deployment::ctrl_watch(ctrl::AdaptationController& c, FaultyLink& link,
                           MiddleboxRuntime& rt, RuHandle& ru) {
  ctrl::LinkSpec spec;
  spec.name = link.name();
  spec.ul_stats = &link.stats_ab();
  spec.rt = &rt;
  spec.nominal_iq_width = ru.ru->ul_iq_width();
  RuModel* ru_model = ru.ru;
  const MacAddr mac = ru.mac;
  if (auto* das = dynamic_cast<DasMiddlebox*>(&rt.app())) {
    spec.eject_verb = ctrl::CtrlVerb::SetDasMember;
    spec.actuate = [das, ru_model, mac](const ctrl::CtrlAction& a) {
      switch (a.verb) {
        case ctrl::CtrlVerb::SetUlIqWidth:
          return ru_model->set_ul_iq_width(a.value);
        case ctrl::CtrlVerb::SetDasMember:
          return das->set_member_active(mac, a.enable);
        case ctrl::CtrlVerb::SetDmimoGate:
          return false;
      }
      return false;
    };
  } else if (auto* dmimo = dynamic_cast<DmimoMiddlebox*>(&rt.app())) {
    spec.eject_verb = ctrl::CtrlVerb::SetDmimoGate;
    const int slot_index = dmimo->ru_index_of(mac);
    spec.actuate = [dmimo, ru_model, slot_index](const ctrl::CtrlAction& a) {
      switch (a.verb) {
        case ctrl::CtrlVerb::SetUlIqWidth:
          return ru_model->set_ul_iq_width(a.value);
        case ctrl::CtrlVerb::SetDmimoGate:
          return slot_index >= 0 &&
                 dmimo->set_ru_gated(std::size_t(slot_index), !a.enable);
        case ctrl::CtrlVerb::SetDasMember:
          return false;
      }
      return false;
    };
  } else {
    // Width-only supervision for other middlebox types.
    spec.eject_verb = ctrl::CtrlVerb::SetDasMember;
    spec.actuate = [ru_model](const ctrl::CtrlAction& a) {
      return a.verb == ctrl::CtrlVerb::SetUlIqWidth &&
             ru_model->set_ul_iq_width(a.value);
    };
  }
  return c.add_link(std::move(spec));
}

std::string Deployment::ctrl_dump() const {
  std::string out;
  for (const auto& c : controllers) out += c->dump();
  return out;
}

UeId Deployment::add_ue(const Position& pos, DuHandle* du, double dl_mbps,
                        double ul_mbps, int pci_lock, int max_layers) {
  UeConfig cfg;
  cfg.pos = pos;
  cfg.pci_lock = pci_lock;
  cfg.max_layers = max_layers;
  const UeId ue = air.add_ue(cfg);
  if (du && (dl_mbps > 0 || ul_mbps > 0))
    traffic.set_flow(*du->du, ue, dl_mbps, ul_mbps);
  return ue;
}

void Deployment::measure(int slots) {
  air.reset_counters();
  const std::int64_t t0 = engine.elapsed_ns();
  engine.run_slots(slots);
  measure_window_ns_ = engine.elapsed_ns() - t0;
}

double Deployment::dl_mbps(UeId ue) const {
  if (measure_window_ns_ <= 0) return 0.0;
  return double(air.dl_bits(ue)) * 1000.0 / double(measure_window_ns_);
}

double Deployment::ul_mbps(UeId ue) const {
  if (measure_window_ns_ <= 0) return 0.0;
  return double(air.ul_bits(ue)) * 1000.0 / double(measure_window_ns_);
}

}  // namespace rb
