// Hitless-operations bench (ISSUE 7): 100 live reconfigurations over a
// 2000-slot chaos-faulted soak, with a telemetry diff gate proving zero
// UL/DL loss attributable to reconfiguration, and checkpoint/restore
// round-trip cost. Results land in BENCH_reconfig.json.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/state_stats.h"
#include "sim/hitless.h"

namespace rb {
namespace {

constexpr int kFloors = 3;
constexpr int kSoakSlots = 2000;
constexpr int kReconfigs = 100;
constexpr std::uint64_t kSeed = 0x5eed1e55;

struct Rig {
  Deployment d;
  Deployment::DuHandle du;
  std::vector<Deployment::RuHandle> rus;
  MiddleboxRuntime* rt = nullptr;
  std::vector<UeId> ues;

  Rig() {
    du = d.add_du(bench::cell_cfg(MHz(100), bench::kBand78Center, 1),
                  srsran_profile(), 0);
    std::vector<Deployment::RuHandle*> ptrs;
    for (int f = 0; f < kFloors; ++f) {
      rus.push_back(d.add_ru(
          bench::ru_site(d.plan.ru_position(f, 1), 4, MHz(100),
                         bench::kBand78Center),
          std::uint8_t(f), du.du->fh()));
    }
    for (auto& r : rus) ptrs.push_back(&r);
    rt = &d.add_das(du, ptrs, DriverKind::Dpdk, 2);
    for (int f = 0; f < kFloors; ++f)
      ues.push_back(d.add_ue(d.plan.near_ru(f, 1, 5.0), &du, 150.0, 15.0));

    FaultPlan ul0;
    ul0.loss = 0.01;
    ul0.jitter_ns = 20000;
    ul0.seed = kSeed ^ 0xa1;
    FaultPlan dl0;
    dl0.delay_ns = 10000;
    dl0.seed = kSeed ^ 0xa2;
    d.add_fault(*rus[0].port, ul0, dl0);
    FaultPlan ul1;
    ul1.ge_enter_bad = 0.004;
    ul1.ge_exit_bad = 0.25;
    ul1.ge_loss_bad = 0.5;
    ul1.reorder = 0.01;
    ul1.seed = kSeed ^ 0xb1;
    FaultPlan dl1;
    dl1.duplicate = 0.02;
    dl1.corrupt = 0.01;
    dl1.seed = kSeed ^ 0xb2;
    d.add_fault(*rus[1].port, ul1, dl1);
  }
};

/// Determinism fingerprint: runtime counters + fault counters + UE bits.
std::string fingerprint(Rig& r) {
  std::ostringstream os;
  for (const auto& rt : r.d.runtimes)
    for (const auto& [k, v] : rt->telemetry().counters())
      os << k << "=" << v << "\n";
  os << r.d.fault_dump();
  for (UeId ue : r.ues)
    os << "ue" << ue << " dl=" << r.d.air.dl_bits(ue)
       << " ul=" << r.d.air.ul_bits(ue) << "\n";
  return os.str();
}

struct SoakResult {
  std::string fp;
  double dl_mbits = 0, ul_mbits = 0;
  std::uint64_t rx_dropped = 0;
  std::uint64_t stalls = 0;
  std::uint64_t applied = 0;
};

/// One 2000-slot chaos soak. With reconfig enabled, every 20th slot
/// barrier applies an eject+readmit pair on a rotating DAS member - a
/// net-no-op batch, so the run must be byte-identical to the plain soak:
/// any packet dropped, delayed or re-ordered by the act of reconfiguring
/// would show up in the fingerprint diff.
SoakResult soak(bool reconfig) {
  Rig rig;
  if (!rig.d.attach_all(600)) {
    std::fprintf(stderr, "attach failed\n");
    std::exit(2);
  }
  ReconfigManager mgr(rig.d);
  int batches = 0;
  for (int s = 0; s < kSoakSlots; s += 20) {
    if (reconfig && batches < kReconfigs) {
      ReconfigOp op;
      op.kind = ReconfigOp::Kind::DasSetMember;
      op.index = 0;
      op.mac = rig.rus[std::size_t(batches % kFloors)].mac;
      op.enable = false;
      mgr.queue(op);
      op.enable = true;
      mgr.queue(op);
      ++batches;
    }
    rig.d.engine.run_slots(20);
  }
  SoakResult res;
  res.fp = fingerprint(rig);
  for (UeId ue : rig.ues) {
    res.dl_mbits += double(rig.d.air.dl_bits(ue)) / 1e6;
    res.ul_mbits += double(rig.d.air.ul_bits(ue)) / 1e6;
  }
  for (const auto& p : rig.d.ports) res.rx_dropped += p->stats().rx_dropped;
  res.stalls = rig.rt->telemetry().counter("das_combiner_stalls");
  res.applied = mgr.applied();
  return res;
}

}  // namespace
}  // namespace rb

int main() {
  using namespace rb;
  bench::header("Hitless live reconfiguration: 100 reconfigs / 2000-slot "
                "chaos soak",
                "ISSUE 7 (robustness beyond the paper)");

  bench::row("%-26s %12s %12s %10s %8s %8s", "run", "dl_mbits", "ul_mbits",
             "reconfigs", "dropped", "stalls");
  const auto line = [](const char* label, const SoakResult& r) {
    bench::row("%-26s %12.2f %12.2f %10llu %8llu %8llu", label, r.dl_mbits,
               r.ul_mbits, static_cast<unsigned long long>(r.applied),
               static_cast<unsigned long long>(r.rx_dropped),
               static_cast<unsigned long long>(r.stalls));
  };

  const SoakResult base = soak(false);
  line("baseline", base);
  const SoakResult rec = soak(true);
  line("+100 reconfigs", rec);

  // Gates. The fingerprint equality is the telemetry diff: every counter,
  // fault statistic and UE bit count identical means zero UL/DL loss
  // attributable to reconfiguration.
  const bool gate_diff = rec.fp == base.fp;
  const bool gate_count = rec.applied == 2 * kReconfigs;
  const bool gate_clean = rec.rx_dropped == 0 && rec.stalls == 0;

  // Checkpoint/restore round-trip cost on the same rig shape.
  Rig ck;
  (void)ck.d.attach_all(600);
  ck.d.engine.run_slots(200);
  const auto blob = checkpoint(ck.d);
  Rig ck2;
  const RestoreResult rres = restore(ck2.d, blob);
  const bool gate_restore = rres.ok();

  const std::uint64_t wall_last = statestats::reconfig_wall_ns_last().load();
  const std::uint64_t wall_hwm = statestats::reconfig_wall_ns_hwm().load();

  bench::row("");
  bench::row("telemetry diff vs baseline: %s",
             gate_diff ? "IDENTICAL (zero loss from reconfig)" : "DIVERGED");
  bench::row("ops applied: %llu (want %d), dropped=%llu stalls=%llu: %s",
             static_cast<unsigned long long>(rec.applied), 2 * kReconfigs,
             static_cast<unsigned long long>(rec.rx_dropped),
             static_cast<unsigned long long>(rec.stalls),
             gate_count && gate_clean ? "PASS" : "FAIL");
  bench::row("barrier apply wall: last %llu ns, hwm %llu ns",
             static_cast<unsigned long long>(wall_last),
             static_cast<unsigned long long>(wall_hwm));
  bench::row("checkpoint: %zu bytes, restore: %s", blob.size(),
             gate_restore ? "ok" : state::error_name(rres.error));

  const bool gate = gate_diff && gate_count && gate_clean && gate_restore;
  std::FILE* f = std::fopen("BENCH_reconfig.json", "w");
  if (f) {
    std::fprintf(
        f,
        "{\n  \"soak_slots\": %d,\n  \"reconfig_batches\": %d,\n"
        "  \"ops_applied\": %llu,\n  \"baseline_dl_mbits\": %.2f,\n"
        "  \"baseline_ul_mbits\": %.2f,\n  \"reconfig_dl_mbits\": %.2f,\n"
        "  \"reconfig_ul_mbits\": %.2f,\n  \"telemetry_identical\": %s,\n"
        "  \"rx_dropped\": %llu,\n"
        "  \"combiner_stalls\": %llu,\n  \"apply_wall_ns_hwm\": %llu,\n"
        "  \"checkpoint_bytes\": %zu,\n  \"restore_ok\": %s,\n"
        "  \"gate_zero_loss\": %s\n}\n",
        kSoakSlots, kReconfigs,
        static_cast<unsigned long long>(rec.applied), base.dl_mbits,
        base.ul_mbits, rec.dl_mbits, rec.ul_mbits,
        gate_diff ? "true" : "false",
        static_cast<unsigned long long>(rec.rx_dropped),
        static_cast<unsigned long long>(rec.stalls),
        static_cast<unsigned long long>(wall_hwm), blob.size(),
        gate_restore ? "true" : "false", gate ? "true" : "false");
    std::fclose(f);
    bench::row("wrote BENCH_reconfig.json");
  }
  return gate ? 0 : 1;
}
