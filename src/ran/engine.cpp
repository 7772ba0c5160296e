#include "ran/engine.h"

#include "obs/obs.h"

namespace rb {

void SlotEngine::run_one_slot() {
  const std::int64_t slot = clock_.total_slots();
  const std::int64_t t0 = clock_.elapsed_ns();
  for (auto& h : pre_hooks_) h(slot, t0);
  if (!external_obs_) obs::slot_spans(slot, t0, slot_duration_ns(clock_.scs()));

  air_->begin_slot(slot);
  if (traffic_) traffic_(slot);
  for (auto& h : begin_hooks_) h(slot);
  for (auto* mb : mbs_) mb->begin_slot(slot);

  for (auto* du : dus_) du->begin_slot(slot, t0);

  auto pump_all = [&] {
    for (int pass = 0; pass < 8; ++pass) {
      bool moved = false;
      for (auto* mb : mbs_) moved = mb->pump(slot, t0) || moved;
      if (!moved) break;
    }
  };
  pump_all();

  for (auto* ru : rus_) ru->process_dl(slot, t0);
  air_->resolve_dl(slot);
  for (auto* ru : rus_) ru->emit_ul(slot, t0);
  pump_all();
  for (auto* du : dus_) du->process_rx(slot, t0);

  if (!external_obs_ && obs::enabled())
    obs::Collector::instance().commit_slot(slot, t0,
                                           slot_duration_ns(clock_.scs()));
  for (auto& h : end_hooks_) h(slot);

  clock_.advance_slot();
  // advance_slot() is a no-op at symbol 0 of a fresh slot boundary; make
  // sure we always move exactly one slot forward.
  if (clock_.total_slots() == slot) {
    for (int i = 0; i < kSymbolsPerSlot; ++i) clock_.advance_symbol();
  }
}

void SlotEngine::run_slots(int n) {
  for (int i = 0; i < n; ++i) run_one_slot();
}

void SlotEngine::run_ms(double ms) {
  const std::int64_t target =
      clock_.elapsed_ns() + std::int64_t(ms * 1'000'000.0);
  while (clock_.elapsed_ns() < target) run_one_slot();
}

bool SlotEngine::run_until_attached(int max_slots) {
  for (int i = 0; i < max_slots; ++i) {
    bool all = true;
    for (UeId ue = 0; ue < UeId(air_->num_ues()); ++ue)
      all = all && air_->is_attached(ue);
    if (all) return true;
    run_one_slot();
  }
  bool all = true;
  for (UeId ue = 0; ue < UeId(air_->num_ues()); ++ue)
    all = all && air_->is_attached(ue);
  return all;
}

}  // namespace rb
