// Telemetry interface of a RANBooster middlebox.
//
// Every middlebox exposes named counters/gauges plus a streaming sample
// channel that external applications subscribe to (the paper's PRB monitor
// pushes sub-millisecond utilization samples through this).
//
// Counters and gauges are interned: the hot path touches a dense
// CounterId/GaugeId slot (one array op, no string hashing or map walk per
// packet); the string API remains as a thin wrapper for cold paths,
// management and tests.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_flags.h"
#include "state/serialize.h"

namespace rb {

/// One streamed telemetry sample.
struct TelemetrySample {
  std::int64_t slot = 0;
  std::string key;
  double value = 0.0;
};

class Telemetry {
 public:
  /// Dense handle of an interned counter/gauge. Valid for the lifetime
  /// of this Telemetry instance.
  using CounterId = std::uint32_t;
  using GaugeId = std::uint32_t;

  /// Intern a counter name (idempotent): returns its stable handle.
  CounterId intern(const std::string& name) {
    auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    const CounterId id = CounterId(values_.size());
    index_.emplace(name, id);
    names_.push_back(name);
    values_.push_back(0);
    return id;
  }

  /// Intern a gauge name (idempotent): returns its stable handle.
  GaugeId intern_gauge(const std::string& name) {
    auto it = gauge_index_.find(name);
    if (it != gauge_index_.end()) return it->second;
    const GaugeId id = GaugeId(gauge_values_.size());
    gauge_index_.emplace(name, id);
    gauge_names_.push_back(name);
    gauge_values_.push_back(0.0);
    return id;
  }

  // --- hot path -------------------------------------------------------
  // Out-of-range ids (a handle from a different Telemetry instance) are
  // a caller bug: asserted in debug builds, a checked no-op/zero in
  // release — inc() and counter() deliberately behave symmetrically.
  void inc(CounterId id, std::uint64_t v = 1) {
    assert(id < values_.size() && "CounterId from another instance?");
    if (id >= values_.size()) return;
    values_[std::size_t(id)] += v;
  }
  std::uint64_t counter(CounterId id) const {
    assert(id < values_.size() && "CounterId from another instance?");
    return id < values_.size() ? values_[std::size_t(id)] : 0;
  }
  void set_gauge(GaugeId id, double v) {
    assert(id < gauge_values_.size() && "GaugeId from another instance?");
    if (id >= gauge_values_.size()) return;
    gauge_values_[std::size_t(id)] = v;
  }
  double gauge(GaugeId id) const {
    assert(id < gauge_values_.size() && "GaugeId from another instance?");
    return id < gauge_values_.size() ? gauge_values_[std::size_t(id)] : 0.0;
  }

  // --- string API (thin wrapper over the interned store) --------------
  void inc(const std::string& name, std::uint64_t v = 1) {
    inc(intern(name), v);
  }
  std::uint64_t counter(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? 0 : values_[std::size_t(it->second)];
  }

  void set_gauge(const std::string& name, double v) {
    set_gauge(intern_gauge(name), v);
  }
  double gauge(const std::string& name) const {
    auto it = gauge_index_.find(name);
    return it == gauge_index_.end() ? 0.0
                                    : gauge_values_[std::size_t(it->second)];
  }

  /// Publish a streaming sample to all subscribers. Index-iterated over a
  /// pre-snapshot count so a subscriber that subscribes from inside its
  /// callback neither invalidates the traversal nor receives the sample
  /// being published — it sees subsequent samples only.
  ///
  /// Threading contract: publish() and subscribe() are coordinator-only.
  /// A cell's engine runs serially; under a parallel city conductor each
  /// cell job runs on a pool worker as the coordinator of its own cell
  /// (ShardCoordinatorScope), and no two jobs share a Telemetry. The
  /// callback list is therefore never touched concurrently and needs no
  /// lock.
  void publish(const TelemetrySample& s) {
    assert(!on_exec_worker_thread() &&
           "publish() is coordinator-only; buffer samples until the "
           "slot barrier");
    const std::size_t n = subscribers_.size();
    for (std::size_t i = 0; i < n; ++i) subscribers_[i](s);
  }
  void subscribe(std::function<void(const TelemetrySample&)> cb) {
    assert(!on_exec_worker_thread() &&
           "subscribe() is coordinator-only; register before run or at "
           "the slot barrier");
    subscribers_.push_back(std::move(cb));
  }

  /// Name-sorted snapshot of all counters (management/test view).
  std::map<std::string, std::uint64_t> counters() const {
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = 0; i < names_.size(); ++i) out[names_[i]] = values_[i];
    return out;
  }
  /// Name-sorted snapshot of all gauges (management/test view).
  std::map<std::string, double> gauges() const {
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < gauge_names_.size(); ++i)
      out[gauge_names_[i]] = gauge_values_[i];
    return out;
  }

  /// Render all counters/gauges as "key=value" lines (management dump).
  std::string dump() const;

  /// Checkpoint every counter/gauge as (name, value) pairs in intern
  /// order — deterministic because interning order is code-path driven.
  /// load_state() re-interns by name, so handles held by callers stay
  /// valid and names unknown to the blob keep their zero defaults.
  void save_state(state::StateWriter& w) const;
  void load_state(state::StateReader& r);

 private:
  std::unordered_map<std::string, CounterId> index_;
  std::vector<std::string> names_;
  std::vector<std::uint64_t> values_;
  std::unordered_map<std::string, GaugeId> gauge_index_;
  std::vector<std::string> gauge_names_;
  std::vector<double> gauge_values_;
  std::vector<std::function<void(const TelemetrySample&)>> subscribers_;
};

}  // namespace rb
