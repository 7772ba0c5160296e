// Statistics, frame-error accounting and result formatting for rbperf.
//
// Header-only so the self-test (test_stats.cpp) checks exactly the code
// the benchmark runs.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ran/du.h"
#include "ran/ru.h"

namespace rbperf {

/// q-quantile (q in [0, 1]) by linear interpolation between the closest
/// ranks (numpy's default). NaN for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// First and third quartile the way Python's statistics.quantiles(v, n=4)
/// computes them (its default "exclusive" method), which is how repeated
/// benchmark results are compared. Needs at least two values; NaNs
/// otherwise.
inline std::array<double, 2> quartiles(std::vector<double> v) {
  if (v.size() < 2) return {NAN, NAN};
  std::sort(v.begin(), v.end());
  const long ld = long(v.size());
  const long m = ld + 1;
  std::array<double, 2> out{};
  for (long i = 1; i <= 3; i += 2) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[std::size_t(i / 2)] =
        (v[std::size_t(j - 1)] * double(4 - delta) +
         v[std::size_t(j)] * double(delta)) / 4.0;
  }
  return out;
}

/// A stretch of a measured window: its slots and the wall time they took.
struct Chunk {
  std::size_t first_slot = 0;
  std::size_t slots = 0;
  double wall_ns = 0;

  double rate() const { return double(slots) * 1e9 / wall_ns; }
};

/// What a measured window sustains. Each chunk gets its slot rate and the
/// p50 and p90 of its slots' wall times; each figure is then the value
/// three quarters of the chunks match or beat (the 25th percentile of the
/// rates, the 75th of the per-chunk p50s and p90s).
struct Sustained {
  double slots_per_s = NAN;
  double wall_p50_us = NAN;
  double wall_p90_us = NAN;
};

inline Sustained sustained(const std::vector<double>& wall_us,
                           const std::vector<Chunk>& chunks) {
  std::vector<double> rates, p50, p90;
  for (const Chunk& c : chunks) {
    if (c.slots == 0 || c.first_slot + c.slots > wall_us.size()) continue;
    const auto first = wall_us.begin() + long(c.first_slot);
    const std::vector<double> slots(first, first + long(c.slots));
    rates.push_back(c.rate());
    p50.push_back(quantile(slots, 0.5));
    p90.push_back(quantile(slots, 0.9));
  }
  return {quantile(rates, 0.25), quantile(p50, 0.75), quantile(p90, 0.75)};
}

/// Frames received by the fronthaul endpoints and middleboxes of a run,
/// and how many of them were dropped for an error reason.
struct FrameCounts {
  std::uint64_t received = 0;
  std::uint64_t errors = 0;

  /// errors / received; 0 when nothing was received.
  double error_share() const {
    return received == 0 ? 0.0 : double(errors) / double(received);
  }
  FrameCounts operator-(const FrameCounts& o) const {
    return {received - o.received, errors - o.errors};
  }
  FrameCounts& operator+=(const FrameCounts& o) {
    received += o.received;
    errors += o.errors;
    return *this;
  }
};

/// A DU receives UL U-plane; it loses frames late, unparsable or to an
/// exhausted pool.
inline FrameCounts du_frames(const rb::DuStats& s) {
  return {s.uplane_rx, s.late_drops + s.parse_errors + s.pool_exhausted};
}

/// An RU receives C-plane and DL U-plane; it also drops frames for
/// antenna ports it does not have.
inline FrameCounts ru_frames(const rb::RuStats& s) {
  return {s.cplane_rx + s.uplane_rx,
          s.late_drops + s.parse_errors + s.unexpected_port_drops +
              s.pool_exhausted};
}

/// A middlebox runtime, from its name-keyed telemetry counters: frames
/// received of any kind; errors are failed replicas, pool exhaustion and
/// every typed parse reject ("parse_reject_none" is a pseudo-counter of
/// accepted frames, not a reject).
inline FrameCounts runtime_frames(
    const std::map<std::string, std::uint64_t>& counters) {
  const auto get = [&](const char* k) -> std::uint64_t {
    const auto it = counters.find(k);
    return it == counters.end() ? 0 : it->second;
  };
  FrameCounts f;
  f.received = get("cplane_rx") + get("uplane_rx") + get("non_fh_rx");
  f.errors = get("replicate_failures") + get("pool_exhausted");
  for (const auto& [k, v] : counters)
    if (k.rfind("parse_reject_", 0) == 0 && k != "parse_reject_none")
      f.errors += v;
  return f;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every metric value is finite (JSON has no NaN or infinity).
inline bool all_finite(const std::vector<Metric>& ms) {
  return std::all_of(ms.begin(), ms.end(),
                     [](const Metric& m) { return std::isfinite(m.value); });
}

/// Shortest text that reads back as the same double (all its digits).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
/// Names and units are the fixed identifiers of BENCHMARK.json and need
/// no escaping.
inline std::string result_json(bool correct, std::uint64_t attempted,
                               std::uint64_t failed,
                               const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace rbperf
