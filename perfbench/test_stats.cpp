// Self-test of the benchmark's statistics, error accounting and result
// formatting: ctest --test-dir .bench_build
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "stats.h"

namespace rbperf {
namespace {

TEST(Quantile, MedianAndP90OnKnownInputs) {
  const std::vector<double> ten{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(median(ten), 5.5);
  EXPECT_DOUBLE_EQ(quantile(ten, 0.9), 9.1);
  EXPECT_DOUBLE_EQ(quantile(ten, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(ten, 1.0), 10.0);
  const std::vector<double> five{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(median(five), 3.0);
  EXPECT_DOUBLE_EQ(quantile(five, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(median({42.0}), 42.0);
  EXPECT_TRUE(std::isnan(median({})));
}

// Expected values are Python's statistics.quantiles(v, n=4)[0] and [2].
TEST(Quantile, QuartilesMatchPythonExclusiveMethod) {
  auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 8.25);
  q = quartiles({3.0, 1.0});
  EXPECT_DOUBLE_EQ(q[0], 0.5);
  EXPECT_DOUBLE_EQ(q[1], 3.5);
  q = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(q[0], 1.5);
  EXPECT_DOUBLE_EQ(q[1], 4.5);
  q = quartiles({2.5, 9.0, 4.0, 7.5});
  EXPECT_DOUBLE_EQ(q[0], 2.875);
  EXPECT_DOUBLE_EQ(q[1], 8.625);
  EXPECT_TRUE(std::isnan(quartiles({1.0})[0]));
}

TEST(Chunks, SustainedIsWhatThreeQuartersOfTheChunksMatch) {
  // Four chunks of five slots. Slot times (us) and chunk wall times make
  // rates of 10k, 5k, 8k and 4k slots/s.
  const std::vector<double> us{1, 1, 1, 1, 1,   //
                               2, 2, 2, 2, 10,  //
                               1, 1, 2, 2, 3,   //
                               3, 3, 3, 3, 20};
  const std::vector<Chunk> c{{0, 5, 0.5e6}, {5, 5, 1e6}, {10, 5, 0.625e6},
                             {15, 5, 1.25e6}};
  const Sustained s = sustained(us, c);
  // Rates sorted 4k 5k 8k 10k: the 25th percentile is 4k + 0.75 * 1k.
  EXPECT_DOUBLE_EQ(s.slots_per_s, 4750.0);
  // Per-chunk p50s 1 2 2 3: 75th percentile 2 + 0.25 * 1.
  EXPECT_DOUBLE_EQ(s.wall_p50_us, 2.25);
  // Per-chunk p90s 1, 6.8, 2.6, 13.2, sorted 1 2.6 6.8 13.2.
  EXPECT_DOUBLE_EQ(s.wall_p90_us, 6.8 + 0.25 * (13.2 - 6.8));
  // Empty and out-of-range chunks are skipped.
  EXPECT_DOUBLE_EQ(sustained(us, {{0, 5, 0.5e6}, {0, 0, 1e6}, {18, 5, 1e6}})
                       .slots_per_s,
                   10'000.0);
  EXPECT_TRUE(std::isnan(sustained(us, {}).slots_per_s));
}

TEST(ErrorShare, CountsEveryErrorReasonAgainstFramesReceived) {
  rb::DuStats du;
  du.uplane_rx = 100;
  du.uplane_tx = 999;  // sent, not received
  du.late_drops = 1;
  du.parse_errors = 2;
  du.pool_exhausted = 3;
  du.ul_decode_fail = 50;  // a radio outcome, not a dropped frame
  const FrameCounts d = du_frames(du);
  EXPECT_EQ(d.received, 100u);
  EXPECT_EQ(d.errors, 6u);

  rb::RuStats ru;
  ru.cplane_rx = 40;
  ru.uplane_rx = 60;
  ru.late_drops = 1;
  ru.parse_errors = 1;
  ru.unexpected_port_drops = 2;
  ru.pool_exhausted = 1;
  ru.uplane_without_cplane = 7;  // clipped spectrum, frame still used
  const FrameCounts r = ru_frames(ru);
  EXPECT_EQ(r.received, 100u);
  EXPECT_EQ(r.errors, 5u);

  const FrameCounts m = runtime_frames({{"cplane_rx", 30},
                                        {"uplane_rx", 60},
                                        {"non_fh_rx", 10},
                                        {"pkts_forwarded", 500},
                                        {"replicate_failures", 2},
                                        {"pool_exhausted", 1},
                                        {"parse_reject_none", 90},
                                        {"parse_reject_truncated", 3},
                                        {"parse_reject_bad_ecpri", 4}});
  EXPECT_EQ(m.received, 100u);
  EXPECT_EQ(m.errors, 10u);

  FrameCounts all;
  all += d;
  all += r;
  all += m;
  EXPECT_EQ(all.received, 300u);
  EXPECT_EQ(all.errors, 21u);
  EXPECT_DOUBLE_EQ(all.error_share(), 21.0 / 300.0);

  const FrameCounts window = all - FrameCounts{100, 21};
  EXPECT_DOUBLE_EQ(window.error_share(), 0.0);
  EXPECT_DOUBLE_EQ(FrameCounts{}.error_share(), 0.0);
}

TEST(Output, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(2000.0), "2000");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(std::strtod(json_number(1234.5678901234567).c_str(), nullptr),
            1234.5678901234567);
  EXPECT_EQ(json_number(NAN), "null");
}

TEST(Output, ResultLineHasExactlyTheContractKeys) {
  const std::string s = result_json(
      true, 1000, 0,
      {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
  EXPECT_EQ(s,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  EXPECT_FALSE(all_finite({{"x", NAN, "s"}}));
  EXPECT_TRUE(all_finite({{"x", 0.0, "s"}}));
}

}  // namespace
}  // namespace rbperf
