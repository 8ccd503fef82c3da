// Tests of the benchmark's own helpers: the percentile rule, the
// max_qps_slo ladder selection, post-hoc time-to-target and the span
// self-time breakdown.
#include <gtest/gtest.h>

#include "metrics.h"
#include "trace.h"

using namespace perfbench;

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 50), 50);
    EXPECT_EQ(percentile(v, 99), 99);
    EXPECT_EQ(percentile(v, 100), 100);
    EXPECT_EQ(percentile({7.0}, 99), 7.0);
    EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(Percentile, MissesSortLast)
{
    std::vector<double> v(98, 1.0);
    v.push_back(kMissed);
    v.push_back(kMissed);
    EXPECT_EQ(percentile(v, 98), 1.0);
    EXPECT_EQ(percentile(v, 99), kMissed);
}

TEST(SupportedPercentile, TenSamplesBeyond)
{
    EXPECT_EQ(supported_percentile(0), 0.0);
    EXPECT_EQ(supported_percentile(19), 0.0);
    EXPECT_EQ(supported_percentile(20), 50.0);
    EXPECT_EQ(supported_percentile(99), 50.0);
    EXPECT_EQ(supported_percentile(100), 90.0);
    EXPECT_EQ(supported_percentile(200), 95.0);
    EXPECT_EQ(supported_percentile(999), 95.0);
    EXPECT_EQ(supported_percentile(1000), 99.0);
    EXPECT_EQ(supported_percentile(9999), 99.0);
    EXPECT_EQ(supported_percentile(10000), 99.9);
    EXPECT_EQ(tail_percentile(std::vector<double>(5)), 50.0);
    EXPECT_EQ(tail_percentile(std::vector<double>(1000)), 99.0);
}

TEST(WindowPercentiles, PerWindowAndPartialDropped)
{
    std::vector<double> v;
    for (int i = 1; i <= 25; ++i)
        v.push_back(i);
    EXPECT_EQ(window_percentiles(v, 10, 50), (std::vector<double>{5, 15}));
    EXPECT_EQ(window_percentiles(v, 10, 100), (std::vector<double>{10, 20}));
    EXPECT_TRUE(window_percentiles(v, 30, 50).empty());
    EXPECT_TRUE(window_percentiles(v, 0, 50).empty());
}

TEST(Ladder, HighestContiguousPassingRate)
{
    const std::vector<Rung> ladder = {
        {1000, 2.0, false}, {4000, 3.0, false}, {8000, 12.0, false}};
    EXPECT_EQ(max_rung_meeting_slo(ladder, 10.0), 1);
    EXPECT_EQ(max_rung_meeting_slo(ladder, 20.0), 2);
    EXPECT_EQ(max_rung_meeting_slo(ladder, 1.0), -1);
}

TEST(Ladder, OrderIndependentAndStopsAtFirstFailure)
{
    // A higher rate that happens to pass after a failing one does not
    // count: the rate must be sustainable all the way up.
    const std::vector<Rung> ladder = {
        {8000, 2.0, false}, {1000, 1.0, false}, {4000, 50.0, false}};
    EXPECT_EQ(max_rung_meeting_slo(ladder, 10.0), 1);
}

TEST(Ladder, GrowingBacklogFails)
{
    const std::vector<Rung> ladder = {{1000, 1.0, false}, {4000, 1.0, true}};
    EXPECT_EQ(max_rung_meeting_slo(ladder, 10.0), 0);
    EXPECT_EQ(max_rung_meeting_slo({{1000, kMissed, false}}, 10.0), -1);
}

TEST(Ladder, BacklogGrowthDetection)
{
    std::vector<double> steady(100, 1.0);
    EXPECT_FALSE(backlog_grew(steady, 5.0));
    std::vector<double> rising;
    for (int i = 0; i < 100; ++i)
        rising.push_back(i * 0.5);
    EXPECT_TRUE(backlog_grew(rising, 5.0));
    EXPECT_FALSE(backlog_grew(rising, 100.0));
    EXPECT_FALSE(backlog_grew({}, 5.0));
}

TEST(TimeToTarget, SumsRoundTimesThroughFirstHit)
{
    const std::vector<double> acc = {0.5, 0.7, 0.83, 0.81, 0.9};
    const std::vector<double> t = {10, 20, 30, 40, 50};
    EXPECT_EQ(time_to_target(acc, t, 0.82), 60.0);
    EXPECT_EQ(time_to_target(acc, t, 0.5), 10.0);
    EXPECT_EQ(time_to_target(acc, t, 0.95), -1.0);
    EXPECT_EQ(time_to_target({}, {}, 0.1), -1.0);
}

TEST(Trace, SelfTimeAndCoverage)
{
    using trace::Record;
    // Phase [0, 100): top-level A [0, 60) with children B [10, 30) and
    // C [20, 40) (overlapping), top-level D [70, 90). Residual is 20.
    const std::vector<Record> recs = {
        {"core.a", 0, 60, 1, 0, 0, 0},  {"sim.b", 10, 30, 2, 1, 0, 0},
        {"sim.c", 20, 40, 3, 1, 0, 0},  {"fl.d", 70, 90, 4, 0, 0, 0},
        {"fl.other_thread", 0, 100, 5, 0, 0, 1},
        {"fl.async", 0, 100, 6, 0, 0, 0, true},
    };
    const trace::Breakdown b = trace::breakdown(recs, 0, 0, 100);
    EXPECT_DOUBLE_EQ(b.phase_ns, 100.0);
    EXPECT_DOUBLE_EQ(b.covered_ns, 80.0);
    EXPECT_DOUBLE_EQ(b.coverage(), 0.8);
    EXPECT_DOUBLE_EQ(b.self_ns.at("core"), 30.0);  // 60 - union(10..40)
    EXPECT_DOUBLE_EQ(b.self_ns.at("sim"), 40.0);
    EXPECT_DOUBLE_EQ(b.self_ns.at("fl"), 20.0);
}

TEST(Trace, SpansNestAndDrain)
{
    trace::drain();
    trace::set_enabled(true);
    {
        trace::Span outer("harness.outer", 7);
        trace::Span inner("core.inner", 7);
    }
    trace::set_enabled(false);
    { trace::Span off("core.off"); }
    const auto recs = trace::drain();
    ASSERT_EQ(recs.size(), 2u);
    // Inner closes first.
    EXPECT_STREQ(recs[0].name, "core.inner");
    EXPECT_EQ(recs[0].parent, recs[1].id);
    EXPECT_EQ(recs[1].parent, 0u);
    EXPECT_EQ(recs[0].req, 7u);
    EXPECT_EQ(trace::durations_ms(recs, "core.inner").size(), 1u);
    EXPECT_TRUE(trace::drain().empty());
}
