/**
 * @file
 * Tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "common/table.hh"

using namespace mcsim;

TEST(TimeWeightedStat, ConstantValue)
{
    TimeWeightedStat s;
    s.update(Tick{0}, 5.0);
    EXPECT_DOUBLE_EQ(s.mean(Tick{100}), 5.0);
}

TEST(TimeWeightedStat, StepChange)
{
    TimeWeightedStat s;
    s.update(Tick{0}, 0.0);
    s.update(Tick{50}, 10.0); // 0 for [0,50), 10 for [50,100).
    EXPECT_DOUBLE_EQ(s.mean(Tick{100}), 5.0);
}

TEST(TimeWeightedStat, MeanIsIdempotent)
{
    TimeWeightedStat s;
    s.update(Tick{0}, 2.0);
    s.update(Tick{10}, 4.0);
    const double m1 = s.mean(Tick{20});
    const double m2 = s.mean(Tick{20});
    EXPECT_DOUBLE_EQ(m1, m2);
    EXPECT_DOUBLE_EQ(m1, 3.0);
}

TEST(TimeWeightedStat, ResetRestartsWindow)
{
    TimeWeightedStat s;
    s.update(Tick{0}, 100.0);
    s.reset(Tick{50});
    s.update(Tick{50}, 2.0);
    EXPECT_DOUBLE_EQ(s.mean(Tick{100}), 2.0);
}

TEST(SmallHistogram, BucketsAndOverflow)
{
    SmallHistogram h(4);
    h.sample(0);
    h.sample(1);
    h.sample(1);
    h.sample(3);
    h.sample(9); // Overflow.
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.fractionAt(1), 0.4);
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 1 + 1 + 3 + 9) / 5.0);
}

TEST(SmallHistogram, ResetClears)
{
    SmallHistogram h(4);
    h.sample(2);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.fractionAt(2), 0.0);
}

TEST(LogHistogram, EmptyReportsZero)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LogHistogram, MeanIsExact)
{
    LogHistogram h;
    h.sample(10);
    h.sample(20);
    h.sample(30);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    EXPECT_EQ(h.count(), 3u);
}

TEST(LogHistogram, PercentileBoundsSample)
{
    LogHistogram h;
    for (int i = 0; i < 1000; ++i)
        h.sample(100); // Bucket [64, 128).
    for (double q : {0.01, 0.5, 0.99}) {
        const double p = h.percentile(q);
        EXPECT_GE(p, 64.0);
        EXPECT_LE(p, 128.0);
    }
}

TEST(LogHistogram, TailSeparatesFromBody)
{
    LogHistogram h;
    for (int i = 0; i < 990; ++i)
        h.sample(100);
    for (int i = 0; i < 10; ++i)
        h.sample(100'000); // 1% extreme tail.
    EXPECT_LT(h.percentile(0.50), 200.0);
    EXPECT_GT(h.percentile(0.995), 60'000.0);
}

TEST(LogHistogram, PercentilesAreMonotonic)
{
    LogHistogram h;
    for (std::uint64_t v = 1; v < 4000; v = v * 3 / 2 + 1)
        h.sample(v);
    double prev = 0.0;
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        const double p = h.percentile(q);
        EXPECT_GE(p, prev);
        prev = p;
    }
}

TEST(LogHistogram, MergeCombinesCounts)
{
    LogHistogram a, b;
    for (int i = 0; i < 100; ++i)
        a.sample(10);
    for (int i = 0; i < 100; ++i)
        b.sample(10'000);
    a.merge(b);
    EXPECT_EQ(a.count(), 200u);
    EXPECT_LT(a.percentile(0.25), 20.0);
    EXPECT_GT(a.percentile(0.75), 8'000.0);
}

TEST(LogHistogram, ResetClears)
{
    LogHistogram h;
    h.sample(5);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.9), 0.0);
}

TEST(LogHistogram, TopBucketIsReachableFromSample)
{
    // Regression: the old clamp stopped sample() one bucket short, so
    // only merge() could ever populate the top (saturation) bucket and
    // saturated percentiles under-reported by 2x.
    LogHistogram h{8}; // Top bucket covers [128, inf).
    h.sample(128);
    h.sample(1'000'000);
    EXPECT_EQ(h.count(), 2u);
    for (double q : {0.1, 0.9}) {
        EXPECT_GE(h.percentile(q), 128.0);
        EXPECT_LE(h.percentile(q), 256.0);
    }
}

TEST(LogHistogram, SaturatedPercentileReportsTopBucket)
{
    LogHistogram h{8};
    for (int i = 0; i < 990; ++i)
        h.sample(2); // Bucket [2, 4).
    for (int i = 0; i < 10; ++i)
        h.sample(1u << 20); // Saturates into [128, inf).
    EXPECT_LT(h.percentile(0.5), 4.0);
    EXPECT_GE(h.percentile(0.999), 128.0);
}

TEST(LogHistogram, MergeAndSampleAgreeOnSaturation)
{
    // A big value folded in via merge() from a wider histogram must
    // land where sample() would have put it: the top bucket.
    LogHistogram sampled{8};
    sampled.sample(1u << 20);

    LogHistogram wide{32};
    wide.sample(1u << 20);
    LogHistogram merged{8};
    merged.merge(wide);

    EXPECT_EQ(sampled.count(), merged.count());
    EXPECT_DOUBLE_EQ(sampled.percentile(1.0), merged.percentile(1.0));
    EXPECT_GE(sampled.percentile(1.0), 128.0);
}

TEST(LogHistogram, ZeroLandsInBucketZero)
{
    // Documented behavior: v = 0 shares bucket 0 with v = 1, so the
    // percentile estimate floors at bucket 0's lower edge of 1.
    LogHistogram h{8};
    h.sample(0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.percentile(0.5), 1.0);
    EXPECT_LE(h.percentile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(TextTable, AlignedRender)
{
    TextTable t;
    t.setHeader({"a", "bbbb"});
    t.addRow({"xx", "1"});
    const std::string out = t.render();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("xx"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTable, CsvRender)
{
    TextTable t;
    t.setHeader({"h1", "h2"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.renderCsv(), "h1,h2\n1,2\n");
}

TEST(TextTable, NumFormatting)
{
    EXPECT_EQ(TextTable::num(1.2345, 2), "1.23");
    EXPECT_EQ(TextTable::num(3.0, 0), "3");
}
