/**
 * @file
 * Tests for the deterministic RNG and Zipfian sampler.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "common/random.hh"
#include "common/worker_pool.hh"

using namespace mcsim;

TEST(Pcg32, DeterministicAcrossInstances)
{
    Pcg32 a(42, 7), b(42, 7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.nextU32(), b.nextU32());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.nextU32() == b.nextU32();
    EXPECT_LT(same, 5);
}

TEST(Pcg32, BelowRespectsBound)
{
    Pcg32 rng(123);
    for (std::uint32_t bound : {1u, 2u, 7u, 100u, 1u << 30}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.below(bound), bound);
    }
}

TEST(Pcg32, Below64RespectsBound)
{
    Pcg32 rng(321);
    for (std::uint64_t bound :
         {1ull, 3ull, 1ull << 33, (1ull << 40) + 12345}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.below64(bound), bound);
    }
}

TEST(Pcg32, DoubleInUnitInterval)
{
    Pcg32 rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(Pcg32, ChanceExtremes)
{
    Pcg32 rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Pcg32, BelowIsRoughlyUniform)
{
    Pcg32 rng(77);
    constexpr int kBuckets = 8;
    constexpr int kSamples = 80000;
    std::vector<int> counts(kBuckets, 0);
    for (int i = 0; i < kSamples; ++i)
        ++counts[rng.below(kBuckets)];
    for (int c : counts) {
        EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
    }
}

TEST(Zipfian, UniformWhenThetaZero)
{
    ZipfianGenerator zipf(16, 0.0);
    Pcg32 rng(4);
    std::vector<int> counts(16, 0);
    for (int i = 0; i < 64000; ++i)
        ++counts[zipf.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 4000, 600);
}

TEST(Zipfian, HotItemDominatesWithHighTheta)
{
    ZipfianGenerator zipf(1024, 0.99);
    Pcg32 rng(4);
    std::vector<int> counts(1024, 0);
    constexpr int kSamples = 50000;
    for (int i = 0; i < kSamples; ++i)
        ++counts[zipf.sample(rng)];
    // Item 0 is the hottest and far above the uniform share.
    EXPECT_GT(counts[0], kSamples / 1024 * 20);
    EXPECT_GT(counts[0], counts[512]);
}

TEST(Zipfian, SamplesInRange)
{
    for (double theta : {0.0, 0.5, 0.9, 0.99}) {
        ZipfianGenerator zipf(37, theta); // Non-power-of-two n.
        Pcg32 rng(11);
        for (int i = 0; i < 2000; ++i)
            ASSERT_LT(zipf.sample(rng), 37u);
    }
}

TEST(Zipfian, SingleItem)
{
    ZipfianGenerator zipf(1, 0.9);
    Pcg32 rng(2);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
}

/** Property sweep: skew increases head concentration monotonically. */
class ZipfSkew : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfSkew, HeadShareGrowsWithTheta)
{
    const double theta = GetParam();
    ZipfianGenerator zipf(4096, theta);
    ZipfianGenerator flat(4096, 0.0);
    Pcg32 rng(31);
    int zipfHead = 0, flatHead = 0;
    for (int i = 0; i < 20000; ++i) {
        zipfHead += zipf.sample(rng) < 64;
        flatHead += flat.sample(rng) < 64;
    }
    EXPECT_GT(zipfHead, flatHead);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ZipfSkew,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9, 0.99));

/**
 * Golden draws: FNV-1a over the bit pattern of zetan() and the first
 * 10k sample() outputs of each (n, theta) below, recorded from the
 * unmemoized sequential zeta summation. The draws alone would miss a
 * last-ulp change in the normalization, so its bits are hashed too.
 * The mix covers hot/code-sized regions (exact zeta), cold regions past
 * the 2^20 exact prefix (prefix plus integrated tail), and three
 * n > 2^20 sharing theta = 0.25, whose exact prefixes are the same sum.
 * Any change to the summation order or to how the normalization is
 * shared across generators moves a hash.
 */
namespace {

struct ZipfGoldenCase
{
    std::uint64_t n;
    double theta;
    std::uint64_t hash;
};

constexpr std::array<ZipfGoldenCase, 6> kZipfGolden = {{
    {16384, 0.93, 0xea0d00c8b9907765ull},
    {32768, 0.85, 0x0d6e6ad463afb7e3ull},
    {1ull << 24, 0.25, 0x687ae4e92c7b3430ull},
    {1ull << 26, 0.1, 0x32d250bcac6c1b42ull},
    {1ull << 23, 0.25, 0x56b55306aef92541ull},
    {(1ull << 25) + 12345, 0.25, 0x9a4c1451579af164ull},
}};

std::uint64_t
zipfDrawHash(std::uint64_t n, double theta)
{
    const ZipfianGenerator zipf(n, theta);
    Pcg32 rng(2016, 7);
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    const double zetan = zipf.zetan();
    std::uint64_t zetanBits = 0;
    std::memcpy(&zetanBits, &zetan, sizeof zetan);
    mix(zetanBits);
    for (int i = 0; i < 10000; ++i)
        mix(zipf.sample(rng));
    return h;
}

} // namespace

// Defined ahead of the sequential golden test so that, when the whole
// binary runs in one process, the parties construct generators while
// the process-wide normalization memo is still cold.
TEST(ZipfGolden, ConcurrentConstructionMatchesGolden)
{
    constexpr unsigned kParties = 4;
    WorkerPool pool(kParties - 1);
    std::vector<std::vector<std::uint64_t>> got(kParties);
    pool.run(kParties, [&](unsigned party) {
        // Each party starts at a different case so first inserts race
        // on different keys.
        for (std::size_t k = 0; k < kZipfGolden.size(); ++k) {
            const auto &c = kZipfGolden[(k + party) % kZipfGolden.size()];
            got[party].push_back(zipfDrawHash(c.n, c.theta));
        }
    });
    for (unsigned party = 0; party < kParties; ++party) {
        for (std::size_t k = 0; k < kZipfGolden.size(); ++k) {
            const auto &c = kZipfGolden[(k + party) % kZipfGolden.size()];
            EXPECT_EQ(got[party][k], c.hash)
                << "party " << party << " n=" << c.n
                << " theta=" << c.theta;
        }
    }
}

TEST(ZipfGolden, FirstTenThousandDrawsMatch)
{
    for (const auto &c : kZipfGolden) {
        const std::uint64_t h = zipfDrawHash(c.n, c.theta);
        EXPECT_EQ(h, c.hash) << "n=" << c.n << " theta=" << c.theta
                             << std::hex << " hash=0x" << h;
    }
}
