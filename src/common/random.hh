/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * Every stochastic component in the simulator draws from its own
 * seeded Pcg32 stream so that simulations are bit-reproducible for a
 * given seed regardless of configuration changes elsewhere.
 */

#ifndef CLOUDMC_COMMON_RANDOM_HH
#define CLOUDMC_COMMON_RANDOM_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "log.hh"

namespace mcsim {

/**
 * PCG32 (XSH-RR variant) pseudo-random generator. Small state, good
 * statistical quality, and fully deterministic across platforms.
 */
class Pcg32
{
  public:
    /** Construct from a seed and an optional stream selector. */
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        reseed(seed, stream);
    }

    /** Re-initialize the generator state. */
    void
    reseed(std::uint64_t seed, std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        state_ = 0;
        inc_ = (stream << 1) | 1u;
        nextU32();
        state_ += seed;
        nextU32();
    }

    /** Next raw 32-bit value. */
    std::uint32_t
    nextU32()
    {
        const std::uint64_t old = state_;
        state_ = old * 6364136223846793005ULL + inc_;
        const auto xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        const auto rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31));
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    nextU64()
    {
        return (static_cast<std::uint64_t>(nextU32()) << 32) | nextU32();
    }

    /** Uniform integer in [0, bound) using Lemire rejection. */
    std::uint32_t
    below(std::uint32_t bound)
    {
        mc_assert(bound > 0, "below() requires a positive bound");
        std::uint64_t m = std::uint64_t{nextU32()} * bound;
        auto lo = static_cast<std::uint32_t>(m);
        if (lo < bound) {
            const std::uint32_t threshold = -bound % bound;
            while (lo < threshold) {
                m = std::uint64_t{nextU32()} * bound;
                lo = static_cast<std::uint32_t>(m);
            }
        }
        return static_cast<std::uint32_t>(m >> 32);
    }

    /** Uniform 64-bit integer in [0, bound). */
    std::uint64_t
    below64(std::uint64_t bound)
    {
        mc_assert(bound > 0, "below64() requires a positive bound");
        if (bound <= 0xFFFFFFFFull)
            return below(static_cast<std::uint32_t>(bound));
        // Rejection sampling over the smallest covering power of two.
        const int shift = 64 - __builtin_clzll(bound - 1);
        const std::uint64_t mask =
            shift >= 64 ? ~0ull : ((1ull << shift) - 1);
        std::uint64_t v;
        do {
            v = nextU64() & mask;
        } while (v >= bound);
        return v;
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return (nextU64() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return nextDouble() < p; }

  private:
    std::uint64_t state_ = 0;
    std::uint64_t inc_ = 0;
};

/**
 * Zipfian sampler over [0, n) with skew parameter theta, using the
 * Gray et al. computation popularized by YCSB. Item 0 is the hottest.
 * The O(min(n, 2^20)) normalization prefix is memoized per process, so
 * only the first generator per (prefix length, theta) pays for it;
 * construction is thread-safe.
 */
class ZipfianGenerator
{
  public:
    /**
     * @param n     Number of items (must be >= 1).
     * @param theta Skew in [0, 1); 0.99 is the YCSB default. Larger is
     *              more skewed. theta == 0 degenerates to uniform.
     */
    ZipfianGenerator(std::uint64_t n, double theta);

    /** Draw one item index in [0, n). */
    std::uint64_t sample(Pcg32 &rng) const;

    std::uint64_t numItems() const { return n_; }
    double theta() const { return theta_; }
    /** Normalization constant zeta(n, theta); 0 when theta == 0. */
    double zetan() const { return zetan_; }

  private:
    static double zeta(std::uint64_t n, double theta);

    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
    double halfPowTheta_; ///< pow(0.5, theta), hoisted out of sample().
};

} // namespace mcsim

#endif // CLOUDMC_COMMON_RANDOM_HH
