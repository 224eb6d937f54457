#include "random.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

namespace mcsim {

namespace {

/**
 * Sum of 1/i^theta over i in [1, count], in index order, memoized per
 * process by (count, theta's bit pattern). Every System builds its own
 * generators, and cold regions of any size share the one 2^20-term
 * prefix for their theta, so a sweep sums each prefix once. The sum is
 * a pure function of the key: a race computes it twice outside the
 * lock, the first insert wins and both values are identical.
 */
double
zetaPrefix(std::uint64_t count, double theta)
{
    using Key = std::pair<std::uint64_t, std::uint64_t>;
    static std::mutex mu;
    static std::map<Key, double> memo;

    Key key{count, 0};
    std::memcpy(&key.second, &theta, sizeof theta);
    {
        const std::lock_guard<std::mutex> lock(mu);
        const auto it = memo.find(key);
        if (it != memo.end())
            return it->second;
    }
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= count; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    const std::lock_guard<std::mutex> lock(mu);
    return memo.emplace(key, sum).first->second;
}

} // namespace

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    mc_assert(n >= 1, "Zipfian needs at least one item");
    mc_assert(theta >= 0.0 && theta < 1.0,
              "Zipfian theta must be in [0,1), got ", theta);
    halfPowTheta_ = std::pow(0.5, theta_);
    if (theta_ == 0.0) {
        alpha_ = zetan_ = eta_ = 0.0;
        return;
    }
    zetan_ = zeta(n_, theta_);
    const double zeta2 = zeta(std::min<std::uint64_t>(n_, 2), theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
}

double
ZipfianGenerator::zeta(std::uint64_t n, double theta)
{
    // Exact summation is O(n); cap the exact prefix and integrate the
    // tail, which is accurate to well under 0.1% for the sizes we use.
    constexpr std::uint64_t kExactPrefix = 1u << 20;
    const std::uint64_t exact = std::min(n, kExactPrefix);
    double sum = zetaPrefix(exact, theta);
    if (n > exact) {
        // Integral of x^-theta from exact to n.
        const double a = static_cast<double>(exact);
        const double b = static_cast<double>(n);
        sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
               (1.0 - theta);
    }
    return sum;
}

std::uint64_t
ZipfianGenerator::sample(Pcg32 &rng) const
{
    if (n_ == 1)
        return 0;
    if (theta_ == 0.0)
        return rng.below64(n_);
    const double u = rng.nextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + halfPowTheta_)
        return 1;
    const auto idx = static_cast<std::uint64_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(idx, n_ - 1);
}

} // namespace mcsim
