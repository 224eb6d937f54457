/**
 * @file
 * Lightweight statistics primitives: time-weighted averages and small
 * histograms. These are deliberately simple — hot-path updates are a
 * handful of adds.
 */

#ifndef CLOUDMC_COMMON_STATS_HH
#define CLOUDMC_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "types.hh"

namespace mcsim {

/**
 * Time-weighted average of a piecewise-constant quantity, e.g. queue
 * occupancy. Call update() whenever the value changes.
 */
class TimeWeightedStat
{
  public:
    /** Record that the tracked value becomes @p value at time @p now. */
    void
    update(Tick now, double value)
    {
        if (now > lastTick_) {
            weightedSum_ +=
                lastValue_ * static_cast<double>((now - lastTick_).count());
            elapsed_ += now - lastTick_;
            lastTick_ = now;
        }
        lastValue_ = value;
    }

    /** Mean over [reset, now], including the in-progress interval. */
    double
    mean(Tick now) const
    {
        double wsum = weightedSum_;
        TickSpan elapsed = elapsed_;
        if (now > lastTick_) {
            wsum +=
                lastValue_ * static_cast<double>((now - lastTick_).count());
            elapsed += now - lastTick_;
        }
        return elapsed.count()
                   ? wsum / static_cast<double>(elapsed.count())
                   : 0.0;
    }

    /** Restart measurement at @p now, keeping the current value. */
    void
    reset(Tick now)
    {
        weightedSum_ = 0.0;
        elapsed_ = TickSpan{0};
        lastTick_ = now;
    }

  private:
    double weightedSum_ = 0.0;
    TickSpan elapsed_;
    Tick lastTick_;
    double lastValue_ = 0.0;
};

/**
 * Fixed-bucket histogram of small non-negative integers with an
 * overflow bucket, used e.g. for the row-activation reuse counts that
 * drive the paper's Figure 8.
 */
class SmallHistogram
{
  public:
    explicit SmallHistogram(std::size_t buckets = 16)
        : buckets_(buckets, 0)
    {
    }

    void
    sample(std::uint64_t v)
    {
        if (v < buckets_.size())
            ++buckets_[v];
        else
            ++overflow_;
        ++count_;
        sum_ += v;
    }

    void
    reset()
    {
        for (auto &b : buckets_)
            b = 0;
        overflow_ = 0;
        count_ = 0;
        sum_ = 0;
    }

    /** Fraction of samples equal to @p v (v must be < bucket count). */
    double
    fractionAt(std::uint64_t v) const
    {
        if (!count_ || v >= buckets_.size())
            return 0.0;
        return static_cast<double>(buckets_[v]) /
               static_cast<double>(count_);
    }

    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t count() const { return count_; }
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * Power-of-two-bucket histogram for wide-range positive quantities
 * (latencies): sample v lands in bucket floor(log2(v)). Percentiles
 * are estimated by linear interpolation within the bucket, which is
 * plenty for tail reporting (p95/p99 of DRAM latencies).
 *
 * Bucket b < size-1 covers [2^b, 2^(b+1)); the top bucket saturates
 * and absorbs every v >= 2^(size-1) (sample() and merge() agree on
 * this). v = 0 lands in bucket 0 alongside v = 1, so percentile
 * estimates never drop below bucket 0's lower edge of 1 — acceptable
 * for the latency-style quantities this histogram serves, where 0
 * does not occur.
 */
class LogHistogram
{
  public:
    explicit LogHistogram(std::size_t buckets = 32) : buckets_(buckets, 0)
    {
    }

    void
    sample(std::uint64_t v)
    {
        std::size_t b = 0;
        while ((v >> (b + 1)) != 0 && b + 1 < buckets_.size())
            ++b;
        ++buckets_[b];
        ++count_;
        sum_ += v;
    }

    void
    reset()
    {
        for (auto &b : buckets_)
            b = 0;
        count_ = 0;
        sum_ = 0;
    }

    /** Estimated value at quantile @p q in [0,1]. 0 when empty. */
    double
    percentile(double q) const
    {
        if (!count_)
            return 0.0;
        if (q < 0.0)
            q = 0.0;
        if (q > 1.0)
            q = 1.0;
        const double target = q * static_cast<double>(count_);
        double seen = 0.0;
        for (std::size_t b = 0; b < buckets_.size(); ++b) {
            if (!buckets_[b])
                continue;
            const double next = seen + static_cast<double>(buckets_[b]);
            if (next >= target) {
                const double lo = static_cast<double>(1ull << b);
                const double hi = lo * 2.0;
                const double frac =
                    (target - seen) / static_cast<double>(buckets_[b]);
                return lo + frac * (hi - lo);
            }
            seen = next;
        }
        // Unreachable in exact arithmetic (the last populated bucket's
        // cumulative count meets any target <= count_); guard the
        // floating-point edge with the top bucket's upper edge, not
        // its lower one.
        return 2.0 * static_cast<double>(1ull << (buckets_.size() - 1));
    }

    std::uint64_t count() const { return count_; }
    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /** Fold another histogram in (multi-channel aggregation). */
    void
    merge(const LogHistogram &other)
    {
        const std::size_t n =
            buckets_.size() < other.buckets_.size()
                ? buckets_.size()
                : other.buckets_.size();
        for (std::size_t b = 0; b < n; ++b)
            buckets_[b] += other.buckets_[b];
        // Out-of-range buckets fold into this histogram's top bucket.
        for (std::size_t b = n; b < other.buckets_.size(); ++b)
            buckets_.back() += other.buckets_[b];
        count_ += other.count_;
        sum_ += other.sum_;
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

} // namespace mcsim

#endif // CLOUDMC_COMMON_STATS_HH
