/**
 * @file
 * DAMON-style region-based access monitor (Park et al., Linux
 * mm/damon): the address space is covered by a bounded, ordered set of
 * contiguous regions, each carrying one sampled access counter, so
 * tracking cost is O(regions), not O(pages).
 *
 *  - Sampling: every sampleEvery-th recorded access is counted into
 *    the region covering its address (sampleEvery = 1 counts all).
 *  - Aggregation: after windowSamples counted samples the window
 *    closes; the caller reads the per-region counters, then calls
 *    closeWindow(), which adapts the region set (hot regions split at
 *    their midpoint, adjacent regions with similar counters merge,
 *    bounded by [minRegions, maxRegions]) and ages every counter by
 *    one halving so old phases decay instead of pinning the map.
 *
 * Everything is an ordered std::vector with lowest-index tie-breaks
 * and integer/bit arithmetic, so two monitors fed the same access
 * sequence stay bit-identical — the property the tiered backend's
 * route()-driven migration policies rely on under both kernels.
 */

#ifndef CLOUDMC_MEM_HOTNESS_MONITOR_HH
#define CLOUDMC_MEM_HOTNESS_MONITOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mcsim {

/** DAMON-style monitor knobs (the spec's monitor_* keys). */
struct MonitorConfig
{
    /** Count every Nth recorded access (1 = count all). */
    std::uint32_t sampleEvery = 4;
    /** Counted samples per aggregation window. */
    std::uint32_t windowSamples = 2048;
    /** Region-count bounds for the split/merge adaptation. */
    std::uint32_t minRegions = 16;
    std::uint32_t maxRegions = 256;
};

/** Region-based access monitor over [0, spanBytes). */
class HotnessMonitor
{
  public:
    struct Region
    {
        Addr start = 0;            ///< Inclusive, grain-aligned.
        Addr end = 0;              ///< Exclusive, grain-aligned.
        std::uint64_t count = 0;   ///< Sampled accesses (aged per window).
    };

    /**
     * Monitor @p spanBytes of address space at @p grainBytes region
     * granularity. A degenerate span (spanBytes < grainBytes) yields a
     * zero-region monitor whose record() is a no-op — callers need no
     * special casing.
     */
    HotnessMonitor(Addr spanBytes, Addr grainBytes,
                   const MonitorConfig &cfg);

    /**
     * Record one access. Returns true when this access closed an
     * aggregation window: the caller may then inspect regions() (the
     * window's counters) and must finish with closeWindow().
     */
    bool record(Addr addr);

    /** Adapt the region set (split/merge) and age the counters. Call
     *  once after record() returns true. */
    void closeWindow();

    /** Current regions, ordered by address, covering the span. */
    const std::vector<Region> &regions() const { return regions_; }

    /** Sampled-count density (count per @p grain bytes) of the region
     *  covering @p addr; 0 on a zero-region monitor. */
    double densityAt(Addr addr) const;

    std::uint64_t windowsClosed() const { return windowsClosed_; }

  private:
    std::size_t regionIndex(Addr addr) const;

    MonitorConfig cfg_;
    Addr span_;
    Addr grain_;
    std::vector<Region> regions_;
    std::uint32_t sampleCountdown_ = 1;
    std::uint32_t samplesInWindow_ = 0;
    std::uint64_t windowsClosed_ = 0;
};

} // namespace mcsim

#endif // CLOUDMC_MEM_HOTNESS_MONITOR_HH
