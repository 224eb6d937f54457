/**
 * @file
 * Shared declarations of the cloudmc benchmark program: the point
 * definition, the metric sink that becomes the final JSON line, and the
 * per-layer replays of the traced run (layers.cc).
 */

#ifndef CLOUDBENCH_CLOUDBENCH_HH
#define CLOUDBENCH_CLOUDBENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.hh"
#include "sim/sim_config.hh"
#include "sim/system.hh"
#include "workload/presets.hh"
#include "workload/synthetic.hh"

namespace cloudbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (empty: 0). */
double median(std::vector<double> v);

/** One named metric of the final JSON line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Collects metrics and the pass/fail tally of the output checks. */
struct Report
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Count one checked output; print and count it as failed when
     *  @p ok is false. */
    void check(bool ok, const std::string &what);
};

/** A single simulation point: configuration plus the workload preset
 *  reseeded from the benchmark's --seed. */
struct PointSpec
{
    mcsim::WorkloadId workload = mcsim::WorkloadId::WS;
    mcsim::SimConfig cfg;
    mcsim::WorkloadParams params;
};

/** What the traced run measured on the full (untraced) simulation,
 *  which the layer replays scale their per-call costs by. */
struct FullRun
{
    mcsim::MetricSet metrics;
    mcsim::KernelStats kernel;    ///< Window-only kernel counters.
    double windowHostS = 0.0;     ///< Host seconds of the measured window.
    std::uint64_t l1Accesses = 0; ///< L1I + L1D accesses in the window.
};

/**
 * Replay the generator, the cache hierarchy, backend routing and the
 * controllers in isolation for @p spec, and add the workload.*,
 * cpu.hier_*, mem.route_* and mem.ctl_* metrics to @p out. Per-call
 * costs are timed over batches of calls; each share is an estimate:
 * ns/call x the full run's call count / the full run's window time.
 */
void replayLayers(const PointSpec &spec, const FullRun &full, Report &out);

} // namespace cloudbench

#endif // CLOUDBENCH_CLOUDBENCH_HH
