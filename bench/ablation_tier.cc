/**
 * @file
 * Tiered-backend ablation: Zipf-skewed address traffic, the three
 * placement policies side by side.
 *
 * The driver is a ZipfTraffic that draws 64 KiB "objects" from a
 * Zipfian distribution (object 0 hottest), laid out contiguously from
 * address 0 the way a rank-ordered heap is — hot ranks spatially
 * clustered, which is the locality a DAMON-style region monitor
 * exists to exploit. The interleaved static split still spreads that
 * hot head across both tiers at tile granularity, so:
 *
 *  - static_split is the floor — half the hot objects are pinned in
 *    the slow tier, whose throttled queues absorb the skewed load and
 *    stretch the read tail;
 *  - hotness_based should find the hot slow-resident tiles through
 *    the DAMON-style monitor and swap them fast, off-loading the slow
 *    queues (the p99 win is mostly queueing, not raw media latency);
 *  - alloy_cache trades capacity for recency: every slow hit fills a
 *    direct-mapped fast row, great reuse capture at a fill cost.
 *
 * The JSON stamp holds the config, every MetricSet field of each
 * policy, each policy's migration overhead and the hotness_based p99
 * improvement; stdout gets the same bytes. The overhead is the row
 * copy time as a share of DRAM cycles, a lower bound: a migration
 * only gates the moved tiles with availableAt and moves no DRAM
 * traffic.
 *
 * Usage: ablation_tier [--cycles N] [--theta T] [--json PATH]
 *        (defaults: 4M measured core cycles — the monitor needs the
 *        placement to converge inside warmup so the measured window
 *        shows steady-state overhead, not the learning ramp — theta
 *        0.99, BENCH_tier.json)
 *
 * The three policies run as one ExperimentRunner batch, so
 * CLOUDMC_FAST shortens their windows by SimConfig::shortenWindows
 * like every other point (the CI smoke runs with CLOUDMC_FAST=50,
 * which measures 100k cycles); the stamp's measure_core_cycles is the
 * window measured. The improvement gate (exit 2 when hotness_based
 * fails to beat static_split on p99, or its migration overhead passes
 * 5% of DRAM cycles) arms only on full-length runs: a /50 smoke
 * closes too few monitor windows to be meaningful.
 */

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "mem/backend.hh"

using namespace mcsim;

namespace {

/** One policy's point: Zipf traffic over 64 KiB objects. */
ExperimentRunner::Point
zipfObjectPoint(const SimConfig &cfg, double theta, double memProb)
{
    // A 256 MiB Zipf footprint in 64 KiB objects — far past the 4 MiB
    // shared L2, so the skewed tail reaches DRAM, while each object
    // is about one placement tile (the monitor can move whole objects
    // in single swaps).
    constexpr std::uint64_t kObjects = 4096;
    constexpr std::uint64_t kObjectBytes = 64 * 1024;
    // Objects lie in contiguous rank order, wrapped to the composed
    // (fast + slow) space: the backend is rebuilt by System, but
    // capacity depends only on cfg.
    const std::uint64_t objectSlots =
        makeMemBackend(cfg, cfg.numCores)->capacityBytes() / kObjectBytes;
    const std::uint64_t blockBytes = cfg.dram.blockBytes;
    return bench::ZipfTraffic::point(
        cfg, kObjects, theta, memProb, "ZipfObject",
        [objectSlots, blockBytes](std::uint64_t obj, Pcg32 &rng) {
            const std::uint64_t block =
                rng.below64(kObjectBytes / blockBytes);
            return (obj % objectSlots) * kObjectBytes + block * blockBytes;
        });
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t cycles = 4'000'000;
    double theta = 0.99;
    std::string jsonPath = "BENCH_tier.json";
    if (!bench::parseBenchFlags(
            argc, argv,
            {{"cycles", "a positive integer", bench::positiveUint(cycles)},
             {"theta", "a Zipf skew in [0, 1)", bench::zipfTheta(theta)},
             {"json", "a path", bench::text(jsonPath)}})) {
        return 1;
    }

    SimConfig cfg = SimConfig::baseline();
    cfg.warmupCoreCycles = cycles / 4;
    cfg.measureCoreCycles = cycles;
    // A modest MLP window keeps the skewed queues under real
    // pressure; the monitor window is short enough that a /50 smoke
    // run still closes a handful of aggregation windows.
    cfg.core.mlpWindow = 4;
    cfg.tier.enabled = true;
    cfg.tier.monitorSampleEvery = 2;
    cfg.tier.monitorWindowSamples = 512;
    cfg.tier.hotFactor = 1.5;
    const double memProb = 0.25;

    // Keyless points: every policy always simulates, in one batch.
    constexpr std::array<TierPolicy, 3> kPolicies = {
        TierPolicy::StaticSplit, TierPolicy::HotnessBased,
        TierPolicy::AlloyCache};
    std::vector<ExperimentRunner::Point> points;
    for (TierPolicy policy : kPolicies) {
        SimConfig run = cfg;
        run.tier.policy = policy;
        points.push_back(zipfObjectPoint(run, theta, memProb));
    }
    ExperimentRunner runner("-");
    const auto m = runner.runAll(points);

    std::vector<std::pair<std::string, std::string>> stamp = {
        {"device", '"' + cfg.deviceName + '"'},
        {"fast_capacity_pct",
         formatMetric(std::uint64_t{cfg.tier.fastCapacityPct})},
        {"slow_latency_dram_cycles",
         formatMetric(std::uint64_t{cfg.tier.slowLatencyDramCycles})},
        {"slow_bw_pct", formatMetric(std::uint64_t{cfg.tier.slowBwPct})},
        {"zipf_theta", formatMetric(theta)},
        {"measure_core_cycles", formatMetric(m[0].measuredCycles)},
        {"monitor_window_samples",
         formatMetric(std::uint64_t{cfg.tier.monitorWindowSamples})}};
    std::string overheads;
    std::vector<double> overheadPct;
    for (std::size_t i = 0; i < kPolicies.size(); ++i) {
        // Copy overhead: DRAM cycles spent moving tier rows, as a
        // share of the total per-queue DRAM cycles in the window.
        const double dramCycles =
            static_cast<double>(m[i].measuredCycles) * cfg.clocks.dramMhz /
            cfg.clocks.coreMhz * (cfg.dram.channels * 2);
        overheadPct.push_back(
            dramCycles > 0.0
                ? 100.0 * static_cast<double>(m[i].tierMigratedRows) *
                      cfg.tier.migrationCyclesPerRow / dramCycles
                : 0.0);
        const std::string name = tierPolicyName(kPolicies[i]);
        stamp.emplace_back(name, metricsJson(m[i], 2));
        overheads += overheads.empty() ? "{" : ",";
        overheads += "\n    \"" + name +
                     "\": " + formatMetric(overheadPct.back());
    }
    const MetricSet &stat = m[0];
    const MetricSet &hot = m[1];
    const double p99ImprovementPct =
        stat.readLatencyP99 > 0.0
            ? 100.0 * (stat.readLatencyP99 - hot.readLatencyP99) /
                  stat.readLatencyP99
            : 0.0;
    stamp.emplace_back("migration_overhead_lower_bound_pct",
                       overheads + "\n  }");
    stamp.emplace_back("hotness_p99_improvement_pct",
                       formatMetric(p99ImprovementPct));
    if (!bench::writeStamp(jsonPath, "ablation_tier", stamp))
        return 1;

    // The ablation's reason to exist: on a full-length run the
    // monitored policy must beat the static floor on the read tail,
    // and must do it without burning the bus on copies. Short smoke
    // runs only check that all three policies execute.
    if (ExperimentRunner::fastDivisor() == 1) {
        if (hot.readLatencyP99 >= stat.readLatencyP99) {
            std::fprintf(
                stderr,
                "hotness_based did not improve p99 (%.1f -> %.1f)\n",
                stat.readLatencyP99, hot.readLatencyP99);
            return 2;
        }
        if (overheadPct[1] > 5.0) {
            std::fprintf(stderr,
                         "migration overhead %.2f%% exceeds the 5%% "
                         "budget\n",
                         overheadPct[1]);
            return 2;
        }
    }
    return 0;
}
