/**
 * @file
 * The measured quantities behind every figure in the paper, collected
 * over one measurement window.
 *
 * Units are domain-relative: "cycles" means core cycles and bandwidth
 * utilization is relative to the configured device's peak, both under
 * the SimConfig's ClockDomains — there is no global clock constant.
 * Comparing devices therefore compares wall-clock-equivalent work, not
 * raw cycle counts.
 */

#ifndef CLOUDMC_SIM_METRICS_HH
#define CLOUDMC_SIM_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mcsim {

/** One simulation run's results. */
struct MetricSet
{
    /** Aggregate committed instructions per cycle over all cores. */
    double userIpc = 0.0;
    /** Mean DRAM read latency (controller arrival to last data beat),
     *  in core cycles. Figure 3's quantity. */
    double avgReadLatency = 0.0;
    /** Read latency tail, in core cycles (log-bucket estimates). */
    double readLatencyP50 = 0.0;
    double readLatencyP95 = 0.0;
    double readLatencyP99 = 0.0;
    /** Row-buffer hit rate, percent. Figure 2's quantity. */
    double rowHitRatePct = 0.0;
    /** LLC demand misses per kilo committed instructions. Figure 4. */
    double l2Mpki = 0.0;
    /** Mean read/write queue occupancy summed over controllers.
     *  Figures 5 and 6. */
    double avgReadQueue = 0.0;
    double avgWriteQueue = 0.0;
    /** DRAM data-bus utilization, percent of peak. Figure 7. */
    double bwUtilPct = 0.0;
    /** CAS commands issued to the same (rank, bank group) as the
     *  previous CAS on their channel, percent — the back-to-back
     *  population the tCCD_L (rather than tCCD_S) spacing applies to.
     *  On single-group devices this degenerates to a same-rank
     *  back-to-back fraction (all of a rank's banks share the one
     *  group). */
    double sameGroupCasPct = 0.0;
    /** Activations receiving exactly one access, percent. Figure 8. */
    double singleAccessPct = 0.0;

    /** Per-core IPC (for the ATLAS disparity analysis). */
    std::vector<double> perCoreIpc;
    /** Per-core committed instructions and elapsed core cycles over
     *  the window (the numerator/denominator behind perCoreIpc). */
    std::vector<std::uint64_t> perCoreCommitted;
    std::vector<std::uint64_t> perCoreCycles;

    /** Lowest per-core IPC divided by the highest, in [0,1]. The
     *  paper's Section 4.1.1 fairness quantity ("the lowest per core
     *  IPC with FR-FCFS is within 85% of the highest"). */
    double ipcDisparity = 1.0;

    /**
     * Measured slowdown/fairness quantities, derived against alone-run
     * baselines (deriveFairnessMetrics below): each core's slowdown is
     * S_i = IPC_alone,i / IPC_shared,i, where IPC_alone,i comes from a
     * separate simulation of that core's application running with the
     * memory system to itself. This is the real version of the quantity
     * STFM only *estimates* online (sched_stfm.hh), and the standard
     * multiprogrammed-fairness vocabulary the scheduler papers report:
     *
     *  - weightedSpeedup  = sum_i IPC_shared,i / IPC_alone,i
     *  - harmonicSpeedup  = N / sum_i S_i  (harmonic-mean speedup)
     *  - maxSlowdown      = max_i S_i      (the unfairness headline)
     *
     * All zero (and perCoreSlowdown empty) when no baselines were run.
     */
    std::vector<double> perCoreSlowdown;
    double weightedSpeedup = 0.0;
    double harmonicSpeedup = 0.0;
    double maxSlowdown = 0.0;

    /** True when the slowdown/fairness block above was derived. */
    bool hasFairness() const { return !perCoreSlowdown.empty(); }

    /** Estimated DRAM core energy over the window (Micron TN-41-01
     *  style model; see dram/energy.hh), and its average power. */
    double dramEnergyNj = 0.0;
    double dramAvgPowerMw = 0.0;

    /**
     * Stacked-backend quantities (zeros / an empty list on flat
     * backends). perVaultReadQueue is the mean read-queue occupancy of
     * every vault queue in global queue order; vaultQueueImbalance is
     * the hottest queue's occupancy over the all-queue mean (1.0 =
     * perfectly balanced, 0 when idle). The remap counters total the
     * measurement window's hot-bank migrations and the rows they
     * copied across vaults.
     */
    std::vector<double> perVaultReadQueue;
    double vaultQueueImbalance = 0.0;
    std::uint64_t remapMigrations = 0;
    std::uint64_t remapMigratedRows = 0;

    /**
     * Tiered-backend quantities (zeros on non-tiered backends).
     * fastTierHitPct is the percent of routed requests served by the
     * fast tier (0 when nothing was routed); slowTierReadLatencyP99 is
     * the slow tier's read-latency tail in core cycles (0 when the
     * slow tier served no reads); the migration counters total the
     * window's tier migrations (tile swaps, or alloy-cache fills) and
     * the rows they copied between tiers.
     */
    double fastTierHitPct = 0.0;
    double slowTierReadLatencyP99 = 0.0;
    std::uint64_t tierMigrations = 0;
    std::uint64_t tierMigratedRows = 0;

    std::uint64_t committedInstructions = 0;
    std::uint64_t measuredCycles = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
};

/**
 * The MetricSet field table: calls @p f(name, &MetricSet::member) once
 * for every field, in a fixed order. The member is a pointer to a
 * double, a std::uint64_t, or a std::vector of either. The results
 * cache's row format, cache recall, metricMismatch(), metricsJson()
 * and every program's metric output derive from this table, so a new
 * metric is declared here and nowhere else.
 */
template <typename F>
void
forEachMetricField(F &&f)
{
    f("user_ipc", &MetricSet::userIpc);
    f("avg_read_latency", &MetricSet::avgReadLatency);
    f("read_latency_p50", &MetricSet::readLatencyP50);
    f("read_latency_p95", &MetricSet::readLatencyP95);
    f("read_latency_p99", &MetricSet::readLatencyP99);
    f("row_hit_rate_pct", &MetricSet::rowHitRatePct);
    f("l2_mpki", &MetricSet::l2Mpki);
    f("avg_read_queue", &MetricSet::avgReadQueue);
    f("avg_write_queue", &MetricSet::avgWriteQueue);
    f("bw_util_pct", &MetricSet::bwUtilPct);
    f("same_group_cas_pct", &MetricSet::sameGroupCasPct);
    f("single_access_pct", &MetricSet::singleAccessPct);
    f("per_core_ipc", &MetricSet::perCoreIpc);
    f("per_core_committed", &MetricSet::perCoreCommitted);
    f("per_core_cycles", &MetricSet::perCoreCycles);
    f("ipc_disparity", &MetricSet::ipcDisparity);
    f("per_core_slowdown", &MetricSet::perCoreSlowdown);
    f("weighted_speedup", &MetricSet::weightedSpeedup);
    f("harmonic_speedup", &MetricSet::harmonicSpeedup);
    f("max_slowdown", &MetricSet::maxSlowdown);
    f("dram_energy_nj", &MetricSet::dramEnergyNj);
    f("dram_avg_power_mw", &MetricSet::dramAvgPowerMw);
    f("per_vault_read_queue", &MetricSet::perVaultReadQueue);
    f("vault_queue_imbalance", &MetricSet::vaultQueueImbalance);
    f("remap_migrations", &MetricSet::remapMigrations);
    f("remap_migrated_rows", &MetricSet::remapMigratedRows);
    f("fast_tier_hit_pct", &MetricSet::fastTierHitPct);
    f("slow_tier_read_latency_p99", &MetricSet::slowTierReadLatencyP99);
    f("tier_migrations", &MetricSet::tierMigrations);
    f("tier_migrated_rows", &MetricSet::tierMigratedRows);
    f("committed_instructions", &MetricSet::committedInstructions);
    f("measured_cycles", &MetricSet::measuredCycles);
    f("mem_reads", &MetricSet::memReads);
    f("mem_writes", &MetricSet::memWrites);
}

/** @p v as text that strtod reads back to the same bits ("%.17g"). */
std::string formatMetric(double v);

/** @p v in decimal. */
std::string formatMetric(std::uint64_t v);

/** The elements of @p list, each formatted as above, joined by ';'
 *  ("" for an empty list). */
template <typename T>
std::string
formatMetric(const std::vector<T> &list)
{
    std::string out;
    for (std::size_t i = 0; i < list.size(); ++i) {
        if (i)
            out += ';';
        out += formatMetric(list[i]);
    }
    return out;
}

/**
 * @p m as one JSON object: every field in forEachMetricField order,
 * scalars as formatMetric() prints them and lists as JSON arrays.
 * Members sit @p indent + 2 spaces deep and the closing brace
 * @p indent deep; the opening brace starts the text, so the object
 * can follow a key on the same line.
 */
std::string metricsJson(const MetricSet &m, int indent = 0);

/**
 * The first field (in forEachMetricField order) on which @p a and @p b
 * differ, with both values, e.g. "user_ipc: 0.5 vs 0.25"; "" when the
 * two sets are identical. Doubles compare by bit pattern, lists by
 * size and then element by element.
 */
std::string metricMismatch(const MetricSet &a, const MetricSet &b);

/**
 * One alone-run baseline covering a contiguous core range of a shared
 * run: cores [firstCore, firstCore + numCores) of the shared run are
 * measured against @p alone. The baseline run must expose either
 * exactly @p numCores per-core IPCs (part-isolated mix baselines, core
 * l of the range maps to baseline core l) or exactly one (single-core
 * alone run of a homogeneous preset, broadcast to every covered core).
 */
struct AloneBaselineMetrics
{
    std::uint32_t firstCore = 0;
    std::uint32_t numCores = 0;
    const MetricSet *alone = nullptr;
};

/**
 * Derive @p shared's slowdown/fairness block from alone-run baselines.
 * Every core of the shared run must be covered by exactly one
 * baseline, and both runs must carry per-core IPCs. Returns false
 * (leaving the fairness fields zeroed) when coverage or per-core data
 * is missing. Cores whose alone run committed nothing contribute a
 * slowdown of 1 and no weighted-speedup share; a core starved to zero
 * committed instructions in the *shared* run scores the largest
 * finite slowdown the window can attest to (as if it had committed
 * one instruction), so starvation inflates maxSlowdown instead of
 * masquerading as perfect fairness.
 */
bool deriveFairnessMetrics(MetricSet &shared,
                           const std::vector<AloneBaselineMetrics> &baselines);

} // namespace mcsim

#endif // CLOUDMC_SIM_METRICS_HH
