/**
 * @file
 * Generic experiment runner: simulate any (workload, scheduler, page
 * policy, mapping, device, channel count) point from the command
 * line — or a whole declarative sweep from a spec file — and print
 * every MetricSet field. The repo's swiss-army knife for one-off
 * questions ("what does TCM + History do to TPC-H Q6 on 2 channels of
 * DDR4-2400?") without writing code.
 *
 * Usage: run_experiment [workload] [--scheduler S] [--policy P]
 *                       [--mapping M] [--device D] [--channels N] [...]
 *        run_experiment --config sweep.spec [--csv]
 *
 * Every spec key is also a flag (`--tier-bw 50` is `tier_bw = 50`).
 * With --config, or when a flag lists several values, the spec's
 * cross product (devices x schedulers x policies x mappings x
 * channels x workloads) runs as one parallel batch through
 * ExperimentRunner::runAll and prints one row per point: a summary
 * table, or with --csv the six point columns and then one column per
 * MetricSet field. A single point runs through runAll too, as a
 * one-point batch, and prints one `name value` row per MetricSet
 * field. Values print through formatMetric(), so CSV output reads back
 * bit-exactly. Run with --help for the full flag list and --list for
 * every legal name.
 */

#include <cstdio>

#include "sim/options.hh"
#include "sim/spec.hh"

using namespace mcsim;

namespace {

/** Mapping column label; "+gp" marks the group-packed placement. */
std::string
mappingLabel(const SimConfig &cfg)
{
    std::string label = mappingSchemeName(cfg.mapping);
    if (cfg.bankGroupMapping == BankGroupMapping::GroupPacked &&
        cfg.dram.bankGroupsPerRank > 1) {
        label += "+gp";
    }
    return label;
}

int
runSweep(const ExperimentOptions &opts)
{
    const ExperimentSpec &spec = opts.spec;
    const auto points = spec.points();
    std::printf("run_experiment: sweeping %zu point(s) from spec%s\n",
                points.size(),
                spec.fairness ? " (with alone-run baselines)" : "");
    ExperimentRunner runner;
    const auto results = runner.runAll(points);

    if (opts.csv) {
        std::printf("workload,device,scheduler,policy,mapping,channels");
        forEachMetricField(
            [](const char *name, auto) { std::printf(",%s", name); });
    } else {
        std::printf("%-8s %-12s %-10s %-13s %-11s %3s %7s %9s %7s %7s "
                    "%9s",
                    "wl", "device", "scheduler", "policy", "mapping",
                    "ch", "ipc", "lat(cyc)", "hit%", "bw%", "uJ");
        if (spec.fairness)
            std::printf(" %7s %7s %7s", "wspd", "hspd", "maxsd");
    }
    std::printf("\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SimConfig &cfg = points[i].cfg;
        const MetricSet &m = results[i];
        std::printf(opts.csv ? "%s,%s,%s,%s,%s,%u"
                             : "%-8s %-12s %-10s %-13s %-11s %3u",
                    workloadAcronym(points[i].workload),
                    cfg.deviceName.c_str(),
                    schedulerKindName(cfg.scheduler),
                    pagePolicyKindName(cfg.pagePolicy),
                    mappingLabel(cfg).c_str(), cfg.dram.channels);
        if (opts.csv) {
            forEachMetricField([&](const char *, auto member) {
                std::printf(",%s", formatMetric(m.*member).c_str());
            });
        } else {
            std::printf(" %7.3f %9.1f %7.2f %7.2f %9.1f", m.userIpc,
                        m.avgReadLatency, m.rowHitRatePct, m.bwUtilPct,
                        m.dramEnergyNj / 1000.0);
            if (spec.fairness) {
                std::printf(" %7.3f %7.3f %7.3f", m.weightedSpeedup,
                            m.harmonicSpeedup, m.maxSlowdown);
            }
        }
        std::printf("\n");
    }
    std::printf("(%llu simulated, %llu cache hits)\n",
                static_cast<unsigned long long>(runner.simulationsRun()),
                static_cast<unsigned long long>(runner.cacheHits()));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentOptions opts;
    const std::string err = opts.parse(argc - 1, argv + 1);
    if (!err.empty()) {
        std::fprintf(stderr, "error: %s\n\n%s", err.c_str(),
                     ExperimentOptions::usage("run_experiment").c_str());
        return 1;
    }
    if (opts.helpRequested) {
        std::fputs(ExperimentOptions::usage("run_experiment").c_str(),
                   stdout);
        return 0;
    }
    if (opts.listRequested) {
        std::fputs(ExperimentOptions::listText().c_str(), stdout);
        return 0;
    }
    if (opts.hasSpec || opts.spec.pointCount() > 1)
        return runSweep(opts);

    const ExperimentRunner::Point point = opts.spec.points().front();
    const SimConfig &cfg = point.cfg;
    std::printf("run_experiment: %s | %s | %s | %s | %s | %u channel(s)\n",
                workloadAcronym(point.workload), cfg.deviceName.c_str(),
                schedulerKindName(cfg.scheduler),
                pagePolicyKindName(cfg.pagePolicy),
                mappingLabel(cfg).c_str(), cfg.dram.channels);

    // A one-point batch (with its alone-run baseline under
    // --fairness), recalled from or stored in the results cache.
    ExperimentRunner runner;
    const MetricSet m = runner.runAll({point}).front();

    // Every MetricSet field, in table order, as `name,value` rows
    // (--csv) or aligned `name  value` rows; lists are ';'-joined.
    if (opts.csv)
        std::printf("metric,value\n");
    else
        std::printf("\n");
    forEachMetricField([&](const char *name, auto member) {
        std::printf(opts.csv ? "%s,%s\n" : "  %-28s %s\n", name,
                    formatMetric(m.*member).c_str());
    });
    return 0;
}
